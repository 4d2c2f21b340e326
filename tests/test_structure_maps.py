import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalklab import (
    ImplementingTriple,
    OperatorMap,
    extract_implementing_pair,
    structure_map_from_pair,
    verify_cp_decomposition,
    verify_structure_relation,
)
from qwalklab.structure_maps import cp_block_matrix, default_decomposition_vector, hat

from .oracles import cp_generator_blocks, structure_map_blocks

RELATION_TOL = 1e-12
ROUNDTRIP_TOL = 1e-10


def character_triple(b, index, xi_scalar):
    pi = b.characters[index].reshape(-1, 1, 1)
    return ImplementingTriple(source=b, pi=pi, xi=np.array([xi_scalar], dtype=complex))


def two_character_triple(b, i, j, xi):
    pi = np.zeros((b.dim, 2, 2), dtype=complex)
    pi[:, 0, 0] = b.characters[i]
    pi[:, 1, 1] = b.characters[j]
    return ImplementingTriple(source=b, pi=pi, xi=np.asarray(xi, dtype=complex))


def triples_for(b):
    """Three distinct implementing triples per bialgebra."""
    n_chars = b.characters.shape[0]
    second = 1 if n_chars > 1 else 0
    rng = np.random.default_rng(b.dim)
    xi_full = (rng.standard_normal(b.rep_dim) + 1j * rng.standard_normal(b.rep_dim)) * 0.4
    return [
        ImplementingTriple(source=b, pi=b.rep, xi=xi_full),
        character_triple(b, second, 0.7 - 0.3j),
        two_character_triple(b, 0, second, [0.5j, -0.6]),
    ]


def test_hat_lifting():
    assert np.array_equal(hat([2j, 1, 0]), [1, 2j, 1, 0])
    assert np.array_equal(hat(0.5), [1, 0.5])
    assert hat([1]).dtype == complex


def test_structure_relation_for_three_triples_per_bialgebra(all_bialgebras):
    for b in all_bialgebras:
        for triple in triples_for(b):  # each is checked when it is built
            phi = structure_map_from_pair(triple, b.counit)
            assert verify_structure_relation(phi, b.counit) < RELATION_TOL


def test_structure_relation_for_non_counit_character(group_z2):
    chi = group_z2.characters[1]
    triple = character_triple(group_z2, 0, 1.1 + 0.2j)
    phi = structure_map_from_pair(triple, chi)
    assert verify_structure_relation(phi, chi) < RELATION_TOL


def test_blocks_match_loop_oracle(group_s3, s3_regular_triple):
    phi = structure_map_from_pair(s3_regular_triple, group_s3.counit)
    expected = structure_map_blocks(
        s3_regular_triple.pi, s3_regular_triple.xi, group_s3.counit
    )
    assert np.max(np.abs(phi.mats - expected)) < 1e-14


def test_extraction_round_trips(all_bialgebras):
    for b in all_bialgebras:
        for triple in triples_for(b):
            phi = structure_map_from_pair(triple, b.counit)
            report = extract_implementing_pair(phi, b.counit)
            assert report.roundtrip_residual < ROUNDTRIP_TOL
            rebuilt = structure_map_from_pair(report.triple, b.counit)
            assert rebuilt.distance(phi) < ROUNDTRIP_TOL


def test_extraction_takes_minimum_norm_vector(group_z2):
    # regular rep of Z2 with xi = (1, 0): nu has a kernel, and the
    # minimum-norm solution is (1/2, -1/2)
    triple = ImplementingTriple(
        source=group_z2, pi=group_z2.rep, xi=np.array([1.0, 0.0], dtype=complex)
    )
    phi = structure_map_from_pair(triple, group_z2.counit)
    report = extract_implementing_pair(phi, group_z2.counit)
    assert report.kernel_dim == 1
    assert np.allclose(report.triple.xi, [0.5, -0.5], atol=1e-12)
    assert report.roundtrip_residual < 1e-13


def test_perturbed_map_reports_its_round_trip(c_z2, c_z2_eval_triple):
    # a shifted gamma entry leaves the lower-right block a *-representation: extraction reports, it does not raise
    phi = structure_map_from_pair(c_z2_eval_triple, c_z2.counit)
    mats = phi.mats.copy()
    mats[:, 0, 0] += 0.1
    bad = OperatorMap(c_z2, mats)
    assert verify_structure_relation(bad, c_z2.counit) > 0.05
    report = extract_implementing_pair(bad, c_z2.counit)
    assert report.roundtrip_residual > 0.05


def test_extraction_refuses_a_block_that_is_not_a_representation(c_z2, c_z2_eval_triple):
    # a 1e-9 shift of the lower-right block fails the triple's TRIPLE_TOL
    phi = structure_map_from_pair(c_z2_eval_triple, c_z2.counit)
    mats = phi.mats.copy()
    mats[:, 1:, 1:] += 1e-9 * np.eye(phi.dim - 1)
    with pytest.raises(ValueError, match="^triple is invalid: pi_product"):
        extract_implementing_pair(OperatorMap(c_z2, mats), c_z2.counit)


def test_phi_at_unit_zero_iff_pi_unital(c_z2, group_s3):
    unital = character_triple(group_s3, 0, 0.8)
    phi = structure_map_from_pair(unital, group_s3.counit)
    assert np.max(np.abs(phi.at_unit())) < 1e-14

    # pi(b) = chi(b) E11 on C^2 is multiplicative and *-preserving but not unital
    pi = np.zeros((c_z2.dim, 2, 2), dtype=complex)
    pi[:, 0, 0] = c_z2.characters[1]
    nonunital = ImplementingTriple(source=c_z2, pi=pi, xi=np.array([0.3, -0.2j]))  # unitality is not required
    assert np.max(np.abs(np.einsum("i,iab->ab", c_z2.unit, pi) - np.eye(2))) > 0.5
    phi = structure_map_from_pair(nonunital, c_z2.counit)
    assert np.max(np.abs(phi.at_unit())) > 0.5


def test_triple_refuses_non_representation(c_z2):
    pi = np.zeros((2, 1, 1), dtype=complex)
    pi[:, 0, 0] = [1.0, 0.5]  # not multiplicative for indicators
    with pytest.raises(ValueError, match=r"^triple is invalid: pi_product residual .* > 1e-10$"):
        ImplementingTriple(source=c_z2, pi=pi, xi=np.array([1.0]))


def test_triple_refuses_non_star_preserving_pi(group_z2):
    # pi(e) = I and pi(g) = [[1, 1], [0, -1]] square to I, so pi is multiplicative, but pi(g)* != pi(g^-1)
    pi = np.array([np.eye(2), [[1.0, 1.0], [0.0, -1.0]]], dtype=complex)
    product, _ = group_z2.homomorphism_defects(pi)
    assert np.max(np.abs(product)) == 0.0
    with pytest.raises(ValueError, match=r"^triple is invalid: pi_star residual .* > 1e-10$"):
        ImplementingTriple(source=group_z2, pi=pi, xi=np.array([0.5, 0.1]))


@pytest.mark.parametrize("entry", [np.nan, 1.0 + 2e-10], ids=["nan", "above-bar"])
def test_triple_refuses_non_isometry(group_z2, entry):
    d_mat = np.array([[entry], [0.0]], dtype=complex)
    with pytest.raises(ValueError, match=r"^triple is invalid: isometry residual .* > 1e-10$"):
        ImplementingTriple(source=group_z2, pi=group_z2.rep, xi=np.array([0.5, 0.1]), D=d_mat)


@pytest.mark.parametrize("d_mat", [np.zeros((2, 0)), [[]], []], ids=["2x0", "nested-empty", "empty"])
def test_triple_refuses_an_isometry_without_columns(group_z2, d_mat):
    shape = np.atleast_2d(np.asarray(d_mat)).shape
    with pytest.raises(ValueError, match=re.escape(f"D has shape {shape}, expected (2, d) with d >= 1")):
        ImplementingTriple(source=group_z2, pi=group_z2.rep, xi=np.array([0.5, 0.1]), D=d_mat)


def test_cp_generator_matches_loop_oracle(group_s3, s3_cp_triple):
    phi = structure_map_from_pair(s3_cp_triple, group_s3.counit)
    expected = cp_generator_blocks(
        s3_cp_triple.pi, s3_cp_triple.xi, s3_cp_triple.D, group_s3.counit
    )
    assert np.max(np.abs(phi.mats - expected)) < 1e-13


def test_cp_decomposition_with_derived_zeta(group_s3, s3_cp_triple):
    phi = structure_map_from_pair(s3_cp_triple, group_s3.counit)
    zeta = default_decomposition_vector(s3_cp_triple)
    report = verify_cp_decomposition(phi, group_s3.counit, zeta)
    assert report["phi1_is_cp"]
    assert report["cp_residual"] < 1e-10
    assert report["phitilde_one_negative"]


def test_cp_decomposition_full_space_with_identity_isometry(c_z2, c_z2_eval_triple):
    phi = structure_map_from_pair(c_z2_eval_triple, c_z2.counit)
    zeta = default_decomposition_vector(c_z2_eval_triple)
    report = verify_cp_decomposition(phi, c_z2.counit, zeta)
    assert report["phi1_is_cp"]
    assert report["phitilde_one_negative"]


def test_cp_decomposition_wrong_zeta_sign_fails(c_z2, c_z2_eval_triple):
    # flipping the real part of zeta_0 breaks positivity of phi1
    phi = structure_map_from_pair(c_z2_eval_triple, c_z2.counit)
    zeta = default_decomposition_vector(c_z2_eval_triple)
    zeta[0] = -zeta[0]
    report = verify_cp_decomposition(phi, c_z2.counit, zeta)
    assert not report["phi1_is_cp"]


def test_cp_block_matrix_positive_for_representation(group_s3):
    pi_map = OperatorMap(group_s3, group_s3.rep)
    block = cp_block_matrix(pi_map)
    eigs = np.linalg.eigvalsh((block + block.conj().T) / 2)
    assert eigs[0] > -1e-12


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(-1.5, 1.5, allow_nan=False),
    im=st.floats(-1.5, 1.5, allow_nan=False),
    char_index=st.integers(0, 1),
)
def test_structure_relation_is_identically_satisfied(re, im, char_index):
    # any character rep and any xi give a structure map; no tuning involved
    from qwalklab import build_group_algebra, cyclic_group
    from qwalklab.groups import cyclic_character_table

    b = build_group_algebra(cyclic_group(2), extra_characters=list(cyclic_character_table(2)[1:]))
    triple = character_triple(b, char_index, re + 1j * im)
    phi = structure_map_from_pair(triple, b.counit)
    assert verify_structure_relation(phi, b.counit) < 1e-11
