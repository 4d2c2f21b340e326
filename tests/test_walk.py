import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalklab.walk as walk
from qwalklab import (
    ImplementingTriple,
    OperatorMap,
    build_unitary,
    build_walk,
    error_terms,
    structure_map_from_pair,
    verify_bialgebra,
    verify_error_identity,
    vector_state_check,
)
from qwalklab.experiment import TOLERANCES
from qwalklab.linalg import compress, dag, opnorms
from qwalklab.walk import gap_map

from .oracles import cp_generator_blocks, error_term_blocks, structure_map_blocks, walk_unitary

IDENTITY_TOL = 1e-11
UNITARITY_TOL = 1e-13


def test_z2_step_arithmetic():
    # h ||xi||^2 = 0.36: the rotation has cosine 0.8 and sine 0.6
    u = build_unitary([1.0], 0.36)
    assert abs(u[0, 0] - 0.8) < 1e-15
    assert abs(u[1, 0] - 0.6) < 1e-15
    assert abs(u[0, 0] - 1.0 + 0.2) < 1e-15
    assert np.allclose(u, [[0.8, -0.6], [0.6, 0.8]], atol=1e-15)


def test_unitary_matches_loop_oracle():
    xi = np.array([0.4 - 0.3j, 0.2, 0.5j])
    assert np.max(np.abs(build_unitary(xi, 0.7) - walk_unitary(xi, 0.7))) < 1e-14


def test_unitarity_across_parameters():
    rng = np.random.default_rng(5)
    for p in (1, 2, 6):
        xi = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        cap = 1.0 / np.vdot(xi, xi).real
        for h in (0.9 * cap, 0.25 * cap, 0.003 * cap):
            u = build_unitary(xi, h)
            assert np.max(np.abs(u.conj().T @ u - np.eye(p + 1))) < UNITARITY_TOL


def test_zero_xi_gives_identity():
    u = build_unitary(np.zeros(4), 0.25)
    assert np.array_equal(u, np.eye(5))
    assert u[0, 0] == 1.0


def test_boundary_step_is_allowed():
    # h ||xi||^2 = 1 exactly: cosine 0, still unitary
    u = build_unitary([2.0], 0.25)
    assert abs(u[0, 0]) < 1e-15
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < UNITARITY_TOL


def test_oversize_step_rejected():
    with pytest.raises(ValueError, match=r"h \* \|\|xi\|\|\^2 = 1\.04 > 1"):
        build_unitary([2.0], 0.26)
    with pytest.raises(ValueError, match="must be positive"):
        build_unitary([1.0], 0.0)
    with pytest.raises(ValueError, match="must be positive"):
        build_unitary([1.0], -0.1)


def test_unitary_is_readonly():
    u = build_unitary([1.0], 0.1)
    with pytest.raises(ValueError):
        u[0, 0] = 2.0


def admissible_hs(xi):
    cap = 1.0 / float(np.real(np.vdot(xi, xi)))
    return [min(0.5, 0.9 * cap), min(0.1, 0.9 * cap), 0.01 * min(1.0, cap)]


def test_rep_walk_is_unital_homomorphism(group_s3, s3_regular_triple):
    rho = build_walk(s3_regular_triple, group_s3.counit, 0.2)
    assert np.max(np.abs(rho.at_unit() - np.eye(rho.dim))) < 1e-13
    prod_via_mult = np.einsum("ijk,kab->ijab", group_s3.mult, rho.mats)
    prod_direct = np.einsum("iab,jbc->ijac", rho.mats, rho.mats)
    assert np.max(np.abs(prod_via_mult - prod_direct)) < 1e-12
    starred = np.einsum("ij,jab->iba", group_s3.invol, rho.mats).conj()
    assert np.max(np.abs(starred - rho.mats)) < 1e-12


def test_cp_walk_is_preunital(group_s3, s3_cp_triple):
    psi = build_walk(s3_cp_triple, group_s3.counit, 0.15)
    assert psi.dim == s3_cp_triple.noise_dim + 1
    assert np.max(np.abs(psi.at_unit() - np.eye(psi.dim))) < 1e-13


def test_build_walk_dispatches(group_s3, s3_regular_triple, s3_cp_triple):
    rho = build_walk(s3_regular_triple, group_s3.counit, 0.1)
    assert rho.dim == s3_regular_triple.rep_dim + 1
    psi = build_walk(s3_cp_triple, group_s3.counit, 0.1)
    assert psi.dim == s3_cp_triple.noise_dim + 1


def rank_two_triple(c_s3):
    """Regular representation of the non-cocommutative C(S3), compressed to two directions."""
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
    xi = np.array([0.6, -0.3j, 0.2, 0.5, -0.1 + 0.4j, 0.3])
    return ImplementingTriple(source=c_s3, pi=c_s3.rep, xi=xi, D=basis)


def oracle_case(request, case):
    """(triple, D as the oracles see it, whether the generator has block form)."""
    if case == "absent":
        triple = request.getfixturevalue("s3_regular_triple")
        return triple, np.eye(triple.rep_dim), True
    if case == "identity":
        plain = request.getfixturevalue("s3_regular_triple")
        triple = ImplementingTriple(source=plain.source, pi=plain.pi, xi=plain.xi, D=np.eye(plain.rep_dim))
        return triple, triple.D, True
    if case == "rank1":
        triple = request.getfixturevalue("s3_cp_triple")
        return triple, triple.D, False
    triple = rank_two_triple(request.getfixturevalue("c_s3"))
    return triple, triple.D, False


@pytest.mark.parametrize("case", ["absent", "identity", "rank1", "rank2"])
def test_unified_paths_match_loop_oracle(request, case):
    triple, d_mat, block_form = oracle_case(request, case)
    b = triple.source
    chi = b.counit
    phi = structure_map_from_pair(triple, chi)
    if block_form:
        expected = structure_map_blocks(triple.pi, triple.xi, chi)
    else:
        expected = cp_generator_blocks(triple.pi, triple.xi, d_mat, chi)
    assert np.max(np.abs(phi.mats - expected)) < 1e-13

    # the walk step is [v_0, v_rest]* (chi (+) pi) [v_0, v_rest] with V = U diag(1, D);
    # cp_generator_blocks with a zero character computes exactly that compression
    p, d = d_mat.shape
    h = admissible_hs(triple.xi)[1]
    embed = np.zeros((p + 1, d + 1), dtype=complex)
    embed[0, 0] = 1.0
    embed[1:, 1:] = d_mat
    v = walk_unitary(triple.xi, h) @ embed
    big = np.zeros((b.dim, p + 1, p + 1), dtype=complex)
    big[:, 0, 0] = chi
    big[:, 1:, 1:] = triple.pi
    expected_walk = cp_generator_blocks(big, v[:, 0], v[:, 1:], np.zeros(b.dim))
    psi = build_walk(triple, chi, h)
    assert psi.dim == triple.noise_dim + 1 == d + 1
    assert np.max(np.abs(psi.mats - expected_walk)) < 1e-13


@pytest.mark.parametrize("case", ["absent", "identity", "rank1", "rank2"])
def test_error_terms_match_block_oracle(request, case):
    # on C[S3] a basis element b_g with g^2 != e is not self-adjoint, so nu(b_g) is not
    # Hermitian and the two cross terms of phi_1 are not each other's adjoints
    triple, d_mat, _ = oracle_case(request, case)
    for chi in (triple.source.counit, triple.source.characters[-1]):
        phi1, phi2 = error_terms(triple, chi)
        expected1, expected2 = error_term_blocks(triple.pi, triple.xi, d_mat, chi)
        assert np.max(np.abs(phi1.mats - expected1)) < 1e-13
        assert np.max(np.abs(phi2.mats - expected2)) < 1e-13


def test_error_identity_rank_two_isometry(c_s3):
    triple = rank_two_triple(c_s3)
    assert not verify_bialgebra(c_s3)["cocommutative"]
    for h in admissible_hs(triple.xi):
        assert verify_error_identity(triple, c_s3.counit, h) < IDENTITY_TOL


def test_error_identity_unitary_case(group_z2, z2_sign_triple):
    for h in admissible_hs(z2_sign_triple.xi):
        assert verify_error_identity(z2_sign_triple, group_z2.counit, h) < IDENTITY_TOL


def test_error_identity_regular_rep(group_s3, s3_regular_triple):
    for h in admissible_hs(s3_regular_triple.xi):
        assert verify_error_identity(s3_regular_triple, group_s3.counit, h) < IDENTITY_TOL


def test_error_identity_cp_case(group_s3, s3_cp_triple):
    for h in admissible_hs(s3_cp_triple.xi):
        assert verify_error_identity(s3_cp_triple, group_s3.counit, h) < IDENTITY_TOL


def test_error_identity_non_counit_character(group_z2):
    chi = group_z2.characters[1]
    triple = ImplementingTriple(
        source=group_z2, pi=group_z2.rep, xi=np.array([0.6, -0.2j])
    )
    for h in admissible_hs(triple.xi):
        assert verify_error_identity(triple, chi, h) < IDENTITY_TOL


CONFTEST_TRIPLES = ["z2_sign_triple", "c_z2_eval_triple", "s3_regular_triple", "s3_cp_triple"]


@pytest.mark.parametrize("triple_name", CONFTEST_TRIPLES)
def test_error_identity_holds_down_to_tiny_steps(request, triple_name):
    # the gap is one compression of nu with no 1/h, so the residual stays at
    # rounding level at every step length the parser accepts
    triple = request.getfixturevalue(triple_name)
    norm_sq = float(np.real(np.vdot(triple.xi, triple.xi)))
    for chi in triple.source.characters:
        phi = structure_map_from_pair(triple, chi)
        for k in range(41):
            h = 2.0**-k
            if h * norm_sq > 1.0:
                continue
            gap = float(np.max(opnorms(gap_map(phi, triple, chi, h).mats)))
            assert verify_error_identity(triple, chi, h) <= 1e-11 * max(1.0, gap), (k, chi)


@pytest.mark.parametrize("triple_name", CONFTEST_TRIPLES)
def test_error_identity_reads_the_walk_step(request, monkeypatch, triple_name):
    # a walk compressed by U* diag(1, D) in place of U diag(1, D) is still a
    # unital *-homomorphism with the same vector state at e_0; the gap map,
    # built from V alone, cannot see it, so only the unscaled link between
    # build_walk and V* diag(0, nu) V does
    def adjoint_step(triple, chi, h):
        v = dag(build_unitary(triple.xi, h)) @ walk._embedding(triple)
        return OperatorMap(triple.source, compress(walk._char_oplus_pi(triple, chi), v))

    triple = request.getfixturevalue(triple_name)
    chi = triple.source.counit
    assert verify_error_identity(triple, chi, 0.1) <= TOLERANCES["error_identity"]
    monkeypatch.setattr(walk, "build_walk", adjoint_step)
    assert verify_error_identity(triple, chi, 0.1) > TOLERANCES["error_identity"]


def test_vector_state_realisation(c_z2, c_z2_eval_triple):
    for h in admissible_hs(c_z2_eval_triple.xi):
        r1, r2 = vector_state_check(c_z2_eval_triple, c_z2.counit, h)
        assert r1 < 1e-12
        assert r2 < 1e-12


def test_vector_state_rejects_cp_triple(group_s3, s3_cp_triple):
    with pytest.raises(ValueError):
        vector_state_check(s3_cp_triple, group_s3.counit, 0.1)


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(0.05, 1.4, allow_nan=False),
    frac=st.floats(0.01, 0.99, allow_nan=False),
    phase=st.floats(0.0, 6.28, allow_nan=False),
)
def test_unitarity_and_identity_are_parameter_free(group_z2, scale, frac, phase):
    xi = np.array([scale * np.exp(1j * phase), 0.3 * scale])
    h = frac / float(np.real(np.vdot(xi, xi)))
    u = build_unitary(xi, h)
    p = xi.shape[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(p + 1))) < 1e-12
    triple = ImplementingTriple(source=group_z2, pi=group_z2.rep, xi=xi)
    assert verify_error_identity(triple, group_z2.counit, h) < 1e-10
