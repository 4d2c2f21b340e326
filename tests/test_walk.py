import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalklab import (
    ImplementingTriple,
    StepSizeError,
    build_unitary,
    build_walk,
    structure_map_from_pair,
    verify_error_identity,
    vector_state_check,
)

from .oracles import cp_generator_blocks, structure_map_blocks, walk_unitary

IDENTITY_TOL = 1e-11
UNITARITY_TOL = 1e-13


def test_z2_step_arithmetic():
    # h ||xi||^2 = 0.36: the rotation has cosine 0.8 and sine 0.6
    step = build_unitary([1.0], 0.36)
    assert abs(step.c_h - 0.8) < 1e-15
    assert abs(step.s_h[0] - 0.6) < 1e-15
    assert abs(step.d_h + 0.2) < 1e-15
    assert np.allclose(step.unitary, [[0.8, -0.6], [0.6, 0.8]], atol=1e-15)


def test_unitary_matches_loop_oracle():
    xi = np.array([0.4 - 0.3j, 0.2, 0.5j])
    step = build_unitary(xi, 0.7)
    assert np.max(np.abs(step.unitary - walk_unitary(xi, 0.7))) < 1e-14


def test_unitarity_across_parameters():
    rng = np.random.default_rng(5)
    for p in (1, 2, 6):
        xi = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        cap = 1.0 / np.vdot(xi, xi).real
        for h in (0.9 * cap, 0.25 * cap, 0.003 * cap):
            u = build_unitary(xi, h).unitary
            assert np.max(np.abs(u.conj().T @ u - np.eye(p + 1))) < UNITARITY_TOL


def test_zero_xi_gives_identity():
    step = build_unitary(np.zeros(4), 0.25)
    assert np.array_equal(step.unitary, np.eye(5))
    assert step.c_h == 1.0


def test_boundary_step_is_allowed():
    # h ||xi||^2 = 1 exactly: cosine 0, still unitary
    u = build_unitary([2.0], 0.25).unitary
    assert abs(u[0, 0]) < 1e-15
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < UNITARITY_TOL


def test_oversize_step_rejected():
    with pytest.raises(StepSizeError):
        build_unitary([2.0], 0.26)
    with pytest.raises(StepSizeError):
        build_unitary([1.0], 0.0)
    with pytest.raises(StepSizeError):
        build_unitary([1.0], -0.1)


def test_walk_step_is_readonly():
    step = build_unitary([1.0], 0.1)
    with pytest.raises(ValueError):
        step.unitary[0, 0] = 2.0


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


def test_error_identity_rank_two_isometry(c_s3):
    triple = rank_two_triple(c_s3)
    assert not c_s3.is_cocommutative(1e-12)
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
    step = build_unitary(xi, h)
    p = xi.shape[0]
    assert np.max(np.abs(step.unitary.conj().T @ step.unitary - np.eye(p + 1))) < 1e-12
    triple = ImplementingTriple(source=group_z2, pi=group_z2.rep, xi=xi)
    assert verify_error_identity(triple, group_z2.counit, h) < 1e-10
