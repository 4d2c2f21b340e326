import numpy as np
import pytest

from qwalklab import (
    FormatError,
    GridSpec,
    PartitionMismatch,
    StepFunction,
    build_walk,
    convolution_iterates,
    step_function_from_payload,
    step_function_to_payload,
    walk_matrix_element,
)

from .oracles import step_hat_vectors, toy_matrix_element
from .test_structure_maps import two_character_triple


def two_piece(noise_dim=1):
    if noise_dim == 1:
        return StepFunction.from_segments([(0.5, [1.0]), (0.5, [0.6 - 0.3j])])
    return StepFunction.from_segments([(0.5, [1.0, 0.2j]), (0.5, [0.6 - 0.3j, -0.1])])


def test_step_function_basics():
    f = two_piece()
    assert f.noise_dim == 1
    assert f.total_time == 1.0
    assert np.array_equal(f.breakpoints, [0.0, 0.5, 1.0])
    assert f.value_at(0.2)[0] == 1.0
    assert f.value_at(0.7)[0] == 0.6 - 0.3j
    assert f.value_at(1.3)[0] == 0.0
    assert f.value_at(-0.1)[0] == 0.0


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(durations=np.array([0.5, -0.5]), values=np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError):
        StepFunction(durations=np.array([0.5]), values=np.array([[1.0], [2.0]]))


def test_overlap_is_the_windowed_integral():
    f = two_piece()
    g = StepFunction.constant([0.8 + 0.2j], 1.0)
    # by hand: 0.5 conj(1) (0.8 + 0.2i) + 0.5 conj(0.6 - 0.3i) (0.8 + 0.2i)
    expected = 0.5 * (0.8 + 0.2j) + 0.5 * np.conjugate(0.6 - 0.3j) * (0.8 + 0.2j)
    assert abs(f.overlap(g) - expected) < 1e-14
    half = 0.5 * (0.8 + 0.2j)
    assert abs(f.overlap(g, 0.0, 0.5) - half) < 1e-14
    assert abs(f.overlap(g, a=2.0)) == 0.0


def test_exponential_inner_product():
    f = two_piece()
    g = StepFunction.constant([0.8 + 0.2j], 1.0)
    assert abs(f.exponential_inner(g) - np.exp(f.overlap(g))) < 1e-14


def test_grid_from_time_floor_convention():
    assert GridSpec.from_time(1.0, 0.25).n == 4
    assert GridSpec.from_time(0.9999999999, 0.25).n == 4
    assert GridSpec.from_time(0.9, 0.25).n == 3
    assert GridSpec.from_time(0.2, 0.25).n == 0
    with pytest.raises(ValueError):
        GridSpec.from_time(1.0, 0.0)


def test_step_hat_vectors_closed_form():
    f = two_piece()
    grid = GridSpec(h=0.25, n=4)
    u = step_hat_vectors(f, grid)
    root = np.sqrt(0.25)
    expected = np.array(
        [[1, root * 1.0], [1, root * 1.0], [1, root * (0.6 - 0.3j)], [1, root * (0.6 - 0.3j)]]
    )
    assert np.max(np.abs(u - expected)) < 1e-14


def test_partition_mismatch_raises(group_z2, z2_sign_triple):
    psi = build_walk(z2_sign_triple, group_z2.counit, 0.25)
    f = StepFunction.from_segments([(0.3, [1.0]), (0.7, [0.0])])
    with pytest.raises(PartitionMismatch):
        walk_matrix_element(psi, 1, f, f, 1.0, 0.25)
    # breakpoints beyond the horizon are irrelevant
    g = StepFunction.from_segments([(0.5, [1.0]), (0.3, [0.0])])
    walk_matrix_element(psi, 1, g, g, 0.5, 0.25)


def test_identity_matrix_element_is_euler_product():
    f = two_piece()
    g = StepFunction.constant([0.8 + 0.2j], 1.5)
    grid = GridSpec(h=0.25, n=4)
    got = toy_matrix_element(np.eye(2**4), f, g, grid)
    prod = 1.0 + 0.0j
    for j in range(1, 5):
        mid = (j - 0.5) * 0.25
        prod *= 1.0 + 0.25 * np.vdot(f.value_at(mid), g.value_at(mid))
    tail = np.exp(f.overlap(g, a=1.0))
    assert abs(got - prod * tail) < 1e-13


def test_walk_element_matches_materialized_route(group_z2, z2_sign_triple, c_s3):
    # C(S3) is not cocommutative, so its case also fixes the order in which
    # the pieces of the step functions are joined
    s3_f = StepFunction.from_segments([(0.5, [1.0, 0.2j]), (0.25, [0.6 - 0.3j, -0.1]), (0.25, [-0.4j, 0.7])])
    s3_probes = (c_s3.unit, *np.eye(6), np.linspace(-1.0, 1.0, 6) + 0.3j)
    cases = (
        (
            z2_sign_triple,
            two_piece(),
            StepFunction.constant([0.8 + 0.2j], 1.0),
            (group_z2.unit, np.array([0.3, -0.7 + 0.2j])),
        ),
        (two_character_triple(c_s3, 1, 3, [0.5j, -0.6]), s3_f, two_piece(noise_dim=2), s3_probes),
    )
    grid = GridSpec(h=0.25, n=4)
    for triple, f, g, probes in cases:
        psi = build_walk(triple, triple.source.counit, 0.25)
        iterates = convolution_iterates(psi, 4)
        for coeffs in probes:
            a = np.einsum("i,iab->ab", coeffs, iterates.mats)
            direct = toy_matrix_element(a, f, g, grid)
            factored = walk_matrix_element(psi, coeffs, f, g, 1.0, 0.25)
            assert abs(direct - factored) < 1e-12


def test_walk_element_accepts_basis_index(group_z2, z2_sign_triple):
    psi = build_walk(z2_sign_triple, group_z2.counit, 0.25)
    f = two_piece()
    g = StepFunction.constant([0.8], 1.0)
    via_index = walk_matrix_element(psi, 1, f, g, 1.0, 0.25)
    via_coeffs = walk_matrix_element(psi, group_z2.basis_coeffs(1), f, g, 1.0, 0.25)
    assert via_index == via_coeffs


def test_unit_element_euler_vs_exponential(group_z2, z2_sign_triple):
    # psi(1) = I, so the unit probes the Euler product (1 + h <f_j, g_j>)^n;
    # it differs from <eps(f), eps(g)> at order h and matches exactly when
    # the cellwise inner products vanish
    psi = build_walk(z2_sign_triple, group_z2.counit, 0.25)
    f = StepFunction.constant([1.0], 1.0)
    g = StepFunction.constant([0.5], 1.0)
    got = walk_matrix_element(psi, group_z2.unit, f, g, 1.0, 0.25)
    euler = (1.0 + 0.25 * 0.5) ** 4
    assert abs(got - euler) < 1e-13
    assert abs(got - f.exponential_inner(g)) > 1e-3

    g_perp = StepFunction.constant([0.0], 1.0)
    exact = walk_matrix_element(psi, group_z2.unit, f, g_perp, 1.0, 0.25)
    assert abs(exact - f.exponential_inner(g_perp)) < 1e-14


def test_walk_element_zero_steps(group_z2, z2_sign_triple):
    psi = build_walk(z2_sign_triple, group_z2.counit, 0.25)
    f = two_piece()
    g = StepFunction.constant([0.8 + 0.2j], 1.0)
    got = walk_matrix_element(psi, np.array([0.4, 0.6]), f, g, 0.2, 0.25)
    eps_val = group_z2.counit @ np.array([0.4, 0.6])
    assert abs(got - eps_val * np.exp(f.overlap(g))) < 1e-13


def test_walk_element_rejects_dim_mismatch(group_s3, s3_regular_triple):
    psi = build_walk(s3_regular_triple, group_s3.counit, 0.05)
    f = two_piece()
    with pytest.raises(ValueError):
        walk_matrix_element(psi, group_s3.unit, f, f, 1.0, 0.25)


def test_step_function_payload_roundtrip():
    f = two_piece(noise_dim=2)
    back = step_function_from_payload(step_function_to_payload(f))
    assert np.array_equal(back.durations, f.durations)
    assert np.array_equal(back.values, f.values)


def test_step_function_payload_rejects_malformed():
    with pytest.raises(FormatError):
        step_function_from_payload([])
    with pytest.raises(FormatError):
        step_function_from_payload([[0.5]])
    with pytest.raises(FormatError):
        step_function_from_payload([[0.5, [1.0]]])
    with pytest.raises(FormatError):
        step_function_from_payload([[0.5, [1.0, 0.0]], [0.5, [1.0, 0.0], [0.0, 0.0]]])
