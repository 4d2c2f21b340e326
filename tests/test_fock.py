import re

import numpy as np
import pytest

import qwalklab.fock as fock
from qwalklab import (
    FormatError,
    StepFunction,
    build_walk,
    step_function_from_payload,
    walk_matrix_element,
)

from .oracles import convolution_power, step_hat_vectors, toy_matrix_element
from .test_structure_maps import two_character_triple


def two_piece(noise_dim=1):
    if noise_dim == 1:
        return StepFunction(durations=[0.5, 0.5], values=[[1.0], [0.6 - 0.3j]])
    return StepFunction(durations=[0.5, 0.5], values=[[1.0, 0.2j], [0.6 - 0.3j, -0.1]])


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
    assert abs(f.overlap(g) - f.overlap(g, a=0.5) - half) < 1e-14
    assert abs(f.overlap(g, a=2.0)) == 0.0


def test_cell_count_floor_convention():
    assert fock._cell_count(1.0, 0.25) == 4
    assert fock._cell_count(0.9999999999, 0.25) == 4
    assert fock._cell_count(0.9, 0.25) == 3
    assert fock._cell_count(0.2, 0.25) == 0
    with pytest.raises(ValueError, match="h must be positive"):
        fock._cell_count(1.0, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        fock._cell_count(-0.5, 0.25)


def test_step_hat_vectors_closed_form():
    f = two_piece()
    u = step_hat_vectors(f, 0.25, 4)
    root = np.sqrt(0.25)
    expected = np.array(
        [[1, root * 1.0], [1, root * 1.0], [1, root * (0.6 - 0.3j)], [1, root * (0.6 - 0.3j)]]
    )
    assert np.max(np.abs(u - expected)) < 1e-14


def test_partition_mismatch_raises(group_z2, z2_sign_triple):
    psi = build_walk(z2_sign_triple, group_z2.counit, 0.25)
    f = StepFunction(durations=[0.3, 0.7], values=[[1.0], [0.0]])
    with pytest.raises(ValueError, match="breakpoint 0.3 is not a multiple of h = 0.25"):
        walk_matrix_element(psi, 1, f, f, 1.0, 0.25)
    # breakpoints beyond the horizon are irrelevant
    g = StepFunction(durations=[0.5, 0.3], values=[[1.0], [0.0]])
    walk_matrix_element(psi, 1, g, g, 0.5, 0.25)


def test_identity_matrix_element_is_euler_product():
    f = two_piece()
    g = StepFunction.constant([0.8 + 0.2j], 1.5)
    got = toy_matrix_element(np.eye(2**4), f, g, 0.25, 4)
    prod = 1.0 + 0.0j
    for j in range(1, 5):
        mid = (j - 0.5) * 0.25
        prod *= 1.0 + 0.25 * np.vdot(f.value_at(mid), g.value_at(mid))
    tail = np.exp(f.overlap(g, a=1.0))
    assert abs(got - prod * tail) < 1e-13


def test_walk_element_matches_materialized_route(group_z2, z2_sign_triple, c_s3):
    # C(S3) is not cocommutative, so its case also fixes the order in which
    # the pieces of the step functions are joined
    s3_f = StepFunction(durations=[0.5, 0.25, 0.25], values=[[1.0, 0.2j], [0.6 - 0.3j, -0.1], [-0.4j, 0.7]])
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
    for triple, f, g, probes in cases:
        b = triple.source
        psi = build_walk(triple, b.counit, 0.25)
        iterates = convolution_power(b.coproduct, b.counit, psi.mats, 4)
        for coeffs in probes:
            a = np.einsum("i,iab->ab", coeffs, iterates)
            direct = toy_matrix_element(a, f, g, 0.25, 4)
            factored = walk_matrix_element(psi, coeffs, f, g, 1.0, 0.25)
            assert abs(direct - factored) < 1e-12


def test_walk_element_accepts_basis_index(group_z2, z2_sign_triple):
    psi = build_walk(z2_sign_triple, group_z2.counit, 0.25)
    f = two_piece()
    g = StepFunction.constant([0.8], 1.0)
    via_index = walk_matrix_element(psi, 1, f, g, 1.0, 0.25)
    via_coeffs = walk_matrix_element(psi, np.array([0.0, 1.0], dtype=complex), f, g, 1.0, 0.25)
    assert via_index == via_coeffs


@pytest.mark.parametrize("index", [-1, 2, True], ids=["negative", "dim", "bool"])
def test_walk_element_refuses_a_basis_index_outside_the_basis(group_z2, z2_sign_triple, index):
    psi = build_walk(z2_sign_triple, group_z2.counit, 0.25)
    f = two_piece()
    with pytest.raises(ValueError, match=re.escape(f"basis index must be an integer in 0..1, got {index!r}")):
        walk_matrix_element(psi, index, f, f, 1.0, 0.25)


def test_step_durations_that_sum_past_the_float_range_are_refused():
    # each duration is finite and positive, their sum is not; no overflow warning comes before the refusal
    with pytest.raises(ValueError, match="^segment durations must sum to a finite time$"):
        StepFunction(durations=[1e308, 1e308], values=[[0.0], [0.0]])


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
    assert abs(got - np.exp(f.overlap(g))) > 1e-3

    g_perp = StepFunction.constant([0.0], 1.0)
    exact = walk_matrix_element(psi, group_z2.unit, f, g_perp, 1.0, 0.25)
    assert abs(exact - np.exp(f.overlap(g_perp))) < 1e-14


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


def gray_order(*choices):
    """Every combination of two-valued choices, each differing from the one before in exactly one choice."""
    for k in range(2 ** len(choices)):
        code = k ^ (k >> 1)
        yield tuple(options[(code >> i) & 1] for i, options in enumerate(choices))


def count_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that appends to the returned list on each call."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


REUSE_STEPS = (0.25, 0.125)
REUSE_TIMES = (0.5, 1.0)


def test_walk_reuses_its_functional_only_under_the_same_key(monkeypatch, s3_demo_config):
    # each call changes one of psi, h, f, g and t against the call before, so
    # each evaluates one functional and reads every probe from it; every probe
    # must equal, bit for bit, an evaluation on a walk and step functions with
    # equal arrays but new identities, which the memo holds as a new key even
    # right after the originals
    evaluated = count_calls(monkeypatch, fock, "_piecewise_product")
    config = s3_demo_config
    (f0, g0), (f1, g1) = config.pairs
    walks = [(h, build_walk(config.triple, config.chi, h)) for h in REUSE_STEPS]
    order = list(gray_order(walks, REUSE_STEPS, (f0, f1), (g0, g1), REUSE_TIMES))
    got = [[walk_matrix_element(psi, b, f, g, t, h) for b in config.probes] for (_, psi), h, f, g, t in order]
    assert len(evaluated) == len(order)
    for ((walk_h, psi), h, f, g, t), values in zip(order, got):
        walk_matrix_element(psi, 0, f, g, t, h)
        fresh = build_walk(config.triple, config.chi, walk_h)
        f, g = (StepFunction(fn.durations, fn.values) for fn in (f, g))
        before = len(evaluated)
        assert values == [walk_matrix_element(fresh, b, f, g, t, h) for b in config.probes]
        assert len(evaluated) == before + 1


def test_walk_checks_every_call_before_reuse(group_z2, z2_sign_triple):
    psi = build_walk(z2_sign_triple, group_z2.counit, 0.25)
    f = two_piece()
    walk_matrix_element(psi, 1, f, f, 1.0, 0.25)
    with pytest.raises(ValueError, match="coefficients have shape"):
        walk_matrix_element(psi, np.ones(3), f, f, 1.0, 0.25)


def test_step_function_payload_reads_each_row():
    # rows [duration, [re, im], ...], one pair per noise component
    f = two_piece(noise_dim=2)
    back = step_function_from_payload([[0.5, [1.0, 0.0], [0.0, 0.2]], [0.5, [0.6, -0.3], [-0.1, 0.0]]])
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
    with pytest.raises(FormatError):
        step_function_from_payload([[0.5, [[1.0, 0.0]]]])
