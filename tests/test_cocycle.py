import numpy as np
import pytest

from qwalklab import (
    CocycleEvaluator,
    ConvolutionSemigroup,
    ExperimentConfig,
    StepFunction,
    assoc_generator,
    build_walk,
    convolve_functionals,
    structure_map_from_pair,
    walk_matrix_element,
)
from qwalklab.experiment import _demo_payload

from .test_structure_maps import two_character_triple


def walk_values(triple, chi, b, f, g, t, hs):
    """The walk's matrix element at each step length, as run_sweep evaluates it."""
    return np.array([walk_matrix_element(build_walk(triple, chi, h), b, f, g, t, h) for h in hs])


@pytest.fixture()
def z2_phi(group_z2, z2_sign_triple):
    return structure_map_from_pair(z2_sign_triple, group_z2.counit)


def test_assoc_generator_closed_form(group_z2, z2_phi):
    c = np.array([0.7 - 0.2j])
    d = np.array([-0.4 + 0.5j])
    got = assoc_generator(z2_phi, c, d)
    chat = np.array([1.0, c[0]])
    dhat = np.array([1.0, d[0]])
    expected = np.array(
        [
            np.conjugate(chat) @ z2_phi.mats[i] @ dhat + np.vdot(c, d) * group_z2.counit[i]
            for i in range(2)
        ]
    )
    assert np.max(np.abs(got - expected)) < 1e-14


def test_time_zero_is_counit_times_gram(group_z2, z2_phi):
    f = StepFunction.constant([0.9], 1.0)
    g = StepFunction.constant([0.3 + 0.4j], 1.0)
    b = np.array([0.2, 0.8 - 0.1j])
    got = CocycleEvaluator(z2_phi).matrix_element(b, f, g, 0.0)
    expected = (group_z2.counit @ b) * f.exponential_inner(g)
    assert abs(got - expected) < 1e-13


def test_negative_time_rejected(z2_phi):
    f = StepFunction.constant([0.9], 1.0)
    with pytest.raises(ValueError):
        CocycleEvaluator(z2_phi).matrix_element(0, f, f, -0.5)


def test_noise_dim_mismatch_rejected(z2_phi):
    f = StepFunction.constant([0.9, 0.1], 1.0)
    with pytest.raises(ValueError):
        CocycleEvaluator(z2_phi).matrix_element(0, f, f, 1.0)


def test_fake_breakpoint_changes_nothing(group_z2, z2_phi):
    # same constant value split at 0.4: the interval product must collapse
    # by the semigroup law
    plain = StepFunction.constant([0.8], 1.0)
    split = StepFunction.from_segments([(0.4, [0.8]), (0.6, [0.8])])
    g = StepFunction.constant([0.3 - 0.2j], 1.0)
    b = np.array([0.5, 0.5])
    one = CocycleEvaluator(z2_phi).matrix_element(b, plain, g, 1.0)
    two = CocycleEvaluator(z2_phi).matrix_element(b, split, g, 1.0)
    assert abs(one - two) < 1e-12


def test_interval_factorization(z2_phi, c_s3):
    # piecewise f and g: the matrix element is the ordered convolution of the
    # per-interval exponentials, times the tail; build the pieces by hand.
    # C(S3) is not cocommutative, so its case also fixes the join order
    s3_phi = structure_map_from_pair(two_character_triple(c_s3, 1, 3, [0.5j, -0.6]), c_s3.counit)
    s3_f = StepFunction.from_segments([(0.5, [1.0, 0.2j]), (0.25, [0.6 - 0.3j, -0.1]), (0.25, [-0.4j, 0.7])])
    s3_g = StepFunction.from_segments([(0.375, [0.8 + 0.2j, -0.5]), (0.625, [0.3j, 0.9])])
    cases = (
        (
            z2_phi,
            StepFunction.from_segments([(0.4, [1.0]), (0.6, [0.2j])]),
            StepFunction.constant([0.5], 1.0),
            np.array([0.3, 0.7]),
        ),
        (s3_phi, s3_f, s3_g, np.linspace(-1.0, 1.0, 6) + 0.3j),
    )
    for phi, f, g, b in cases:
        src = phi.source
        cuts = sorted(set(f.breakpoints) | set(g.breakpoints))
        pieces = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            lam = assoc_generator(phi, f.value_at(lo), g.value_at(lo))
            pieces.append(ConvolutionSemigroup(src, lam).at(hi - lo))
        chained = pieces[0]
        for piece in pieces[1:]:
            chained = convolve_functionals(src, chained, piece)
        expected = (chained @ b) * np.exp(f.overlap(g, a=1.0))
        got = CocycleEvaluator(phi).matrix_element(b, f, g, 1.0)
        assert abs(got - expected) < 1e-13


def test_grouplike_exponential_closed_form(group_z2, z2_phi):
    # grouplike coproduct: the transfer matrix is diagonal, so each basis
    # element evolves by a plain scalar exponential of its generator value
    c = np.array([0.6 + 0.1j])
    d = np.array([-0.3])
    lam = assoc_generator(z2_phi, c, d)
    f = StepFunction.constant(c, 2.0)
    g = StepFunction.constant(d, 2.0)
    t = 1.5
    for i in range(2):
        got = CocycleEvaluator(z2_phi).matrix_element(i, f, g, t)
        expected = np.exp(t * lam[i]) * np.exp(f.overlap(g, a=t))
        assert abs(got - expected) < 1e-12


def test_trotter_product_oracle(c_z2, c_z2_eval_triple):
    # exp_*(t lambda) against (eps + (t/m) lambda)^{* m} with large m
    phi = structure_map_from_pair(c_z2_eval_triple, c_z2.counit)
    lam = assoc_generator(phi, [0.4], [0.9 - 0.2j])
    t, m = 0.8, 4096
    euler = c_z2.counit + 0j
    factor = c_z2.counit + (t / m) * lam
    for _ in range(m):
        euler = convolve_functionals(c_z2, euler, factor)
    f = StepFunction.constant([0.4], 1.0)
    g = StepFunction.constant([0.9 - 0.2j], 1.0)
    b = np.array([1.0, -0.5j])
    got = CocycleEvaluator(phi).matrix_element(b, f, g, t)
    expected = (euler @ b) * np.exp(f.overlap(g, a=t))
    assert abs(got - expected) < 5e-4 * max(1.0, abs(expected))


def test_cross_validation_errors_shrink(group_z2, z2_sign_triple, z2_phi):
    f = StepFunction.constant([0.5], 1.0)
    g = StepFunction.constant([0.25], 1.0)
    limit = CocycleEvaluator(z2_phi).matrix_element(1, f, g, 1.0)
    hs = [0.25 * 2**-k for k in range(5)]
    errors = np.abs(walk_values(z2_sign_triple, group_z2.counit, 1, f, g, 1.0, hs) - limit)
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.1 * errors[0]


def test_walk_error_is_first_order(group_z2, z2_sign_triple, z2_phi):
    f = StepFunction.constant([0.5], 1.0)
    g = StepFunction.constant([-0.2], 1.0)
    hs = [1.0 / 2**k for k in range(3, 8)]
    limit = CocycleEvaluator(z2_phi).matrix_element(1, f, g, 1.0)
    errs = np.abs(walk_values(z2_sign_triple, group_z2.counit, 1, f, g, 1.0, hs) - limit)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 0.8 < slope < 1.2


@pytest.mark.parametrize("name", ["c-z2", "group-z2", "group-s3"])
def test_walk_error_stays_first_order_at_depth(tmp_path, name):
    # h = 2^-20 puts about a million cells in each unit of time; the largest
    # error over pairs, times and probes must still shrink in proportion to h
    config = ExperimentConfig.from_payload(_demo_payload(name), tmp_path)
    evaluator = CocycleEvaluator(config.generator())
    worst = np.zeros(2)
    for f, g in config.pairs:
        for t in config.sample_times:
            for probe in config.probes:
                limit = evaluator.matrix_element(probe, f, g, t)
                values = walk_values(config.triple, config.chi, probe, f, g, t, [2**-11, 2**-20])
                worst = np.maximum(worst, np.abs(values - limit))
    assert worst[1] == pytest.approx(2**-9 * worst[0], rel=0.05)


def test_richardson_extrapolation_is_second_order(group_z2, z2_sign_triple, z2_phi):
    # the walk error has a smooth h-expansion, so 2 W(h/2) - W(h) cancels
    # the first-order term
    f = StepFunction.constant([0.5], 1.0)
    g = StepFunction.constant([-0.2], 1.0)
    ev = CocycleEvaluator(z2_phi)
    limit = ev.matrix_element(1, f, g, 1.0)
    hs = [1.0 / 2**k for k in range(3, 8)]
    steps = hs + [hs[-1] / 2]
    values = dict(zip(steps, walk_values(z2_sign_triple, group_z2.counit, 1, f, g, 1.0, steps)))
    rich_errs = [abs(2.0 * values[h / 2] - values[h] - limit) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(rich_errs), 1)[0]
    assert 1.7 < slope < 2.3
