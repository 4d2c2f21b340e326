import numpy as np
import pytest

from qwalklab import (
    ConvolutionSemigroup,
    DimensionCapExceeded,
    OperatorMap,
    build_walk,
    check_compatibility,
    convolution_iterates,
    convolve,
    convolve_functionals,
    composition_iterates,
    lift,
)

from qwalklab.convolution import MAX_LIFTED_ENTRIES

from .oracles import convolution_power, convolve_maps, functional_transfer_matrix

ITERATE_TOL = 1e-11


def random_functional(b, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)


def random_map(b, k, seed):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((b.dim, k, k)) + 1j * rng.standard_normal((b.dim, k, k))
    return OperatorMap(b, 0.5 * mats)


def test_counit_is_the_convolution_unit(all_bialgebras):
    for b in all_bialgebras:
        f = random_functional(b, 1)
        left = convolve_functionals(b, b.counit, f)
        right = convolve_functionals(b, f, b.counit)
        assert np.max(np.abs(left - f)) < 1e-14
        assert np.max(np.abs(right - f)) < 1e-14


def test_counit_is_the_unit_for_operator_maps(group_s3):
    theta = random_map(group_s3, 2, 2)
    eps = OperatorMap.from_functional(group_s3, group_s3.counit)
    assert convolve(eps, theta).distance(theta) < 1e-13
    assert convolve(theta, eps).distance(theta) < 1e-13


def test_functional_convolution_is_associative(all_bialgebras):
    for b in all_bialgebras:
        f, g, k = (random_functional(b, s) for s in (3, 4, 5))
        left = convolve_functionals(b, convolve_functionals(b, f, g), k)
        right = convolve_functionals(b, f, convolve_functionals(b, g, k))
        assert np.max(np.abs(left - right)) < 1e-12


def test_operator_convolution_matches_kron_oracle(c_s3):
    f = random_map(c_s3, 2, 6)
    g = random_map(c_s3, 3, 7)
    got = convolve(f, g)
    expected = convolve_maps(c_s3.coproduct, f.mats, g.mats)
    assert got.dim == 6
    assert np.max(np.abs(got.mats - expected)) < 1e-13


def test_iterates_match_power_oracle(group_s3):
    psi = random_functional(group_s3, 8)
    psi_map = OperatorMap.from_functional(group_s3, psi)
    for m in (0, 1, 2, 3):
        got = convolution_iterates(psi_map, m).mats[:, 0, 0]
        expected = convolution_power(
            group_s3.coproduct, group_s3.counit, psi.reshape(-1, 1, 1), m
        )
        assert np.max(np.abs(got - expected[:, 0, 0])) < 1e-12


def test_iterate_additivity(c_z2, z2_sign_triple, group_z2):
    psi = build_walk(z2_sign_triple, group_z2.counit, 0.2)
    five = convolution_iterates(psi, 5)
    split = convolve(convolution_iterates(psi, 2), convolution_iterates(psi, 3))
    assert five.distance(split) < ITERATE_TOL


def test_grouplike_convolution_is_pointwise(group_s3):
    # Delta b_g = b_g (x) b_g, so functionals convolve coordinatewise
    f = random_functional(group_s3, 9)
    g = random_functional(group_s3, 10)
    got = convolve_functionals(group_s3, f, g)
    assert np.max(np.abs(got - f * g)) < 1e-13


def test_function_algebra_convolution_is_group_convolution(c_z2, z2):
    # on C(G) the coproduct convolves functionals like measures on G
    f = np.array([0.3, -0.7 + 0.2j])
    g = np.array([1.1j, 0.4])
    got = convolve_functionals(c_z2, f, g)
    expected = np.zeros(2, dtype=complex)
    for y in range(2):
        for z in range(2):
            expected[z2.mult(y, z)] += f[y] * g[z]
    assert np.max(np.abs(got - expected)) < 1e-14


def test_convolve_rejects_mismatched_sources(c_z2, group_s3):
    f = random_map(c_z2, 2, 11)
    g = random_map(group_s3, 2, 12)
    with pytest.raises(ValueError):
        convolve(f, g)


def test_dimension_cap(group_z2, monkeypatch):
    # psi^{*13} would hold 2 (2^13)^2 = 2^27 entries, and wide * wide 2 (64^2)^2 = 2^25; both are
    # refused before einsum builds anything
    def unreachable(*args, **kwargs):
        pytest.fail("einsum ran before the entry count was checked")

    psi = random_map(group_z2, 2, 13)
    wide = random_map(group_z2, 64, 16)
    assert group_z2.dim * (wide.dim * wide.dim) ** 2 > MAX_LIFTED_ENTRIES
    monkeypatch.setattr(np, "einsum", unreachable)
    with pytest.raises(DimensionCapExceeded):
        convolution_iterates(psi, 13)
    with pytest.raises(DimensionCapExceeded):
        convolve(wide, wide)


def test_lifted_iterate_bound(group_z2):
    # the lift Psi^{o 12} would hold 2^2 (2^12)^2 = 2^26 entries; both calls refuse before
    # allocating anything
    psi = random_map(group_z2, 2, 13)
    assert group_z2.dim**2 * 2 ** (2 * 12) > MAX_LIFTED_ENTRIES
    with pytest.raises(DimensionCapExceeded):
        composition_iterates(lift(psi), 12)
    with pytest.raises(DimensionCapExceeded):
        check_compatibility(psi, 12)


def test_lift_counit_contract_roundtrip(group_s3):
    psi = random_map(group_s3, 2, 14)
    assert lift(psi).counit_contract().distance(psi) < 1e-13


def test_composition_matches_convolution(group_z2, z2_sign_triple):
    psi = build_walk(z2_sign_triple, group_z2.counit, 0.15)
    for n in (0, 1, 2, 4):
        assert check_compatibility(psi, n) < ITERATE_TOL


def test_composition_matches_convolution_cp(group_s3, s3_cp_triple):
    psi = build_walk(s3_cp_triple, group_s3.counit, 0.1)
    assert check_compatibility(psi, 2) < ITERATE_TOL


def test_functional_transfer_matrix_agreement(c_s3):
    psi = random_functional(c_s3, 15)
    sg = ConvolutionSemigroup(c_s3, psi)
    expected = functional_transfer_matrix(c_s3.coproduct, psi)
    assert np.max(np.abs(sg.transfer - expected)) < 1e-14


def test_functional_semigroup_law(group_s3):
    psi = random_functional(group_s3, 16) * 0.4
    sg = ConvolutionSemigroup(group_s3, psi)
    addit = convolve_functionals(group_s3, sg.at(0.3), sg.at(0.7))
    assert np.max(np.abs(addit - sg.at(1.0))) < 1e-11


def test_grouplike_exponential_closed_form(group_s3):
    # diagonal transfer matrix: exp_*(t psi)(b_g) = exp(t psi(b_g))
    psi = random_functional(group_s3, 17)
    sg = ConvolutionSemigroup(group_s3, psi)
    assert np.max(np.abs(sg.at(0.8) - np.exp(0.8 * psi))) < 1e-12


def test_exponential_derivative_at_zero(c_s3):
    psi = random_functional(c_s3, 18)
    sg = ConvolutionSemigroup(c_s3, psi)
    delta = 1e-5
    central = (sg.at(delta) - sg.at(-delta)) / (2 * delta)
    assert np.max(np.abs(central - psi)) < 1e-8

