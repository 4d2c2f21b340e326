import numpy as np
import pytest

from qwalklab import (
    ConvolutionSemigroup,
    OperatorMap,
    build_walk,
    check_compatibility,
    convolve_functionals,
)
from qwalklab.convolution import MAX_LIFTED_ENTRIES, _check_entries, _compatibility_iterates

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


def test_functional_convolution_is_associative(all_bialgebras):
    for b in all_bialgebras:
        f, g, k = (random_functional(b, s) for s in (3, 4, 5))
        left = convolve_functionals(b, convolve_functionals(b, f, g), k)
        right = convolve_functionals(b, f, convolve_functionals(b, g, k))
        assert np.max(np.abs(left - right)) < 1e-12


def test_iterate_additivity(c_z2, z2_sign_triple, group_z2):
    psi = build_walk(z2_sign_triple, group_z2.counit, 0.2)
    five = _compatibility_iterates(psi, 5)[1]
    split = convolve_maps(group_z2.coproduct, _compatibility_iterates(psi, 2)[1], _compatibility_iterates(psi, 3)[1])
    assert np.max(np.abs(five - split)) < ITERATE_TOL


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
            expected[z2.table[y, z]] += f[y] * g[z]
    assert np.max(np.abs(got - expected)) < 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_both_iterates_match_the_kron_power_oracle(all_bialgebras, k):
    # psi^{*1} = psi on both routes: eps is the convolution unit, and applying it to the lift gives psi back
    for b in all_bialgebras:
        psi = random_map(b, k, 19)
        for n in range(4):
            composed, convolved = _compatibility_iterates(psi, n)
            expected = convolution_power(b.coproduct, b.counit, psi.mats, n)
            scale = max(1.0, np.max(np.abs(expected)))
            assert np.max(np.abs(composed - expected)) < 1e-13 * scale
            assert np.max(np.abs(convolved - expected)) < 1e-13 * scale
            if n == 1:
                assert np.max(np.abs(composed - psi.mats)) < 1e-13
                assert np.array_equal(convolved, psi.mats)


def test_compatibility_convention_on_random_maps(all_bialgebras):
    for b in all_bialgebras:
        for k in (1, 2):
            psi = random_map(b, k, 20 + k)
            for n in range(4):
                assert check_compatibility(psi, n) <= ITERATE_TOL


@pytest.mark.parametrize("depth", [12, 13])
def test_entry_bound_refuses_before_einsum(group_z2, monkeypatch, depth):
    # the lift Psi^{o 12} would hold 2^2 (2^12)^2 = 2^26 entries, Psi^{o 13} 2^28: each is
    # refused before einsum builds anything
    def unreachable(*args, **kwargs):
        pytest.fail("einsum ran before the entry count was checked")

    psi = random_map(group_z2, 2, 13)
    assert group_z2.dim**2 * 2 ** (2 * depth) > MAX_LIFTED_ENTRIES
    monkeypatch.setattr(np, "einsum", unreachable)
    with pytest.raises(ValueError, match=f"4 x 2\\^{2 * depth} complex entries"):
        check_compatibility(psi, depth)


def test_entry_bound_edge():
    # dim(B)^2 K^(2n) = 4 * 2^22 = 2^24 is the largest lift allowed
    _check_entries(4, 2, 11)
    with pytest.raises(ValueError, match="complex entries are more than the fixed bound"):
        _check_entries(4, 2, 12)
    with pytest.raises(ValueError, match="complex entries are more than the fixed bound"):
        _check_entries(1, 2, 10**6)


def test_negative_depth_is_refused(group_z2):
    with pytest.raises(ValueError, match="nonnegative"):
        check_compatibility(random_map(group_z2, 2, 13), -1)


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

