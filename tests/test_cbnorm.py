import numpy as np
import pytest

import qwalklab.cbnorm as cbnorm
from qwalklab import (
    OperatorMap,
    amplified_norm,
    build_group_algebra,
    build_walk,
    run_sweep,
    structure_map_from_pair,
    symmetric_group,
)
from qwalklab.cbnorm import AmplifiedMap
from qwalklab.groups import symmetric_sign_character
from qwalklab.structure_maps import gap_map

from .oracles import apply_amplified, dual_basis, hs_expectation, sampled_lower_bound, serial_amplified_norm


def random_map(rng, b, k=2):
    return OperatorMap(b, rng.standard_normal((b.dim, k, k)) + 1j * rng.standard_normal((b.dim, k, k)))


def test_dual_basis_pairs_to_identity(all_bialgebras):
    for b in all_bialgebras:
        amap = AmplifiedMap(OperatorMap(b, b.rep))
        flat = b.block_rep.reshape(b.dim, -1)
        assert np.max(np.abs(flat @ amap.pairing - np.eye(b.dim))) < 1e-10
        assert np.array_equal(amap.dual, np.conjugate(amap.pairing.T))


def test_expectation_fixes_the_subalgebra(group_s3):
    rep = group_s3.block_rep
    rng = np.random.default_rng(7)
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = np.kron(rep[3], c)
    assert np.max(np.abs(hs_expectation(rep, x) - x)) < 1e-12


def test_expectation_is_idempotent(c_s3):
    rep = c_s3.block_rep
    rng = np.random.default_rng(11)
    n = 2 * rep.shape[1]
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ex = hs_expectation(rep, x)
    assert np.max(np.abs(hs_expectation(rep, ex) - ex)) < 1e-11


@pytest.mark.parametrize("extra", [0, 2])
def test_matmul_contraction_matches_two_einsum_reference(all_bialgebras, extra):
    rng = np.random.default_rng(13)
    for b in all_bialgebras:
        theta = random_map(rng, b)
        amap = AmplifiedMap(theta, theta.dim + extra)
        n, out = amap.rep_dim * amap.amp, theta.dim * amap.amp
        x = rng.standard_normal((3, 4, n, n)) + 1j * rng.standard_normal((3, 4, n, n))
        want = apply_amplified(theta.mats, dual_basis(b.block_rep), x)
        assert np.max(np.abs(amap.apply(x) - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(amap.apply(x[1, 2]) - want[1, 2])) <= 1e-12 * np.max(np.abs(want))
        u = rng.standard_normal((3, 4, out)) + 1j * rng.standard_normal((3, 4, out))
        v = rng.standard_normal((3, 4, out)) + 1j * rng.standard_normal((3, 4, out))
        lhs = np.einsum("...a,...ab,...b->...", np.conjugate(u), amap.apply(x), v)
        rhs = np.einsum("...ab,...ab->...", np.conjugate(amap.functional_matrix(u, v)), x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_frame_is_reused_only_under_the_same_key(monkeypatch, group_s3, c_s3, group_z2):
    # each call changes the bialgebra or amp against the call before; the
    # copy of C[S3] equals group_s3 field by field but is a new object
    copy = build_group_algebra(symmetric_group(3), extra_characters=[symmetric_sign_character(3)])
    rng = np.random.default_rng(17)
    thetas = {id(b): random_map(rng, b) for b in (group_s3, c_s3, group_z2, copy)}
    order = [(group_s3, 2), (group_s3, 4), (c_s3, 4), (c_s3, 2), (group_z2, 2), (group_z2, 4), (group_s3, 4), (copy, 4), (copy, 2)]
    got = [amplified_norm(thetas[id(b)], amp) for b, amp in order]
    for (b, amp), value in zip(order, got):
        monkeypatch.setattr(cbnorm, "_last_frame", None)
        assert value == amplified_norm(thetas[id(b)], amp)
    for arr in cbnorm._last_frame[2:]:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0


def test_ascent_rounds_of_a_demo_sweep(monkeypatch, s3_demo_config):
    # one AmplifiedMap.apply per ascent round, summed over the 6 rows; the
    # contraction's rounding must not move the round at which a start stalls
    calls = 0
    apply = AmplifiedMap.apply

    def counted(self, x):
        nonlocal calls
        calls += 1
        return apply(self, x)

    monkeypatch.setattr(AmplifiedMap, "apply", counted)
    run_sweep(s3_demo_config)
    assert calls == 38


def test_unital_homomorphism_has_norm_one(all_bialgebras):
    for b in all_bialgebras:
        norm = amplified_norm(OperatorMap(b, b.rep))
        assert abs(norm - 1.0) < 1e-9


def test_character_times_fixed_matrix(group_z2):
    x0 = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    chi = group_z2.characters[1]
    theta = OperatorMap(group_z2, chi[:, None, None] * x0[None, :, :])
    expected = np.linalg.norm(x0, 2)
    assert abs(amplified_norm(theta) - expected) < 1e-9


def test_compression_of_representation(group_s3):
    # theta = S* rho(.) S is completely positive, so the amplified norm
    # is attained at the unit: ||theta|| = ||S* S||
    rng = np.random.default_rng(3)
    s = rng.standard_normal((group_s3.rep_dim, 2)) + 1j * rng.standard_normal(
        (group_s3.rep_dim, 2)
    )
    mats = np.einsum("ab,ibc,cd->iad", s.conj().T, group_s3.rep, s)
    theta = OperatorMap(group_s3, mats)
    expected = np.linalg.norm(s.conj().T @ s, 2)
    assert abs(amplified_norm(theta) - expected) < 1e-8 * expected


def test_zero_map_has_zero_norm(c_z2):
    theta = OperatorMap(c_z2, np.zeros((2, 1, 1), dtype=complex))
    assert amplified_norm(theta) == 0.0


def test_scaling_homogeneity(c_z2, c_z2_eval_triple):
    phi = structure_map_from_pair(c_z2_eval_triple, c_z2.counit)
    one = amplified_norm(phi)
    three = amplified_norm(3.0 * phi)
    assert abs(three - 3.0 * one) < 1e-8 * max(one, 1.0)


def test_sampled_bound_never_exceeds_surrogate(group_s3, s3_regular_triple):
    phi = structure_map_from_pair(s3_regular_triple, group_s3.counit)
    surrogate = amplified_norm(phi)
    sampled = sampled_lower_bound(phi.mats, group_s3.rep, n_samples=800)
    assert 0.0 < sampled <= surrogate * (1.0 + 1e-9)


def test_amplification_beyond_target_dim_adds_nothing(c_z2, c_z2_eval_triple):
    phi = structure_map_from_pair(c_z2_eval_triple, c_z2.counit)
    base = amplified_norm(phi)
    more = amplified_norm(phi, amp=phi.dim + 2)
    assert more <= base * (1.0 + 1e-9)
    assert more >= base * (1.0 - 1e-9)


@pytest.mark.parametrize("triple_name", ["z2_sign_triple", "c_z2_eval_triple", "s3_regular_triple", "s3_cp_triple"])
def test_batched_ascent_on_blocks_matches_serial_oracle(request, triple_name):
    # the oracle climbs from one start at a time on the representation as given
    triple = request.getfixturevalue(triple_name)
    chi = triple.source.counit
    phi = structure_map_from_pair(triple, chi)
    for k in range(2, 7):
        h = 2.0**-k
        theta = gap_map(phi, build_walk(triple, chi, h), chi, h)
        expected = serial_amplified_norm(theta.mats, triple.source.rep)
        assert abs(amplified_norm(theta) - expected) <= 1e-12 * expected


def test_batched_ascent_matches_serial_oracle_on_random_maps(all_bialgebras):
    # unlike the gap maps, these have ascent starts that stall below the maximum
    rng = np.random.default_rng(5)
    for b in all_bialgebras:
        for k in (2, 3):
            theta = random_map(rng, b, k)
            expected = serial_amplified_norm(theta.mats, b.rep)
            assert abs(amplified_norm(theta) - expected) <= 1e-10 * expected
