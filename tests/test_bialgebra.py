import numpy as np
import pytest

from qwalklab import (
    AxiomViolation,
    CounitalBialgebra,
    build_function_algebra,
    build_group_algebra,
    load_bialgebra,
    save_bialgebra,
    verify_bialgebra,
)
from qwalklab.bialgebra import bialgebra_from_payload, bialgebra_to_payload
from qwalklab.groups import cyclic_group, symmetric_group, symmetric_sign_character
from qwalklab.structure_maps import _star_product_tensor

from .oracles import coassoc_residual, counit_residual

AXIOM_TOL = 1e-12


def test_all_builtin_bialgebras_pass(all_bialgebras):
    for b in all_bialgebras:
        report = verify_bialgebra(b)
        assert report.ok(AXIOM_TOL), (b.name, report.first_failure())


@pytest.mark.parametrize(
    "build",
    [
        lambda g: build_group_algebra(g, extra_characters=[symmetric_sign_character(4)]),
        build_function_algebra,
    ],
    ids=["group-s4", "function-s4"],
)
def test_s4_axiom_suite(build):
    # n = 24, the largest symmetric group a config may name
    b = build(symmetric_group(4))
    report = verify_bialgebra(b)
    assert b.dim == 24
    assert report.max_residual <= AXIOM_TOL, report.first_failure()


def _block_sizes(mats):
    """Sizes of the finest block-diagonal split that the zero pattern of the stack shows."""
    size = mats.shape[1]
    cuts = [k for k in range(1, size) if not mats[:, :k, k:].any() and not mats[:, k:, :k].any()]
    return list(np.diff([0, *cuts, size]))


#: bialgebras beyond the conftest ones, up to the largest orders a config may name
LARGE_BIALGEBRAS = {
    "group-s4": lambda: build_group_algebra(symmetric_group(4)),
    "function-s4": lambda: build_function_algebra(symmetric_group(4)),
    "group-z64": lambda: build_group_algebra(cyclic_group(64)),
    "function-z64": lambda: build_function_algebra(cyclic_group(64)),
}


@pytest.mark.parametrize("name", ["c_z2", "c_s3", "group_z2", "group_s3", *LARGE_BIALGEBRAS])
def test_block_rep_holds_each_irreducible_block_once(request, name):
    b = LARGE_BIALGEBRAS[name]() if name in LARGE_BIALGEBRAS else request.getfixturevalue(name)
    rep = b.block_rep
    # the defects of b.homomorphism_defects, one row of products at a time
    # (that method holds all dim^2 products at once, 270 MB at dim 64)
    product = max(np.max(np.abs(rep[i] @ rep - np.tensordot(b.mult[i], rep, axes=1))) for i in range(b.dim))
    star = np.conjugate(np.swapaxes(rep, 1, 2)) - np.einsum("ij,jab->iab", b.invol, rep)
    unit = np.einsum("i,iab->ab", b.unit, rep) - np.eye(rep.shape[1])
    assert max(product, np.max(np.abs(star)), np.max(np.abs(unit))) <= 1e-12
    gram = np.einsum("iab,jab->ij", np.conjugate(rep), rep)
    assert np.linalg.matrix_rank(gram) == b.dim
    sizes = _block_sizes(rep)
    assert sum(d * d for d in sizes) == b.dim
    expected = {"group_s3": [1, 1, 2], "group-s4": [1, 1, 2, 3, 3]}
    if name in expected:
        assert sorted(sizes) == expected[name]
    elif b.is_commutative():
        assert sizes == [1] * b.dim


def test_residuals_match_loop_oracle(all_bialgebras):
    for b in all_bialgebras:
        assert coassoc_residual(b.coproduct) < AXIOM_TOL
        assert counit_residual(b.coproduct, b.counit) < AXIOM_TOL


def test_function_algebra_is_commutative_group_algebra_cocommutative(c_s3, group_s3):
    assert verify_bialgebra(c_s3).commutative
    assert not verify_bialgebra(c_s3).cocommutative
    assert verify_bialgebra(group_s3).cocommutative
    assert not verify_bialgebra(group_s3).commutative


def test_z2_cases_both_commutative_and_cocommutative(c_z2, group_z2):
    for b in (c_z2, group_z2):
        rep = verify_bialgebra(b)
        assert rep.commutative and rep.cocommutative


def test_function_algebra_pointwise_product(c_s3):
    # indicator basis multiplies diagonally
    expected = np.zeros((6, 6, 6))
    for i in range(6):
        expected[i, i, i] = 1.0
    assert np.array_equal(c_s3.mult, expected)


def test_group_algebra_coproduct_grouplike(group_s3):
    for i in range(6):
        expected = np.zeros((6, 6))
        expected[i, i] = 1.0
        assert np.array_equal(group_s3.coproduct[i], expected)


def test_characters_are_multiplicative(all_bialgebras):
    for b in all_bialgebras:
        for chi in b.characters:
            prod = np.einsum("ijk,k->ij", b.mult, chi)
            outer = np.outer(chi, chi)
            assert np.max(np.abs(prod - outer)) < AXIOM_TOL


def test_counit_is_a_character(all_bialgebras):
    for b in all_bialgebras:
        assert any(np.allclose(chi, b.counit, atol=1e-14) for chi in b.characters)


def test_representation_faithful(all_bialgebras):
    for b in all_bialgebras:
        rep = verify_bialgebra(b)
        assert rep.injectivity_sigma_min > 1e-8


def test_corrupted_coproduct_names_coassociativity(group_z2, tmp_path):
    payload = bialgebra_to_payload(group_z2)
    # break Delta(lambda_g) while keeping shapes valid
    payload["coproduct"][1][0][1] = [0.25, 0.0]
    path = tmp_path / "broken.json"
    from qwalklab.serialize import write_json

    write_json(path, payload)
    with pytest.raises(AxiomViolation) as err:
        load_bialgebra(path)
    assert err.value.axiom == "coassociativity"
    assert "coassociativity" in str(err.value)


def test_violation_message_carries_index_and_residual(c_z2):
    payload = bialgebra_to_payload(c_z2)
    bad = bialgebra_from_payload(payload)
    mult = bad.mult.copy()
    mult[0, 0, 1] += 0.5
    broken = CounitalBialgebra(
        name=bad.name,
        labels=bad.labels,
        mult=mult,
        invol=bad.invol,
        unit=bad.unit,
        coproduct=bad.coproduct,
        counit=bad.counit,
        characters=bad.characters,
        rep=bad.rep,
    )
    report = verify_bialgebra(broken)
    assert not report.ok(AXIOM_TOL)
    failure = report.first_failure()
    assert failure is not None
    axiom, index, residual = failure
    assert axiom == "associativity"
    assert residual > 0.1
    violation = AxiomViolation(axiom, index, residual)
    assert "basis index" in str(violation)


def test_save_load_round_trip(group_s3, tmp_path):
    path = tmp_path / "s3.json"
    save_bialgebra(group_s3, path)
    back = load_bialgebra(path)
    assert np.array_equal(back.mult, group_s3.mult)
    assert np.array_equal(back.coproduct, group_s3.coproduct)
    assert np.array_equal(back.characters, group_s3.characters)
    assert back.labels == group_s3.labels


def test_payload_rejects_shape_mismatch(c_z2):
    payload = bialgebra_to_payload(c_z2)
    payload["unit"] = [[1.0, 0.0]] * 3
    from qwalklab.serialize import FormatError

    with pytest.raises(FormatError):
        bialgebra_from_payload(payload)


def test_star_product_matches_direct_computation(group_s3):
    # (b_i)* b_j expanded through invol then mult, one basis pair at a time
    b = group_s3
    tensor = _star_product_tensor(b)
    for i in range(6):
        for j in range(6):
            direct = sum(b.invol[i, k] * b.mult[k, j] for k in range(6))
            assert np.allclose(tensor[i, j], direct, atol=1e-14)


def test_group_algebra_involution_inverse_permutation(s3, group_s3):
    for i in range(s3.order):
        expected = np.zeros(6)
        expected[s3.inv(i)] = 1.0
        assert np.array_equal(group_s3.invol[i], expected)


def test_bialgebras_compare_by_identity():
    # eq=False: == and hash never reach the array fields
    a, b = (build_group_algebra(symmetric_group(3)) for _ in range(2))
    assert a == a and a != b
    assert len({a, b, a}) == 2
