import numpy as np
import pytest

from qwalklab.bialgebra import TOLERANCES, build_function_algebra, build_group_algebra, verify_bialgebra
from qwalklab.groups import (
    FiniteGroup,
    cyclic_character_table,
    cyclic_group,
    symmetric_group,
    symmetric_sign_character,
)
from qwalklab.serialize import FormatError


def test_cyclic_group_table():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.table[1, 3] == 0
    assert g.inverse[3] == 1
    assert np.array_equal(g.table, g.table.T)


def test_symmetric_group_s3():
    g = symmetric_group(3)
    assert g.order == 6
    assert not np.array_equal(g.table, g.table.T)
    # closure under composition and correct inverses
    for a in range(6):
        assert g.table[a, g.inverse[a]] == g.identity


def test_symmetric_group_composition_convention():
    # elements are the lexicographic permutations; product acts q first, p second
    from itertools import permutations

    perms = list(permutations(range(3)))
    g = symmetric_group(3)
    for a in range(6):
        for b in range(6):
            composed = tuple(perms[a][perms[b][x]] for x in range(3))
            assert perms[g.table[a, b]] == composed


def test_relabelled_group_finds_identity_and_inverses_anywhere():
    # S3 with element a renamed p[a], so that the identity is index 4, not 0
    s3 = symmetric_group(3)
    p = np.array([4, 2, 5, 0, 3, 1])
    table = np.empty_like(s3.table)
    table[np.ix_(p, p)] = p[s3.table]
    g = FiniteGroup(table=table, labels=tuple(s3.labels[a] for a in np.argsort(p)), name="S3'")
    assert g.identity == 4
    assert np.array_equal(g.inverse[p], p[s3.inverse])
    sign = symmetric_sign_character(3)[np.argsort(p)]
    for b in (build_function_algebra(g), build_group_algebra(g, extra_characters=[sign])):
        assert verify_bialgebra(b)["max_residual"] <= TOLERANCES["axioms"], b.name


def test_non_associative_table_rejected():
    # x o y = -x - y mod 3: a Latin square, so the associativity check is the one that refuses it
    table = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    with pytest.raises(ValueError, match=r"^associativity fails at triple \(0, 0, 1\)$"):
        FiniteGroup(table=table, labels=("a", "b", "c"), name="bad")


def test_non_latin_table_rejected():
    table = np.array([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        FiniteGroup(table=table, labels=("e", "g"), name="bad")


def test_payload_round_trip():
    g = symmetric_group(3)
    payload = {
        "format": "group-v1",
        "order": g.order,
        "mult_table": [int(x) for x in g.table.reshape(-1)],
        "labels": list(g.labels),
        "name": g.name,
    }
    back = FiniteGroup.from_payload(payload)
    assert np.array_equal(back.table, g.table)
    assert back.labels == g.labels


@pytest.mark.parametrize("order, mult_table", [(-1, [0]), (0, [])])
def test_payload_order_below_one_is_a_format_error(order, mult_table):
    with pytest.raises(FormatError, match="'order'"):
        FiniteGroup.from_payload({"order": order, "mult_table": mult_table})


def test_cyclic_characters_orthogonal():
    table = cyclic_character_table(5)
    gram = table @ table.conj().T
    assert np.allclose(gram, 5 * np.eye(5), atol=1e-12)


def test_cyclic_characters_multiplicative():
    g = cyclic_group(5)
    table = cyclic_character_table(5)
    for chi in table:
        for a in range(5):
            for b in range(5):
                assert abs(chi[g.table[a, b]] - chi[a] * chi[b]) < 1e-12


def test_sign_character_multiplicative():
    g = symmetric_group(4)
    sgn = symmetric_sign_character(4)
    for a in range(g.order):
        for b in range(g.order):
            assert sgn[g.table[a, b]] == sgn[a] * sgn[b]
    assert set(np.unique(sgn.real)) == {-1.0, 1.0}
