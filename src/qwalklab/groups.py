"""Finite groups as explicit multiplication tables with 0-based indices."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .serialize import FormatError, integer, invalid, labels_and_name, only_keys

__all__ = [
    "FiniteGroup",
    "cyclic_group",
    "symmetric_group",
    "cyclic_character_table",
    "symmetric_sign_character",
]

MAX_ORDER = 64


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its Cayley table.

    table[i, j] is the index of the product g_i g_j.  The constructor
    validates the Latin-square property and associativity (exhaustively),
    which make it a group, and finds the identity and the inverses; orders
    up to 64 are supported.
    """

    table: np.ndarray
    labels: tuple[str, ...]
    name: str = "G"
    identity: int = field(init=False)
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int64)
        n = table.shape[0] if table.ndim == 2 else 0
        if table.ndim != 2 or table.shape != (n, n) or n == 0:
            raise ValueError("multiplication table must be square and nonempty")
        if n > MAX_ORDER:
            raise ValueError(f"order {n} exceeds supported maximum {MAX_ORDER}")
        if table.min() < 0 or table.max() >= n:
            raise ValueError("table entries must be indices in [0, order)")
        ident = np.arange(n)
        for kind, lines in (("row", table), ("column", table.T)):
            bad = (np.sort(lines, axis=1) != ident).any(axis=1)
            if bad.any():
                raise ValueError(f"{kind} {int(np.argmax(bad))} of the table is not a permutation")
        i, j, k = np.ogrid[:n, :n, :n]
        lhs = table[table[i, j], k]
        rhs = table[i, table[j, k]]
        if not np.array_equal(lhs, rhs):
            i0, j0, k0 = np.argwhere(lhs != rhs)[0]
            raise ValueError(f"associativity fails at triple ({i0}, {j0}, {k0})")
        # a nonempty associative Latin square is a group: its one idempotent is
        # the identity, and every row holds the identity once
        e = int(np.argmax(np.diagonal(table) == ident))
        inverse = np.argmax(table == e, axis=1)
        if len(self.labels) != n:
            raise ValueError("label count does not match order")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", e)
        object.__setattr__(self, "inverse", inverse)
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @classmethod
    def from_payload(cls, payload: dict) -> "FiniteGroup":
        """The group a group-v1 payload describes: JSON integers, an order >= 1, optional string labels and name.

        An optional 'format' must be "group-v1".
        """
        only_keys(payload, ("format", "order", "mult_table", "labels", "name"), ("order", "mult_table"))
        if payload.get("format", "group-v1") != "group-v1":
            raise FormatError(f"unsupported group format {payload['format']!r}")
        with invalid("'order'"):
            order = integer(payload["order"])
            if order < 1:
                raise FormatError(f"expected an integer >= 1, got {order}")
        with invalid("'mult_table'"):
            flat = [integer(x) for x in payload["mult_table"]]
            if len(flat) != order * order:
                raise FormatError(f"length {len(flat)} != order^2 = {order * order}")
        labels, name = labels_and_name(payload, order, "g", "G")
        return cls(table=np.asarray(flat, dtype=np.int64).reshape(order, order), labels=labels, name=name)


def cyclic_group(n: int) -> FiniteGroup:
    """Cyclic group of order n, element i representing the i-th power of the generator."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order {n} outside the supported range 1..{MAX_ORDER}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    labels = tuple("e" if i == 0 else f"g{i}" for i in range(n))
    return FiniteGroup(table=table, labels=labels, name=f"Z{n}")


def _permutations(n: int) -> np.ndarray:
    """The permutations of {0, ..., n-1} in lexicographic order, one per row."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _perm_label(p) -> str:
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "e"


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group S_n on {0, ..., n-1} in lexicographic permutation order."""
    perms = _permutations(n)
    if len(perms) > MAX_ORDER:  # before perms[:, perms], which holds n (n!)^2 entries
        raise ValueError(f"order {len(perms)} exceeds supported maximum {MAX_ORDER}")
    # (p o q)(x) = p(q(x)); lexicographic order is the order of the base-n keys p @ place
    place = n ** np.arange(n - 1, -1, -1)
    table = np.searchsorted(perms @ place, perms[:, perms] @ place)
    labels = tuple(_perm_label(p) for p in perms.tolist())
    return FiniteGroup(table=table, labels=labels, name=f"S{n}")


def cyclic_character_table(n: int) -> np.ndarray:
    """All n one-dimensional characters of Z_n; row k is chi_k(g^j) = exp(2 pi i jk / n)."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n)


def symmetric_sign_character(n: int) -> np.ndarray:
    """Parity character of S_n, ordered like symmetric_group(n): -1 to the number of inversions."""
    perms = _permutations(n)
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    return (1 - 2 * (inversions % 2)).astype(complex)
