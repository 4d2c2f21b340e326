"""Finite groups as explicit multiplication tables with 0-based indices."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .serialize import FormatError, integer, labels_and_name, only_keys

__all__ = [
    "GroupTableError",
    "FiniteGroup",
    "cyclic_group",
    "symmetric_group",
    "cyclic_character_table",
    "symmetric_sign_character",
]

MAX_ORDER = 64


class GroupTableError(ValueError):
    """Raised when a multiplication table fails a group axiom."""


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its Cayley table.

    table[i, j] is the index of the product g_i g_j.  The constructor
    validates the Latin-square property, associativity (exhaustively),
    a two-sided identity and inverses; orders up to 64 are supported.
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
            raise GroupTableError("multiplication table must be square and nonempty")
        if n > MAX_ORDER:
            raise GroupTableError(f"order {n} exceeds supported maximum {MAX_ORDER}")
        if table.min() < 0 or table.max() >= n:
            raise GroupTableError("table entries must be indices in [0, order)")
        ident = np.arange(n)
        for axis, kind in ((1, "row"), (0, "column")):
            sorted_lines = np.sort(table, axis=axis)
            if not np.array_equal(sorted_lines, np.broadcast_to(ident, (n, n)) if axis == 1 else np.broadcast_to(ident[:, None], (n, n))):
                bad = int(np.argmax([not np.array_equal(np.sort(line), ident) for line in (table if axis == 1 else table.T)]))
                raise GroupTableError(f"{kind} {bad} of the table is not a permutation")
        i, j, k = np.ogrid[:n, :n, :n]
        lhs = table[table[i, j], k]
        rhs = table[i, table[j, k]]
        if not np.array_equal(lhs, rhs):
            i0, j0, k0 = np.argwhere(lhs != rhs)[0]
            raise GroupTableError(f"associativity fails at triple ({i0}, {j0}, {k0})")
        e_candidates = [e for e in range(n) if np.array_equal(table[e], ident) and np.array_equal(table[:, e], ident)]
        if not e_candidates:
            raise GroupTableError("no two-sided identity element")
        e = e_candidates[0]
        inverse = np.empty(n, dtype=np.int64)
        for g in range(n):
            inv = np.nonzero(table[g] == e)[0]
            if inv.size != 1 or table[inv[0], g] != e:
                raise GroupTableError(f"element {g} has no two-sided inverse")
            inverse[g] = inv[0]
        if len(self.labels) != n:
            raise GroupTableError("label count does not match order")
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
        """The group a group-v1 payload describes: JSON integers, an order >= 1, optional string labels and name."""
        try:
            only_keys(payload, ("format", "order", "mult_table", "labels", "name"))
            order = integer(payload["order"])
            if order < 1:
                raise FormatError(f"invalid 'order': expected an integer >= 1, got {order}")
            flat = [integer(x) for x in payload["mult_table"]]
            if len(flat) != order * order:
                raise FormatError(f"mult_table length {len(flat)} != order^2 = {order * order}")
            labels, name = labels_and_name(payload, order, "g", "G")
        except (KeyError, TypeError, FormatError) as exc:
            raise GroupTableError(f"malformed group payload: {exc}") from exc
        return cls(table=np.asarray(flat, dtype=np.int64).reshape(order, order), labels=labels, name=name)


def cyclic_group(n: int) -> FiniteGroup:
    """Cyclic group of order n, element i representing the i-th power of the generator."""
    if not 1 <= n <= MAX_ORDER:
        raise GroupTableError(f"order {n} outside the supported range 1..{MAX_ORDER}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    labels = tuple("e" if i == 0 else f"g{i}" for i in range(n))
    return FiniteGroup(table=table, labels=labels, name=f"Z{n}")


def _perm_compose(p, q):
    # (p o q)(x) = p(q(x))
    return tuple(p[q[x]] for x in range(len(p)))


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
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    table = np.empty((order, order), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[_perm_compose(p, q)]
    labels = tuple(_perm_label(p) for p in perms)
    return FiniteGroup(table=table, labels=labels, name=f"S{n}")


def cyclic_character_table(n: int) -> np.ndarray:
    """All n one-dimensional characters of Z_n; row k is chi_k(g^j) = exp(2 pi i jk / n)."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n)


def _perm_sign(p) -> int:
    sign = 1
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def symmetric_sign_character(n: int) -> np.ndarray:
    """Parity character of S_n, ordered like symmetric_group(n)."""
    perms = itertools.permutations(range(n))
    return np.array([_perm_sign(p) for p in perms], dtype=complex)
