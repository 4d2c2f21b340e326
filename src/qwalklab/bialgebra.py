"""Finite-dimensional counital C*-bialgebras as explicit structure tensors.

A bialgebra here is a basis b_0, ..., b_{n-1} together with

    mult[i, j, k]      : b_i b_j = sum_k mult[i, j, k] b_k
    invol[i, j]        : (b_i)* = sum_j invol[i, j] b_j
    unit[i]            : 1 = sum_i unit[i] b_i
    coproduct[i, j, k] : Delta(b_i) = sum_{j,k} coproduct[i, j, k] b_j (x) b_k
    counit[i]          : eps(b_i)
    characters[c, i]   : multiplicative unital *-functionals, one per row
    rep[i]             : a faithful unital *-representation by m x m matrices

No structure is inferred: every axiom is checked exhaustively on basis
tuples by verify_bialgebra, and the file loader refuses data that fails
any check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .groups import FiniteGroup
from .linalg import as_complex_array, dag, readonly, standard_normal
from .serialize import FormatError, decode_complex_array, encode_complex_array

__all__ = [
    "AxiomViolation",
    "CounitalBialgebra",
    "BialgebraReport",
    "verify_bialgebra",
    "build_function_algebra",
    "build_group_algebra",
    "load_bialgebra",
    "save_bialgebra",
    "bialgebra_from_payload",
    "bialgebra_to_payload",
]

#: order in which axioms are reported and in which the loader names failures
# algebra axioms first, then the coalgebra ones, then their compatibility
AXIOM_ORDER = (
    "associativity",
    "unit",
    "involution",
    "coassociativity",
    "counit_law",
    "coproduct_homomorphism",
    "characters",
    "representation",
)

#: relative tolerance that separates eigenvalues, singular values and
#: characters when rep is split into irreducible blocks
_SPLIT_RTOL = 1e-8


class AxiomViolation(ValueError):
    """A bialgebra axiom failed; carries the axiom name and worst basis index."""

    def __init__(self, axiom: str, index, residual: float):
        self.axiom = axiom
        self.index = tuple(int(x) for x in np.atleast_1d(index))
        self.residual = float(residual)
        super().__init__(
            f"{axiom} violated at basis index {self.index[0]} "
            f"(residual {self.residual:.3e})"
        )


@dataclass(frozen=True, eq=False)
class CounitalBialgebra:
    name: str
    labels: tuple[str, ...]
    mult: np.ndarray
    invol: np.ndarray
    unit: np.ndarray
    coproduct: np.ndarray
    counit: np.ndarray
    characters: np.ndarray
    rep: np.ndarray

    def __post_init__(self):
        n = len(self.labels)
        arrays = {
            "mult": (self.mult, (n, n, n)),
            "invol": (self.invol, (n, n)),
            "unit": (self.unit, (n,)),
            "coproduct": (self.coproduct, (n, n, n)),
            "counit": (self.counit, (n,)),
        }
        for key, (arr, shape) in arrays.items():
            arr = readonly(arr)
            if arr.shape != shape:
                raise FormatError(f"{key} has shape {arr.shape}, expected {shape}")
            object.__setattr__(self, key, arr)
        chars = readonly(np.atleast_2d(self.characters))
        if chars.shape[1] != n:
            raise FormatError(f"characters have length {chars.shape[1]}, expected {n}")
        object.__setattr__(self, "characters", chars)
        rep = readonly(self.rep)
        if rep.ndim != 3 or rep.shape[0] != n or rep.shape[1] != rep.shape[2]:
            raise FormatError(f"rep has shape {rep.shape}, expected ({n}, m, m)")
        object.__setattr__(self, "rep", rep)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def rep_dim(self) -> int:
        return self.rep.shape[1]

    @cached_property
    def block_rep(self) -> np.ndarray:
        """rep compressed to its irreducible blocks, each taken once, block-diagonal.

        b_i -> block_rep[i] is a faithful unital *-representation of the
        same C*-algebra as rep, of size sum_j d_j with sum_j d_j^2 = dim;
        computed on first use and kept.
        """
        return _irreducible_blocks(self.rep)

    def basis_coeffs(self, i: int) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        out[i] = 1.0
        return out

    def homomorphism_defects(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Defects of b_i -> mats[i] as a *-homomorphism: products [i, j, a, c] and stars [i, a, b]."""
        products = np.einsum("iab,jbc->ijac", mats, mats, optimize=True)
        images = np.einsum("ijk,kac->ijac", self.mult, mats, optimize=True)
        star = dag(mats) - np.einsum("ij,jab->iab", self.invol, mats)
        return products - images, star

    def is_cocommutative(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.coproduct - self.coproduct.transpose(0, 2, 1))) <= tol)

    def is_commutative(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.mult - self.mult.transpose(1, 0, 2))) <= tol)


def _irreducible_blocks(rep: np.ndarray) -> np.ndarray:
    """One copy of each irreducible subrepresentation of rep, block-diagonal.

    A generic Hermitian a = sum_i c_i rep_i + h.c. has, in every
    irreducible block, simple eigenvalues that no other block shares, so
    an eigenvector v of each eigenvalue cluster lies in one irreducible
    subspace, the cyclic span{rep_i v}.  The coefficients c are complex:
    with real ones C[Z_n] has tied eigenvalues at k and -k.  They are
    seeded standard normals from the stdlib generator (random.Random
    through linalg.standard_normal), so that numpy's random module, about
    6 MB of resident memory and 19 ms of import, stays out of every run.
    Equivalent blocks have equal characters, and only the first of each
    is kept.
    """
    z = standard_normal(0, (2, rep.shape[0]))
    a = np.einsum("i,iab->ab", z[0] + 1j * z[1], rep)
    evals, evecs = np.linalg.eigh(a + dag(a))
    scale = max(1.0, float(np.max(np.abs(evals))))
    bases, chars = [], []
    for k in np.flatnonzero(np.diff(evals, prepend=-np.inf) > _SPLIT_RTOL * scale):
        u, s, _ = np.linalg.svd(np.einsum("iab,b->ai", rep, evecs[:, k]), full_matrices=False)
        q = u[:, s > _SPLIT_RTOL * s[0]]
        char = np.einsum("ak,iab,bk->i", np.conjugate(q), rep, q)
        if all(np.max(np.abs(char - c)) > _SPLIT_RTOL * max(1.0, np.max(np.abs(c))) for c in chars):
            bases.append(q)
            chars.append(char)
    q = np.concatenate(bases, axis=1)
    blocks = np.einsum("ak,iab,bl->ikl", np.conjugate(q), rep, q, optimize=True)
    owner = np.repeat(np.arange(len(bases)), [basis.shape[1] for basis in bases])
    return readonly(blocks * (owner[:, None] == owner[None, :]))


@dataclass(frozen=True)
class BialgebraReport:
    """Residuals from the exhaustive axiom suite.

    residuals maps axiom name to the worst absolute defect; worst_index
    records where it occurred (leading index = basis element of the
    defining relation).
    """

    residuals: dict[str, float]
    worst_index: dict[str, tuple]
    injectivity_sigma_min: float
    cocommutative: bool
    commutative: bool
    tol: float = field(default=1e-12)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def ok(self, tol: float | None = None) -> bool:
        tol = self.tol if tol is None else tol
        return self.max_residual <= tol and self.injectivity_sigma_min > 1e-8

    def first_failure(self, tol: float | None = None):
        tol = self.tol if tol is None else tol
        for axiom in AXIOM_ORDER:
            if self.residuals[axiom] > tol:
                return axiom, self.worst_index[axiom], self.residuals[axiom]
        return None

    def as_dict(self) -> dict:
        return {
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "worst_index": {k: list(v) for k, v in self.worst_index.items()},
            "max_residual": float(self.max_residual),
            "injectivity_sigma_min": float(self.injectivity_sigma_min),
            "cocommutative": self.cocommutative,
            "commutative": self.commutative,
        }


def _worst(arr: np.ndarray) -> tuple[float, tuple]:
    flat = np.abs(arr).reshape(-1)
    pos = int(np.argmax(flat)) if flat.size else 0
    idx = np.unravel_index(pos, arr.shape) if arr.size else (0,)
    return (float(flat[pos]) if flat.size else 0.0), tuple(int(x) for x in idx)


def verify_bialgebra(b: CounitalBialgebra, tol: float = 1e-12) -> BialgebraReport:
    """Run every axiom check on all basis tuples and report worst residuals."""
    m, s, u, c, e = b.mult, b.invol, b.unit, b.coproduct, b.counit
    n = b.dim
    eye = np.eye(n)
    residuals: dict[str, float] = {}
    worst: dict[str, tuple] = {}

    def record(axiom: str, *arrays: np.ndarray):
        pairs = [_worst(a) for a in arrays]
        r, idx = max(pairs, key=lambda p: p[0])
        residuals[axiom] = r
        worst[axiom] = idx

    record(
        "associativity",
        np.einsum("ijk,klr->ijlr", m, m, optimize=True) - np.einsum("jlk,ikr->ijlr", m, m, optimize=True),
    )
    record(
        "unit",
        np.einsum("i,ijk->jk", u, m) - eye,
        np.einsum("j,ijk->ik", u, m) - eye,
    )
    record(
        "involution",
        np.conjugate(s) @ s - eye,
        np.einsum("ijk,kr->ijr", np.conjugate(m), s)
        - np.einsum("jk,il,klr->ijr", s, s, m, optimize=True),
    )
    record(
        "coproduct_homomorphism",
        np.einsum("ijk,kab->ijab", m, c, optimize=True)
        - np.einsum("ipq,jrs,prt,qsu->ijtu", c, c, m, m, optimize=True),
        np.einsum("ij,jab->iab", s, c)
        - np.einsum("iab,ap,bq->ipq", np.conjugate(c), s, s, optimize=True),
        np.einsum("i,iab->ab", u, c) - np.outer(u, u),
    )
    record(
        "coassociativity",
        np.einsum("iak,kbc->iabc", c, c, optimize=True) - np.einsum("ijc,jab->iabc", c, c, optimize=True),
    )
    record(
        "counit_law",
        np.einsum("ijk,k->ij", c, e) - eye,
        np.einsum("ijk,j->ik", c, e) - eye,
    )
    char_arrays = []
    for chi in b.characters:
        char_arrays.append(np.einsum("ijk,k->ij", m, chi) - np.outer(chi, chi))
        char_arrays.append(np.atleast_1d(np.dot(u, chi) - 1.0))
        char_arrays.append(np.einsum("ij,j->i", s, chi) - np.conjugate(chi))
    record("characters", *char_arrays)
    rho = b.rep
    record(
        "representation",
        *b.homomorphism_defects(rho),
        np.einsum("i,iab->ab", u, rho) - np.eye(b.rep_dim),
    )

    flat = rho.reshape(n, -1)
    sigma = np.linalg.svd(flat, compute_uv=False)
    sigma_min = float(sigma[-1]) if len(sigma) == n else 0.0

    return BialgebraReport(
        residuals=residuals,
        worst_index=worst,
        injectivity_sigma_min=sigma_min,
        cocommutative=b.is_cocommutative(tol),
        commutative=b.is_commutative(tol),
        tol=tol,
    )


def build_function_algebra(group: FiniteGroup) -> CounitalBialgebra:
    """Functions on a finite group: basis of point indicators delta_g.

    delta_g delta_h = [g = h] delta_g, delta_g* = delta_g,
    Delta(delta_g) = sum_{st = g} delta_s (x) delta_t, eps = evaluation at
    the identity.  Characters are all point evaluations; the faithful
    representation is by diagonal matrix units.
    """
    n = group.order
    mult = np.zeros((n, n, n), dtype=complex)
    idx = np.arange(n)
    mult[idx, idx, idx] = 1.0
    coproduct = np.zeros((n, n, n), dtype=complex)
    st = group.table
    for s_i in range(n):
        for t_i in range(n):
            coproduct[st[s_i, t_i], s_i, t_i] = 1.0
    counit = np.zeros(n, dtype=complex)
    counit[group.identity] = 1.0
    rep = np.zeros((n, n, n), dtype=complex)
    rep[idx, idx, idx] = 1.0
    return CounitalBialgebra(
        name=f"C({group.name})",
        labels=tuple(f"d[{lab}]" for lab in group.labels),
        mult=mult,
        invol=np.eye(n, dtype=complex),
        unit=np.ones(n, dtype=complex),
        coproduct=coproduct,
        counit=counit,
        characters=np.eye(n, dtype=complex),
        rep=rep,
    )


def build_group_algebra(group: FiniteGroup, extra_characters=()) -> CounitalBialgebra:
    """Group algebra: basis lambda_g with lambda_g lambda_h = lambda_{gh}.

    lambda_g* = lambda_{g^{-1}}, every basis element is grouplike
    (Delta(lambda_g) = lambda_g (x) lambda_g), eps = 1 on the basis.  The
    counit is always stored as a character; further one-dimensional
    representations of the group may be passed in (they are not searched
    for).  The faithful representation is the left regular one.
    """
    n = group.order
    mult = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        for h in range(n):
            mult[g, h, group.table[g, h]] = 1.0
    invol = np.zeros((n, n), dtype=complex)
    invol[np.arange(n), group.inverse] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[group.identity] = 1.0
    coproduct = np.zeros((n, n, n), dtype=complex)
    coproduct[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    rep = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        rep[g, group.table[g, :], np.arange(n)] = 1.0
    characters = [np.ones(n, dtype=complex)]
    characters.extend(as_complex_array(chi) for chi in extra_characters)
    return CounitalBialgebra(
        name=f"C[{group.name}]",
        labels=tuple(f"l[{lab}]" for lab in group.labels),
        mult=mult,
        invol=invol,
        unit=unit,
        coproduct=coproduct,
        counit=np.ones(n, dtype=complex),
        characters=np.array(characters),
        rep=rep,
    )


def bialgebra_to_payload(b: CounitalBialgebra) -> dict:
    return {
        "format": "bialgebra-v1",
        "name": b.name,
        "dim": b.dim,
        "labels": list(b.labels),
        "structure_constants": encode_complex_array(b.mult),
        "involution": encode_complex_array(b.invol),
        "unit": encode_complex_array(b.unit),
        "coproduct": encode_complex_array(b.coproduct),
        "counit": encode_complex_array(b.counit),
        "characters": encode_complex_array(b.characters),
        "faithful_rep": encode_complex_array(b.rep),
    }


def bialgebra_from_payload(payload: dict) -> CounitalBialgebra:
    if payload.get("format") != "bialgebra-v1":
        raise FormatError(f"unsupported bialgebra format {payload.get('format')!r}")
    try:
        dim = payload["dim"]
        fields = {
            key: decode_complex_array(payload[name])
            for key, name in (
                ("mult", "structure_constants"),
                ("invol", "involution"),
                ("unit", "unit"),
                ("coproduct", "coproduct"),
                ("counit", "counit"),
                ("characters", "characters"),
                ("rep", "faithful_rep"),
            )
        }
    except KeyError as exc:
        raise FormatError(f"missing bialgebra field {exc.args[0]!r}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise FormatError(f"invalid 'dim': expected an integer, got {dim!r}")
    labels = payload.get("labels") or [f"b{i}" for i in range(dim)]
    if not isinstance(labels, list):
        raise FormatError(f"invalid 'labels': expected a list of {dim} names, got {labels!r}")
    if len(labels) != dim:
        raise FormatError(f"label count {len(labels)} != dim {dim}")
    return CounitalBialgebra(name=str(payload.get("name", "B")), labels=tuple(labels), **fields)


def load_bialgebra(path, tol: float = 1e-12) -> CounitalBialgebra:
    """Load a bialgebra file and verify every axiom before returning it.

    Raises FormatError for malformed data and AxiomViolation (naming the
    first failed axiom and its basis index) for well-formed data that is
    not a counital *-bialgebra.
    """
    from .serialize import read_json

    b = bialgebra_from_payload(read_json(path))
    report = verify_bialgebra(b, tol=tol)
    failure = report.first_failure(tol)
    if failure is not None:
        raise AxiomViolation(*failure)
    if report.injectivity_sigma_min <= 1e-8:
        raise AxiomViolation("representation", (0,), 1.0)
    return b


def save_bialgebra(b: CounitalBialgebra, path) -> None:
    from .serialize import write_json

    write_json(path, bialgebra_to_payload(b))
