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
any check.  The type holds nothing derived from these tensors: the split
of rep into irreducible blocks is linalg.irreducible_blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup
from .linalg import as_complex_array, dag, readonly
from .serialize import (
    FormatError, decode_complex_array, encode_complex_array, integer, invalid, labels_and_name, only_keys,
)

__all__ = [
    "CounitalBialgebra",
    "verify_bialgebra",
    "build_function_algebra",
    "build_group_algebra",
    "load_bialgebra",
    "bialgebra_from_payload",
    "bialgebra_to_payload",
]

#: the pass bar of every verify check, read where each check runs; a bialgebra file's axioms are checked to "axioms" as it loads
TOLERANCES = {
    "axioms": 1e-12,
    "structure_relation": 1e-12,
    "roundtrip": 1e-10,
    "unitarity": 1e-13,
    "error_identity": 1e-11,
    "vector_state": 1e-12,
    "homomorphism": 1e-12,
    "preunital": 1e-14,
    "choi": 1e-10,
    "compatibility": 1e-11,
    "semigroup": 1e-11,
}

#: the bar a bialgebra file's faithful_rep must clear: the smallest singular
#: value of b_i -> rep[i], as a map from the basis into matrices, lies above it
FAITHFUL_SIGMA_MIN = 1e-8


#: CounitalBialgebra field -> the key of its array in a bialgebra-v1 file
_ARRAY_KEYS = {
    "mult": "structure_constants",
    "invol": "involution",
    "unit": "unit",
    "coproduct": "coproduct",
    "counit": "counit",
    "characters": "characters",
    "rep": "faithful_rep",
}


def _structure_array(key: str, arr, n: int) -> np.ndarray:
    """arr as the read-only complex array of field key of a bialgebra of dimension n; a wrong shape is refused."""
    arr = readonly(np.atleast_2d(arr) if key == "characters" else arr)
    first, last = (arr.shape[0], arr.shape[-1]) if arr.ndim else (0, 0)
    expected = {
        "mult": (n, n, n), "invol": (n, n), "unit": (n,), "coproduct": (n, n, n), "counit": (n,),
        "characters": (first, n), "rep": (n, last, last),
    }[key]
    if arr.shape != expected:
        raise FormatError(f"has shape {arr.shape}, expected {expected}")
    return arr


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
        for key in _ARRAY_KEYS:
            with invalid(repr(key)):
                object.__setattr__(self, key, _structure_array(key, getattr(self, key), len(self.labels)))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def rep_dim(self) -> int:
        return self.rep.shape[1]

    def homomorphism_defects(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Defects of b_i -> mats[i] as a *-homomorphism: products [i, j, a, c] and stars [i, a, b]."""
        products = np.einsum("iab,jbc->ijac", mats, mats, optimize=True)
        images = np.einsum("ijk,kac->ijac", self.mult, mats, optimize=True)
        star = dag(mats) - np.einsum("ij,jab->iab", self.invol, mats)
        return products - images, star


def _worst(arr: np.ndarray) -> tuple[float, list]:
    flat = np.abs(arr).reshape(-1)
    pos = int(np.argmax(flat)) if flat.size else 0
    idx = np.unravel_index(pos, arr.shape) if arr.size else (0,)
    return (float(flat[pos]) if flat.size else 0.0), [int(x) for x in idx]


@np.errstate(over="ignore", invalid="ignore")  # an overflowing residual is inf or NaN and fails its bar
def verify_bialgebra(b: CounitalBialgebra) -> dict:
    """Run every axiom check on all basis tuples: the report entry of the worst residuals.

    residuals maps each axiom to its worst absolute defect, in the order
    the checks run: the algebra axioms, then the coalgebra ones, then their
    compatibility, the characters and rep.  worst_index maps it to where
    the defect occurred (leading index = basis element of the defining
    relation); injectivity_sigma_min is the smallest singular value of
    rep over the basis; (co)commutative is read to TOLERANCES["axioms"].
    """
    m, s, u, c, e = b.mult, b.invol, b.unit, b.coproduct, b.counit
    n = b.dim
    eye = np.eye(n)
    residuals: dict[str, float] = {}
    worst: dict[str, list] = {}

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
        "coassociativity",
        np.einsum("iak,kbc->iabc", c, c, optimize=True) - np.einsum("ijc,jab->iabc", c, c, optimize=True),
    )
    record(
        "counit_law",
        np.einsum("ijk,k->ij", c, e) - eye,
        np.einsum("ijk,j->ik", c, e) - eye,
    )
    record(
        "coproduct_homomorphism",
        np.einsum("ijk,kab->ijab", m, c, optimize=True)
        - np.einsum("ipq,jrs,prt,qsu->ijtu", c, c, m, m, optimize=True),
        np.einsum("ij,jab->iab", s, c)
        - np.einsum("iab,ap,bq->ipq", np.conjugate(c), s, s, optimize=True),
        np.einsum("i,iab->ab", u, c) - np.outer(u, u),
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

    return {
        "residuals": residuals,
        "worst_index": worst,
        "max_residual": max(residuals.values()),
        "injectivity_sigma_min": sigma_min,
        "cocommutative": bool(np.max(np.abs(c - c.transpose(0, 2, 1))) <= TOLERANCES["axioms"]),
        "commutative": bool(np.max(np.abs(m - m.transpose(1, 0, 2))) <= TOLERANCES["axioms"]),
    }


def _group_tensors(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L[g, h, gh] = 1, the diagonal I3[g, g, g] = 1 and the identity's indicator e, as complex arrays.

    C[G] multiplies by L and C(G) comultiplies by it; the other takes I3.
    """
    eye = np.eye(group.order, dtype=complex)
    return eye[group.table], eye[:, :, None] * eye, eye[group.identity]


def build_function_algebra(group: FiniteGroup) -> CounitalBialgebra:
    """Functions on a finite group: basis of point indicators delta_g.

    delta_g delta_h = [g = h] delta_g, delta_g* = delta_g,
    Delta(delta_g) = sum_{st = g} delta_s (x) delta_t, eps = evaluation at
    the identity.  Characters are all point evaluations; the faithful
    representation is by diagonal matrix units.
    """
    n = group.order
    L, I3, e = _group_tensors(group)
    return CounitalBialgebra(
        name=f"C({group.name})",
        labels=tuple(f"d[{lab}]" for lab in group.labels),
        mult=I3,
        invol=np.eye(n, dtype=complex),
        unit=np.ones(n, dtype=complex),
        coproduct=L.transpose(2, 0, 1),
        counit=e,
        characters=np.eye(n, dtype=complex),
        rep=I3,
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
    L, I3, e = _group_tensors(group)
    characters = [np.ones(n, dtype=complex)]
    characters.extend(as_complex_array(chi) for chi in extra_characters)
    return CounitalBialgebra(
        name=f"C[{group.name}]",
        labels=tuple(f"l[{lab}]" for lab in group.labels),
        mult=L,
        invol=np.eye(n, dtype=complex)[group.inverse],
        unit=e,
        coproduct=I3,
        counit=np.ones(n, dtype=complex),
        characters=np.array(characters),
        rep=L.transpose(0, 2, 1),
    )


def bialgebra_to_payload(b: CounitalBialgebra) -> dict:
    arrays = {name: encode_complex_array(getattr(b, key)) for key, name in _ARRAY_KEYS.items()}
    return {"format": "bialgebra-v1", "name": b.name, "dim": b.dim, "labels": list(b.labels), **arrays}


def bialgebra_from_payload(payload: dict) -> CounitalBialgebra:
    if payload.get("format", "bialgebra-v1") != "bialgebra-v1":
        raise FormatError(f"unsupported bialgebra format {payload['format']!r}")
    required = ("format", "dim", *_ARRAY_KEYS.values())
    only_keys(payload, ("name", "labels", *required), required)
    fields = {}
    for key, name in _ARRAY_KEYS.items():
        with invalid(repr(name)):
            fields[key] = decode_complex_array(payload[name])
    with invalid("'dim'"):
        dim = integer(payload["dim"])
    shape = fields["mult"].shape
    if shape[:1] != (dim,):  # before labels_and_name builds anything of length dim
        raise FormatError(f"invalid 'dim': {dim} does not match the structure constants of shape {shape}")
    for key, name in _ARRAY_KEYS.items():
        with invalid(repr(name)):
            fields[key] = _structure_array(key, fields[key], dim)
    labels, name = labels_and_name(payload, dim, "b", "B")
    return CounitalBialgebra(name=name, labels=labels, **fields)


def load_bialgebra(path) -> CounitalBialgebra:
    """Load a bialgebra file and verify every axiom, to TOLERANCES["axioms"], before returning it.

    Raises FormatError for malformed data, for data that is not a counital
    *-bialgebra (naming the first failed axiom in the order
    verify_bialgebra runs them, its basis index and its residual), and for a faithful_rep that is not faithful
    (its smallest singular value at most FAITHFUL_SIGMA_MIN).
    """
    from .serialize import read_json

    b = bialgebra_from_payload(read_json(path))
    report = verify_bialgebra(b)
    for axiom, residual in report["residuals"].items():
        if not residual <= TOLERANCES["axioms"]:  # a NaN residual fails too
            index = report["worst_index"][axiom][0]
            raise FormatError(f"{axiom} violated at basis index {index} (residual {residual:.3e})")
    sigma_min = report["injectivity_sigma_min"]
    if sigma_min <= FAITHFUL_SIGMA_MIN:
        raise FormatError(
            f"invalid 'faithful_rep': not faithful, its smallest singular value over the basis is "
            f"{sigma_min:.3e} <= {FAITHFUL_SIGMA_MIN:g}"
        )
    return b
