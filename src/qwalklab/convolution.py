"""Convolution of functionals and operator-valued maps over the coproduct.

Two maps f, g convolve to (f * g)(b_i) = sum_{jk} Delta_i^{jk} f(b_j)
(x) g(b_k); matrix values combine by Kronecker product, so iterated
convolution targets grow geometrically, and an array of more than
MAX_LIFTED_ENTRIES complex entries is refused before it is built.  The
n-fold convolution of a walk step is the n-step walk; its lifted form
(coefficients in B tensor operators) composes by (Psi_{n-1} (x) id) o
Psi, and applying the counit to the lift recovers the convolution
iterate.

That last identity, (eps (x) id) o Psi^{o n} = psi^{* n}, holds for any
tensors Delta and eps, with no bialgebra axiom behind it: contracting
eps early turns the composition into the same recursion as
convolution_iterates.  check_compatibility therefore compares two
evaluation orders; a pass confirms the index conventions of the two
routes, and coassociativity itself is checked by verify_bialgebra.  The
lifted iterate holds dim(B)^2 K^(2n) complex entries, the convolution
iterate dim(B) K^(2n).

Convolution exponentials exp_*(t psi) of a functional psi are computed
by materializing the one-sided convolution operator T_psi = (id (x)
psi) o Delta on the coefficient space once and applying the [13/13] Pade
scaling-and-squaring matrix exponential of linalg.expm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bialgebra import CounitalBialgebra
from .linalg import as_complex_array, expm, readonly
from .structure_maps import OperatorMap

__all__ = [
    "DimensionCapExceeded",
    "MAX_LIFTED_ENTRIES",
    "convolve",
    "convolve_functionals",
    "transfer_matrix",
    "convolution_iterates",
    "LiftedMap",
    "lift",
    "composition_iterates",
    "check_compatibility",
    "ConvolutionSemigroup",
]

#: complex entries any array built here may hold (2**24, 268 MB)
MAX_LIFTED_ENTRIES = 2**24


class DimensionCapExceeded(RuntimeError):
    """An array would hold more than MAX_LIFTED_ENTRIES complex entries."""


def _check_entries(rows: int, k: int, n: int = 1):
    """Refuse an array of rows x k^n x k^n complex entries past MAX_LIFTED_ENTRIES.

    Past n = 12 any k > 1 exceeds the bound, so the power is taken at n <= 13 only.
    """
    if rows * k ** (2 * min(n, 13)) > MAX_LIFTED_ENTRIES:
        raise DimensionCapExceeded(
            f"{rows} x {k}^{2 * n} complex entries are more than the fixed bound of {MAX_LIFTED_ENTRIES}"
        )


def convolve(f: OperatorMap, g: OperatorMap) -> OperatorMap:
    """(f * g)(b_i) = sum_{jk} Delta_i^{jk} f(b_j) (x) g(b_k)."""
    b = f.source
    if g.source is not b and g.source.dim != b.dim:
        raise ValueError("convolution factors live on different bialgebras")
    k = f.dim * g.dim
    _check_entries(b.dim, k)
    out = np.einsum("ijk,jab,kcd->iacbd", b.coproduct, f.mats, g.mats, optimize=True)
    out = out.reshape(b.dim, k, k)
    out.setflags(write=False)  # fresh: OperatorMap keeps it without a copy
    return OperatorMap(b, out)


def convolve_functionals(b: CounitalBialgebra, f, g) -> np.ndarray:
    """Scalar-valued special case; returns the coefficient row of f * g."""
    return np.einsum("ijk,j,k->i", b.coproduct, as_complex_array(f), as_complex_array(g))


def transfer_matrix(b: CounitalBialgebra, psi) -> np.ndarray:
    """T[i, j] = sum_k Delta_i^{jk} psi_k, so that T @ f is the coefficient row of f * psi."""
    return np.einsum("ijk,k->ij", b.coproduct, as_complex_array(psi))


def convolution_iterates(psi: OperatorMap, n: int) -> OperatorMap:
    """psi^{*n}; psi^{*0} is the counit (1x1 matrices)."""
    if n < 0:
        raise ValueError("iterate count must be nonnegative")
    b = psi.source
    _check_entries(b.dim, psi.dim, n)
    out = OperatorMap.from_functional(b, b.counit)
    for _ in range(n):
        out = convolve(out, psi)
    return out


@dataclass(frozen=True, eq=False)
class LiftedMap:
    """Psi(b_i) = sum_j b_j (x) blocks[i, j] in B (x) M_K."""

    source: CounitalBialgebra
    blocks: np.ndarray

    def __post_init__(self):
        blocks = readonly(self.blocks)
        n = self.source.dim
        if blocks.ndim != 4 or blocks.shape[:2] != (n, n) or blocks.shape[2] != blocks.shape[3]:
            raise ValueError(f"blocks have shape {blocks.shape}, expected ({n}, {n}, K, K)")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return self.blocks.shape[2]

    def counit_contract(self) -> OperatorMap:
        """(eps (x) id) applied to the values; recovers an operator map."""
        mats = np.einsum("j,ijab->iab", self.source.counit, self.blocks)
        mats.setflags(write=False)  # fresh: OperatorMap keeps it without a copy
        return OperatorMap(self.source, mats)


def lift(psi: OperatorMap) -> LiftedMap:
    """Psi = (id (x) psi) o Delta."""
    b = psi.source
    return LiftedMap(b, np.einsum("ijk,kab->ijab", b.coproduct, psi.mats))


def composition_iterates(psi_lifted: LiftedMap, n: int) -> LiftedMap:
    """Psi^{o n} = (Psi^{o n-1} (x) id) o Psi; Psi^{o 0} is the identity lift."""
    if n < 0:
        raise ValueError("iterate count must be nonnegative")
    b = psi_lifted.source
    _check_entries(b.dim**2, psi_lifted.dim, n)
    out = LiftedMap(b, np.eye(b.dim, dtype=complex).reshape(b.dim, b.dim, 1, 1))
    for _ in range(n):
        merged = np.einsum("jlAB,ijab->ilAaBb", out.blocks, psi_lifted.blocks)
        merged.setflags(write=False)  # fresh: LiftedMap keeps it without a copy
        k = out.dim * psi_lifted.dim
        out = LiftedMap(b, merged.reshape(b.dim, b.dim, k, k))
    return out


def check_compatibility(psi: OperatorMap, n: int) -> float:
    """Distance between (eps (x) id) o Psi^{o n} and psi^{* n}."""
    composed = composition_iterates(lift(psi), n).counit_contract()
    convolved = convolution_iterates(psi, n)
    return composed.distance(convolved)


class ConvolutionSemigroup:
    """exp_*(t psi) = eps o exp(t T_psi) for a fixed functional psi, with T_psi materialized once.

    The family satisfies the convolution semigroup law in t.
    """

    def __init__(self, source: CounitalBialgebra, psi):
        self.source = source
        self.psi = as_complex_array(psi)
        self.transfer = transfer_matrix(source, self.psi)

    def at(self, t: float) -> np.ndarray:
        """Coefficient row of exp_*(t psi)."""
        return np.einsum("ij,j->i", expm(t * self.transfer), self.source.counit)
