"""Convolution of functionals and operator-valued maps over the coproduct.

Two maps f, g convolve to (f * g)(b_i) = sum_{jk} Delta_i^{jk} f(b_j)
(x) g(b_k); matrix values combine by Kronecker product, so iterated
convolution targets grow geometrically and are guarded by an explicit
dimension cap.  The n-fold convolution of a walk step is the n-step
walk; its lifted form (coefficients in B tensor operators) composes by
(Psi_{n-1} (x) id) o Psi, and applying the counit to the lift recovers
the convolution iterate.

Convolution exponentials exp_*(t psi) are computed by materializing the
one-sided convolution operator T_psi = (id (x) psi) o Delta on the
coefficient space once and applying the [13/13] Pade scaling-and-squaring
matrix exponential of linalg.expm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bialgebra import CounitalBialgebra
from .linalg import as_complex_array, expm, readonly
from .structure_maps import OperatorMap

__all__ = [
    "DimensionCapExceeded",
    "DEFAULT_DIMENSION_CAP",
    "convolve",
    "convolve_functionals",
    "transfer_matrix",
    "mult_convolve",
    "convolution_iterates",
    "LiftedMap",
    "lift",
    "composition_iterates",
    "check_compatibility",
    "ConvolutionSemigroup",
]

DEFAULT_DIMENSION_CAP = 4096


class DimensionCapExceeded(RuntimeError):
    """A materialized tensor target would exceed the configured cap."""


def _check_cap(dim: int, cap: int):
    if dim > cap:
        raise DimensionCapExceeded(
            f"materialized target dimension {dim} exceeds cap {cap}; "
            "raise the cap or reduce the iterate depth"
        )


def convolve(f: OperatorMap, g: OperatorMap, cap: int = DEFAULT_DIMENSION_CAP) -> OperatorMap:
    """(f * g)(b_i) = sum_{jk} Delta_i^{jk} f(b_j) (x) g(b_k)."""
    b = f.source
    if g.source is not b and g.source.dim != b.dim:
        raise ValueError("convolution factors live on different bialgebras")
    _check_cap(f.dim * g.dim, cap)
    out = np.einsum("ijk,jab,kcd->iacbd", b.coproduct, f.mats, g.mats, optimize=True)
    k = f.dim * g.dim
    return OperatorMap(b, out.reshape(b.dim, k, k))


def convolve_functionals(b: CounitalBialgebra, f, g) -> np.ndarray:
    """Scalar-valued special case; returns the coefficient row of f * g."""
    return np.einsum("ijk,j,k->i", b.coproduct, as_complex_array(f), as_complex_array(g))


def transfer_matrix(b: CounitalBialgebra, psi) -> np.ndarray:
    """T[i, j] = sum_k Delta_i^{jk} psi_k, so that T @ f is the coefficient row of f * psi."""
    return np.einsum("ijk,k->ij", b.coproduct, as_complex_array(psi))


def mult_convolve(f: OperatorMap, g: OperatorMap) -> OperatorMap:
    """Convolution of maps into a common matrix algebra, values multiplied.

    This is the product under which the exp_* family of an
    operator-valued map is a one-parameter semigroup.
    """
    if f.dim != g.dim:
        raise ValueError("mult_convolve factors must share the target algebra")
    out = np.einsum("ijk,jab,kbc->iac", f.source.coproduct, f.mats, g.mats)
    return OperatorMap(f.source, out)


def convolution_iterates(psi: OperatorMap, n: int, cap: int = DEFAULT_DIMENSION_CAP) -> OperatorMap:
    """psi^{*n}; psi^{*0} is the counit (1x1 matrices)."""
    if n < 0:
        raise ValueError("iterate count must be nonnegative")
    b = psi.source
    _check_cap(psi.dim**n, cap)
    out = OperatorMap.from_functional(b, b.counit)
    for _ in range(n):
        out = convolve(out, psi, cap=cap)
    return out


@dataclass(frozen=True)
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
        return OperatorMap(self.source, np.einsum("j,ijab->iab", self.source.counit, self.blocks))


def lift(psi: OperatorMap) -> LiftedMap:
    """Psi = (id (x) psi) o Delta."""
    b = psi.source
    return LiftedMap(b, np.einsum("ijk,kab->ijab", b.coproduct, psi.mats))


def composition_iterates(psi_lifted: LiftedMap, n: int, cap: int = DEFAULT_DIMENSION_CAP) -> LiftedMap:
    """Psi^{o n} = (Psi^{o n-1} (x) id) o Psi; Psi^{o 0} is the identity lift."""
    if n < 0:
        raise ValueError("iterate count must be nonnegative")
    b = psi_lifted.source
    _check_cap(psi_lifted.dim**n, cap)
    out = LiftedMap(b, np.eye(b.dim, dtype=complex).reshape(b.dim, b.dim, 1, 1))
    for _ in range(n):
        merged = np.einsum("jlAB,ijab->ilAaBb", out.blocks, psi_lifted.blocks)
        k = out.dim * psi_lifted.dim
        out = LiftedMap(b, merged.reshape(b.dim, b.dim, k, k))
    return out


def check_compatibility(psi: OperatorMap, n: int, cap: int = DEFAULT_DIMENSION_CAP) -> float:
    """Distance between (eps (x) id) o Psi^{o n} and psi^{* n}."""
    composed = composition_iterates(lift(psi), n, cap=cap).counit_contract()
    convolved = convolution_iterates(psi, n, cap=cap)
    return composed.distance(convolved)


class ConvolutionSemigroup:
    """exp_*(t psi) for a fixed psi, with T_psi materialized once.

    For functionals T_psi acts on the n-dimensional coefficient space;
    for operator-valued psi it acts on B (x) M_K coefficients.  In both
    cases exp_*(t psi) = eps o exp(t T_psi), and the family satisfies
    the convolution semigroup law in t.
    """

    def __init__(self, source: CounitalBialgebra, psi):
        self.source = source
        if isinstance(psi, OperatorMap):
            self.k = psi.dim
            self.psi = psi
            n = source.dim
            # T(b_i (x) Y) = sum_j b_j (x) psi-block[i, j] Y
            blocks = lift(psi).blocks
            t = np.einsum("ijab,cd->jacibd", blocks, np.eye(self.k)).reshape(
                n * self.k * self.k, n * self.k * self.k
            )
            self.transfer = t
        else:
            self.k = 1
            self.psi = as_complex_array(psi)
            self.transfer = transfer_matrix(source, self.psi)

    def at(self, t: float):
        """Value of exp_*(t psi), same kind as psi."""
        n = self.source.dim
        if self.k == 1:
            e = expm(t * self.transfer)
            return np.einsum("ij,j->i", e, self.source.counit)
        e = expm(t * self.transfer)
        # start vectors: coefficients of b_i (x) I, one per basis element
        basis = np.zeros((n, n, self.k, self.k), dtype=complex)
        idx = np.arange(self.k)
        basis[np.arange(n)[:, None], np.arange(n)[:, None], idx, idx] = 1.0
        evolved = (e @ basis.reshape(n, -1).T).T.reshape(n, n, self.k, self.k)
        return OperatorMap(
            self.source, np.einsum("j,ijab->iab", self.source.counit, evolved)
        )

