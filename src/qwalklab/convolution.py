"""Convolution of functionals over the coproduct, and the compatibility check.

Two functionals f, g convolve to (f * g)(b_i) = sum_{jk} Delta_i^{jk}
f(b_j) g(b_k).  The walk and the cocycle limit are both products of
functionals (fock._piecewise_product), so that is the one convolution
the library runs.

check_compatibility compares two evaluation orders of the n-th walk
iterate with matrix values.  The Kronecker route convolves psi with
itself, values combining by Kronecker product: psi^{*n}(b_i) = sum_{jk}
Delta_i^{jk} psi^{*(n-1)}(b_j) (x) psi(b_k), from psi^{*0} = eps.  The
lifted route composes Psi = (id (x) psi) o Delta, with coefficients in
B tensor operators, by Psi^{o n} = (Psi^{o (n-1)} (x) id) o Psi, and
applies the counit.  The identity (eps (x) id) o Psi^{o n} = psi^{*n}
holds for any tensors Delta and eps, with no bialgebra axiom behind it:
contracting eps early turns the composition into the Kronecker
recursion.  A pass therefore confirms the index conventions of the two
routes, and coassociativity itself is checked by verify_bialgebra.  The
lifted iterate holds dim(B)^2 K^(2n) complex entries, the Kronecker
iterate dim(B) K^(2n); a depth whose lifted iterate would hold more than
MAX_LIFTED_ENTRIES is refused before anything is built.

Convolution exponentials exp_*(t psi) of a functional psi are computed
by materializing the one-sided convolution operator T_psi = (id (x)
psi) o Delta on the coefficient space once and applying the [13/13] Pade
scaling-and-squaring matrix exponential of linalg.expm.
"""
from __future__ import annotations

import numpy as np

from .bialgebra import CounitalBialgebra
from .linalg import as_complex_array, expm, opnorms
from .structure_maps import OperatorMap

__all__ = [
    "MAX_LIFTED_ENTRIES",
    "convolve_functionals",
    "transfer_matrix",
    "check_compatibility",
    "ConvolutionSemigroup",
]

#: complex entries the compatibility check's lifted iterate may hold (2**24, 268 MB)
MAX_LIFTED_ENTRIES = 2**24


def _check_entries(rows: int, k: int, n: int = 1):
    """Refuse an array of rows x k^n x k^n complex entries past MAX_LIFTED_ENTRIES.

    Past n = 12 any k > 1 exceeds the bound, so the power is taken at n <= 13 only.
    """
    if rows * k ** (2 * min(n, 13)) > MAX_LIFTED_ENTRIES:
        raise ValueError(
            f"{rows} x {k}^{2 * n} complex entries are more than the fixed bound of {MAX_LIFTED_ENTRIES}"
        )


def convolve_functionals(b: CounitalBialgebra, f, g) -> np.ndarray:
    """The coefficient row of f * g."""
    return np.einsum("ijk,j,k->i", b.coproduct, as_complex_array(f), as_complex_array(g))


def transfer_matrix(b: CounitalBialgebra, psi) -> np.ndarray:
    """T[i, j] = sum_k Delta_i^{jk} psi_k, so that T @ f is the coefficient row of f * psi."""
    return np.einsum("ijk,k->ij", b.coproduct, as_complex_array(psi))


def _compatibility_iterates(psi: OperatorMap, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(eps (x) id) o Psi^{o n} and psi^{* n}, each as a (dim B, K^n, K^n) stack.

    The bound on the lifted iterate is checked before anything is
    allocated.  The lifted route is contracted by eps before the
    Kronecker route starts, so the two largest arrays are never held at
    once.
    """
    if n < 0:
        raise ValueError("iterate count must be nonnegative")
    b, k = psi.source, psi.dim
    _check_entries(b.dim**2, k, n)
    lifted = np.einsum("ijk,kab->ijab", b.coproduct, psi.mats)
    composed = np.eye(b.dim, dtype=complex).reshape(b.dim, b.dim, 1, 1)
    for m in range(1, n + 1):
        composed = np.einsum("jlAB,ijab->ilAaBb", composed, lifted).reshape(b.dim, b.dim, k**m, k**m)
    composed = np.einsum("j,ijab->iab", b.counit, composed)
    convolved = as_complex_array(b.counit).reshape(-1, 1, 1)
    for m in range(1, n + 1):
        convolved = np.einsum("ijk,jab,kcd->iacbd", b.coproduct, convolved, psi.mats, optimize=True)
        convolved = convolved.reshape(b.dim, k**m, k**m)
    return composed, convolved


def check_compatibility(psi: OperatorMap, n: int) -> float:
    """Max operator-norm distance between (eps (x) id) o Psi^{o n} and psi^{* n}."""
    composed, convolved = _compatibility_iterates(psi, n)
    return float(np.max(opnorms(composed - convolved)))


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
