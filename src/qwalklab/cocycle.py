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
fock._piecewise_product, the loop that also evaluates the walk.
"""
from __future__ import annotations

import numpy as np

from .convolution import ConvolutionSemigroup
from .fock import StepFunction, _piecewise_product
from .linalg import as_complex_array
from .structure_maps import OperatorMap

__all__ = ["assoc_generator", "CocycleEvaluator"]


def assoc_generator(phi: OperatorMap, c, d) -> np.ndarray:
    """phi_{c,d} = <hat(c), phi(.) hat(d)> + <c, d> eps(.), as a coefficient row."""
    hat = phi.hat
    c = np.atleast_1d(as_complex_array(c))
    d = np.atleast_1d(as_complex_array(d))
    chat, dhat = hat.hat(c), hat.hat(d)
    vals = np.einsum("a,iab,b->i", np.conjugate(chat), phi.mats, dhat)
    return vals + np.vdot(c, d) * phi.source.counit


class CocycleEvaluator:
    """Evaluates one cocycle's matrix elements."""

    def __init__(self, phi: OperatorMap):
        self.phi = phi
        self.source = phi.source
        self.hat = phi.hat

    def matrix_element(self, b_coeffs, f: StepFunction, g: StepFunction, t: float) -> complex:
        """<eps(f), l_t(b) eps(g)>; b may be a basis index or coefficients."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        dim = self.hat.noise_dim
        if f.noise_dim != dim or g.noise_dim != dim:
            raise ValueError(
                f"step functions have noise dimension {f.noise_dim}/{g.noise_dim}, "
                f"generator expects {dim}"
            )

        def exponential(c, d, duration):
            return ConvolutionSemigroup(self.source, assoc_generator(self.phi, c, d)).at(duration)

        return _piecewise_product(self.source, b_coeffs, f, g, t, exponential)
