"""Completely bounded norm surrogate via amplified operator norms.

For a map theta from the bialgebra into K x K matrices the completely
bounded norm equals the operator norm of theta (x) id_{M_K} (amplifying
by the target size is enough for matrix targets).

That norm depends only on the C*-algebra B, not on the faithful
representation that holds it: a faithful *-isomorphism between two
representations of B is a complete isometry, so it carries the unit
ball of one amplification B (x) M_K onto the other.  The amplified map
is therefore evaluated on B's irreducible blocks, each taken once
(CounitalBialgebra.block_rep, computed once per bialgebra): the 6 x 6
regular representation of C[S3] becomes 1 + 1 + 2, and C[S4]'s 24 x 24
one becomes 1 + 1 + 2 + 3 + 3.  Inputs from the full matrix algebra are
first pressed through the Hilbert-Schmidt conditional expectation onto
block_rep(B) (x) M_K, which is completely contractive and restricts to
the identity, so the composite has the same norm as the restriction.

The norm is maximized by deterministic multi-start alternating ascent:
given an input X, take the top singular pair (u, v) of the output; given
(u, v), the linear functional X -> <u, Theta(X) v> is represented by a
matrix G and the unit-ball maximizer is the unitary polar factor of G.
Both half-steps are exact, so the objective is nondecreasing and every
accepted value is a certified lower bound.  Neither half-step depends
on the representation, so a start that is an element of B ascends
through the same elements of B on the blocks as on rep.  All starts
ascend together as one stack: each round applies the map, takes the
top singular pairs, forms the functionals and takes their polar factors
once for the starts still climbing.
"""
from __future__ import annotations

import numpy as np

from .linalg import opnorm, polar_unitary, top_singular_triple
from .structure_maps import OperatorMap

__all__ = ["AmplifiedMap", "amplified_norm"]


class AmplifiedMap:
    """theta (x) id_{M_K} composed with the expectation onto block_rep(B) (x) M_K.

    Every method takes a single matrix (or vector) or a stack of them
    along leading axes.
    """

    def __init__(self, theta: OperatorMap, amp: int | None = None):
        self.theta = theta
        self.amp = theta.dim if amp is None else int(amp)
        self.rep = theta.source.block_rep
        self.rep_dim = self.rep.shape[1]
        self.in_dim = self.rep_dim * self.amp
        self.out_dim = theta.dim * self.amp
        gram = np.einsum("iab,jab->ij", np.conjugate(self.rep), self.rep)
        # dual basis g_i in span(rho): <g_i, rho_j>_HS = delta_ij
        alpha = np.conjugate(np.linalg.inv(gram))
        self.dual = np.einsum("ik,kab->iab", alpha, self.rep)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """HS pairings c_i[m, n] so that E(X) = sum_i rho_i (x) c_i."""
        x5 = x.reshape(x.shape[:-2] + (self.rep_dim, self.amp, self.rep_dim, self.amp))
        return np.einsum("iab,...ambn->...imn", np.conjugate(self.dual), x5)

    def expect(self, x: np.ndarray) -> np.ndarray:
        """The conditional expectation of X onto rho(B) (x) M_amp."""
        c = self.coefficients(x)
        return np.einsum("iab,...imn->...ambn", self.rep, c).reshape(x.shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        c = self.coefficients(x)
        out = np.einsum("iab,...imn->...ambn", self.theta.mats, c)
        return out.reshape(x.shape[:-2] + (self.out_dim, self.out_dim))

    def functional_matrix(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """G with <u, apply(X) v> = tr(G^H X) for all X."""
        k = self.theta.dim
        u2 = u.reshape(u.shape[:-1] + (k, self.amp))
        v2 = v.reshape(v.shape[:-1] + (k, self.amp))
        tmp = np.einsum("...km,ikl,...ln->...imn", u2, np.conjugate(self.theta.mats), np.conjugate(v2))
        g = np.einsum("iab,...imn->...ambn", self.dual, tmp)
        return g.reshape(u.shape[:-1] + (self.in_dim, self.in_dim))


def amplified_norm(
    theta: OperatorMap,
    amp: int | None = None,
    *,
    extra_starts: int = 6,
    max_iter: int = 400,
    rtol: float = 1e-13,
    seed: int = 0,
) -> float:
    """Lower-bound-certified estimate of ||theta (x) id|| (= cb norm here).

    Deterministic: structured starts (identity, block_rep basis kron unit
    matrices) plus a fixed-seed batch of random unitary starts.  Each
    start climbs by alternating ascent until its objective stalls
    (val <= prev (1 + rtol)) or max_iter rounds pass; the result is the
    largest value any start reached.
    """
    amap = AmplifiedMap(theta, amp)
    if float(np.max(np.abs(theta.mats))) == 0.0:
        return 0.0
    starts = [np.eye(amap.in_dim, dtype=complex)]
    eye_amp = np.eye(amap.amp, dtype=complex)
    for r in amap.rep:
        nrm = opnorm(r)
        if nrm > 0:
            starts.append(np.kron(r / nrm, eye_amp))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((extra_starts, 2, amap.in_dim, amap.in_dim))
    x = np.concatenate([np.stack(starts), polar_unitary(z[:, 0] + 1j * z[:, 1])])
    prev = np.full(len(x), -np.inf)
    best = 0.0
    for _ in range(max_iter):
        val, u, v = top_singular_triple(amap.apply(x))
        best = max(best, float(np.max(val)))
        climbing = val > prev * (1.0 + rtol) + 1e-300
        if not climbing.any():
            break
        prev = val[climbing]
        x = polar_unitary(amap.functional_matrix(u[climbing], v[climbing]))
    return best

