"""Completely bounded norm surrogate via amplified operator norms.

For a map theta from the bialgebra into K x K matrices the completely
bounded norm equals the operator norm of theta (x) id_{M_K}.  It depends
only on the C*-algebra B, not on the faithful representation that holds
it (a faithful *-isomorphism is a complete isometry), so the amplified
map acts on B's irreducible blocks, each taken once (block_rep: C[S3]'s
6 x 6 regular representation becomes 1 + 1 + 2).  Inputs are first
pressed through the Hilbert-Schmidt conditional expectation onto
block_rep(B) (x) M_K, which is completely contractive and restricts to
the identity, so the composite has the same norm as the restriction.

With the r x r blocks X_mn of X regrouped as rows, the map is two
matmuls: the pairing P (r^2 x dim B) with the dual basis gives c_i[m, n]
= <g_i, X_mn>, and theta as a dim B x K^2 matrix M the output.  The
ascent's functional is the same product with M^H and P^H; both cost dim
B (r^2 + K^2) per (m, n).  Each stacked X is its own product: one product
over the whole stack let BLAS start threads that doubled the CPU time of
a K = 7 sweep and saved no wall time.

The norm is maximized by deterministic multi-start alternating ascent:
given X, take the top singular pair (u, v) of the output; given (u, v),
the functional X -> <u, Theta(X) v> is represented by a matrix G, and
the unit-ball maximizer is the unitary polar factor of G.  Both
half-steps are exact, so the objective is nondecreasing and every
accepted value is a certified lower bound.  Neither depends on the
representation, so a start in B climbs through the same elements of B
on the blocks as on rep.  All starts climb together as one stack.  P
and the start stack depend only on (bialgebra, amp), which all rows of a
sweep share, so the last such frame is kept.  The random starts are
seeded draws from the stdlib generator (linalg.standard_normal): numpy's
random module would add about 6 MB of resident memory and 19 ms of
import to every run for this one batch.
"""
from __future__ import annotations

import numpy as np

from .linalg import opnorms, polar_unitary, standard_normal, top_singular_triple
from .structure_maps import OperatorMap

__all__ = ["AmplifiedMap", "amplified_norm"]

#: the ascent's random unitary starts, their seed, round limit and stall tolerance
_EXTRA_STARTS, _SEED, _MAX_ITER, _RTOL = 6, 0, 400, 1e-13


class AmplifiedMap:
    """theta (x) id_{M_K} composed with the expectation onto block_rep(B) (x) M_K.

    Every method takes one matrix (or vector) or a stack of them along leading axes.
    """

    def __init__(self, theta: OperatorMap, amp: int | None = None):
        self.theta = theta
        self.amp = theta.dim if amp is None else int(amp)
        self.rep_dim = theta.source.block_rep.shape[1]
        self.pairing, self.dual, self.starts = _frame(theta.source, self.amp)
        self.mats = theta.mats.reshape(theta.source.dim, -1)
        self.mats_h = np.conjugate(self.mats.T)

    def apply(self, x: np.ndarray) -> np.ndarray:
        r, m, k = self.rep_dim, self.amp, self.theta.dim
        rows = x.reshape(-1, r, m, r, m).transpose(0, 2, 4, 1, 3).reshape(-1, m * m, r * r)
        out = (rows @ self.pairing @ self.mats).reshape(-1, m, m, k, k).transpose(0, 3, 1, 4, 2)
        return out.reshape(x.shape[:-2] + (k * m, k * m))

    def functional_matrix(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """G with <u, apply(X) v> = tr(G^H X) for all X."""
        r, m, k = self.rep_dim, self.amp, self.theta.dim
        u2 = u.reshape(-1, k, m).transpose(0, 2, 1)
        v2 = np.conjugate(v.reshape(-1, k, m).transpose(0, 2, 1))
        rows = (u2[:, :, None, :, None] * v2[:, None, :, None, :]).reshape(-1, m * m, k * k)
        g = (rows @ self.mats_h @ self.dual).reshape(-1, m, m, r, r).transpose(0, 3, 1, 4, 2)
        return g.reshape(u.shape[:-1] + (r * m, r * m))


def _frame(source, amp: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (P, P^H, starts) for this bialgebra (compared by identity) and amp.

    The starts are the identity, kron(rho_i / ||rho_i||, 1_amp) for each
    block_rep basis element and a fixed-seed batch of random unitaries,
    the polar factors of complex Gaussians drawn by the stdlib generator
    (random.Random through linalg.standard_normal), which keeps numpy's
    random module, its memory and its import time out of the process.
    """
    global _last_frame
    entry = _last_frame
    if entry is None or entry[0] is not source or entry[1] != amp:
        rep = source.block_rep
        flat = rep.reshape(len(rep), -1)
        # dual basis g_i in span(rho): <g_i, rho_j>_HS = delta_ij
        dual = np.conjugate(np.linalg.inv(np.conjugate(flat) @ flat.T)) @ flat
        pairing = np.conjugate(dual.T)
        unit = rep / opnorms(rep)[:, None, None]
        n = rep.shape[1] * amp
        basis = (unit[:, :, None, :, None] * np.eye(amp, dtype=complex)[None, None, :, None, :]).reshape(-1, n, n)
        z = standard_normal(_SEED, (_EXTRA_STARTS, 2, n, n))
        starts = np.concatenate([np.eye(n, dtype=complex)[None], basis, polar_unitary(z[:, 0] + 1j * z[:, 1])])
        for arr in (pairing, dual, starts):
            arr.setflags(write=False)
        entry = _last_frame = (source, amp, pairing, dual, starts)
    return entry[2:]


#: the last (bialgebra, amp, P, P^H, starts), rebound as one tuple so no reader sees a mix
_last_frame = None


def amplified_norm(theta: OperatorMap, amp: int | None = None) -> float:
    """Lower-bound-certified estimate of ||theta (x) id|| (= cb norm here).

    Deterministic: every start of the frame climbs by alternating ascent
    until its objective stalls (val <= prev (1 + 1e-13)) or 400 rounds
    pass; the result is the largest value any start reached.
    """
    if float(np.max(np.abs(theta.mats))) == 0.0:
        return 0.0
    amap = AmplifiedMap(theta, amp)
    x = amap.starts
    prev = np.full(len(x), -np.inf)
    best = 0.0
    for _ in range(_MAX_ITER):
        val, u, v = top_singular_triple(amap.apply(x))
        best = max(best, float(np.max(val)))
        climbing = val > prev * (1.0 + _RTOL) + 1e-300
        if not climbing.any():
            break
        prev = val[climbing]
        x = polar_unitary(amap.functional_matrix(u[climbing], v[climbing]))
    return best
