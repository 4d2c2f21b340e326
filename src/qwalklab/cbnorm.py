"""Completely bounded norm surrogate via amplified operator norms.

For a map theta from the bialgebra into K x K matrices the completely
bounded norm equals the operator norm of theta (x) id_{M_K}.  It depends
only on the C*-algebra B, not on the faithful representation that holds
it (a faithful *-isomorphism is a complete isometry), so the amplified
map acts on B's irreducible blocks, each taken once (the frame's blocks,
linalg.irreducible_blocks: C[S3]'s 6 x 6 regular representation becomes
1 + 1 + 2).  Inputs are first pressed through the Hilbert-Schmidt
conditional expectation onto blocks(B) (x) M_K, which is completely
contractive and restricts to the identity, so the composite has the same
norm as the restriction.

With the r x r blocks X_mn of X regrouped as rows, the map is two
matmuls: the pairing P (r^2 x dim B) with the dual basis gives c_i[m, n]
= <g_i, X_mn>, and theta as a dim B x K^2 matrix M the output.  The
ascent's functional is the same product with M^H and P^H; both cost dim
B (r^2 + K^2) per (m, n).  Each stacked X is its own product: under a
multi-threaded BLAS (numpy's default wherever qwalklab is imported as a
library; the qwalklab program loads it with one OpenBLAS thread unless a
thread count is set) one product over the whole stack was split across
threads, which doubled the CPU time of a K = 7 sweep and saved no wall time.

The norm is maximized by deterministic multi-start alternating ascent:
given X, take the top singular pair (u, v) of the output; given (u, v),
the functional X -> <u, Theta(X) v> is represented by a matrix G, and
the unit-ball maximizer is the unitary polar factor of G.  Both
half-steps are exact, so the objective is nondecreasing and every
accepted value is a certified lower bound.  Neither depends on the
representation, so a start in B climbs through the same elements of B
on the blocks as on rep.  All starts climb together as one stack: one
per basis element of B and six random unitaries.  The
amplification is always K = theta.dim, which already gives the cb norm,
so no caller chooses it.  The blocks, P and the start stack depend only
on (bialgebra, K), which all rows of a sweep share.  The memo is
functools.lru_cache(maxsize=1) on _frame: the key is its arguments,
where the bialgebra (frozen, with read-only arrays) compares by identity
and K by value.  The random starts are
seeded draws from the stdlib generator (linalg.standard_normal): numpy's
random module would add about 6 MB of resident memory and 19 ms of
import to every run for this one batch.
"""
from __future__ import annotations

import functools

import numpy as np

from .linalg import irreducible_blocks, opnorms, polar_unitary, standard_normal, top_singular_triple
from .structure_maps import OperatorMap

__all__ = ["AmplifiedMap", "amplified_norm"]

#: the ascent's random unitary starts, their seed, round limit and stall tolerance
_EXTRA_STARTS, _SEED, _MAX_ITER, _RTOL = 6, 0, 400, 1e-13
#: the most complex entries one stack of the ascent may hold (268 MB, the compatibility check's bound)
MAX_ASCENT_ENTRIES = 2**24


class AmplifiedMap:
    """theta (x) id_{M_K} composed with the expectation onto blocks(B) (x) M_K, blocks from the frame.

    Every method takes one matrix (or vector) or a stack of them along leading axes.
    """

    def __init__(self, theta: OperatorMap):
        self.theta = theta
        self.pairing, self.dual, self.starts = _frame(theta.source, theta.dim)
        self.rep_dim = self.starts.shape[-1] // theta.dim
        self.mats = theta.mats.reshape(theta.source.dim, -1)
        self.mats_h = np.conjugate(self.mats.T)

    def apply(self, x: np.ndarray) -> np.ndarray:
        r, k = self.rep_dim, self.theta.dim
        rows = x.reshape(-1, r, k, r, k).transpose(0, 2, 4, 1, 3).reshape(-1, k * k, r * r)
        out = (rows @ self.pairing @ self.mats).reshape(-1, k, k, k, k).transpose(0, 3, 1, 4, 2)
        return out.reshape(x.shape[:-2] + (k * k, k * k))

    def functional_matrix(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """G with <u, apply(X) v> = tr(G^H X) for all X."""
        r, k = self.rep_dim, self.theta.dim
        u2 = u.reshape(-1, k, k).transpose(0, 2, 1)
        v2 = np.conjugate(v.reshape(-1, k, k).transpose(0, 2, 1))
        rows = (u2[:, :, None, :, None] * v2[:, None, :, None, :]).reshape(-1, k * k, k * k)
        g = (rows @ self.mats_h @ self.dual).reshape(-1, k, k, r, r).transpose(0, 3, 1, 4, 2)
        return g.reshape(u.shape[:-1] + (r * k, r * k))


def _check_ascent_size(source, k: int):
    """Refuse an ascent whose dim B + 6 starts of (r K)^2 or K^4 entries pass MAX_ASCENT_ENTRIES (r <= rep_dim)."""
    entries = (source.dim + _EXTRA_STARTS) * max((source.rep_dim * k) ** 2, k**4)
    if entries > MAX_ASCENT_ENTRIES:
        raise ValueError(
            f"the cb-norm ascent on hat dimension {k} could hold {entries} complex entries, "
            f"more than the fixed bound of {MAX_ASCENT_ENTRIES}"
        )


@functools.lru_cache(maxsize=1)
def _frame(source, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (P, P^H, starts) for this bialgebra and output dimension K.

    rho = irreducible_blocks(source.rep), kept nowhere else.  The starts
    are kron(rho_i / ||rho_i||, 1_K) for each basis element and a
    fixed-seed batch of random unitaries, the polar factors of complex
    Gaussians drawn by the stdlib generator (random.Random through
    linalg.standard_normal), which keeps numpy's random module, its
    memory and its import time out of the process.  The identity is
    no start: on C[G] it is the unit's basis start, and where theta(1) = 0
    (every gap map of a unital pi) it climbs from rounding noise.
    """
    rep = irreducible_blocks(source.rep)
    flat = rep.reshape(len(rep), -1)
    # dual basis g_i in span(rho): <g_i, rho_j>_HS = delta_ij
    dual = np.conjugate(np.linalg.inv(np.conjugate(flat) @ flat.T)) @ flat
    pairing = np.conjugate(dual.T)
    unit = rep / opnorms(rep)[:, None, None]
    n = rep.shape[1] * k
    basis = (unit[:, :, None, :, None] * np.eye(k, dtype=complex)[None, None, :, None, :]).reshape(-1, n, n)
    z = standard_normal(_SEED, (_EXTRA_STARTS, 2, n, n))
    starts = np.concatenate([basis, polar_unitary(z[:, 0] + 1j * z[:, 1])])
    for arr in (pairing, dual, starts):
        arr.setflags(write=False)
    return pairing, dual, starts


def amplified_norm(theta: OperatorMap) -> float:
    """Lower-bound-certified estimate of ||theta (x) id_{M_K}||, the cb norm of theta.

    Deterministic: every start of the frame climbs by alternating ascent
    until its objective stalls (val <= prev (1 + 1e-13)) or 400 rounds
    pass; the result is the largest value any start reached (0.0 for the
    zero map, whose starts all stall after one round).
    """
    amap = AmplifiedMap(theta)
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
