"""Small dense linear-algebra helpers shared across the package.

Everything operates on complex numpy arrays; matrix stacks have the matrix
axes last so the helpers broadcast.
"""
from __future__ import annotations

import math
import random

import numpy as np

__all__ = [
    "as_complex_array",
    "readonly",
    "dag",
    "expm",
    "opnorm",
    "opnorms",
    "polar_unitary",
    "standard_normal",
    "top_singular_triple",
]


def as_complex_array(x) -> np.ndarray:
    return np.asarray(x, dtype=complex)


def readonly(x) -> np.ndarray:
    """A read-only C-contiguous complex array.

    A writable input is always copied, so later writes to the caller's
    array cannot reach the result; an input that is already read-only,
    complex and C-contiguous is returned as it is.  A producer that hands
    over a fresh array clears its write flag first, which saves the copy.
    """
    arr = np.asarray(x)
    if arr.flags.writeable or arr.dtype != complex or not arr.flags.c_contiguous:
        arr = np.array(arr, dtype=complex, order="C")
        arr.setflags(write=False)
    return arr


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, acting on the last two axes of a stack."""
    return np.conjugate(np.swapaxes(m, -1, -2))


#: numerator coefficients b_0..b_13 of the [13/13] Pade approximant to exp
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
#: largest 1-norm for which the [13/13] approximant's backward error stays
#: below the double-precision unit roundoff
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by [13/13] Pade scaling and squaring.

    A is scaled by 2^-s until ||A||_1 <= theta_13, the approximant
    r = (V - U)^{-1} (V + U) is formed from A^2, A^4 and A^6 (U holds the
    odd powers, V the even ones), and r is squared s times.  This is
    Higham's algorithm (SIAM J. Matrix Anal. Appl. 26 (2005) 1179) with
    the degree fixed at 13, the one it uses for all but small norms.
    """
    a = np.asarray(a)
    norm = float(np.linalg.norm(a, 1))
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a * 2.0**-s
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def opnorm(m: np.ndarray) -> float:
    """Operator (spectral) norm of a single matrix."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(np.atleast_2d(m), 2))


def opnorms(stack: np.ndarray) -> np.ndarray:
    """Operator norms along a stack of matrices (batched SVD)."""
    s = np.linalg.svd(stack, compute_uv=False)
    return s[..., 0]


def polar_unitary(g: np.ndarray) -> np.ndarray:
    """Unitary polar factor of a square matrix (maximizes Re tr(G^H X)), along a stack."""
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def standard_normal(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Seeded standard normal draws of the given shape, from the stdlib generator.

    random.Random(seed).randbytes gives 64-bit words whose top 53 bits are
    uniforms u in [0, 1), and Box-Muller turns each pair (u1, u2) into two
    normals.  The stdlib module is already loaded when numpy is; numpy's
    own random module would cost each process about 6 MB of resident
    memory and 19 ms of import for a few seeded draws.
    """
    count = math.prod(shape)
    half = (count + 1) // 2
    words = np.frombuffer(random.Random(seed).randbytes(16 * half), dtype="<u8")
    u = (words >> np.uint64(11)).astype(float) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log1p(-u[:half]))
    angle = 2.0 * np.pi * u[half:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count].reshape(shape)


def top_singular_triple(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Largest singular value with its left and right singular vectors, along a stack."""
    u, s, vh = np.linalg.svd(m)
    return s[..., 0], u[..., :, 0], np.conjugate(vh[..., 0, :])
