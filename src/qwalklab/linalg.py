"""Small dense linear-algebra helpers shared across the package.

Everything operates on complex numpy arrays; matrix stacks have the matrix
axes last so the helpers broadcast.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "as_complex_array",
    "readonly",
    "dag",
    "opnorm",
    "opnorms",
    "polar_unitary",
    "top_singular_triple",
]


def as_complex_array(x) -> np.ndarray:
    return np.asarray(x, dtype=complex)


def readonly(x) -> np.ndarray:
    """Return a C-contiguous complex copy with the write flag cleared."""
    arr = np.ascontiguousarray(x, dtype=complex)
    arr.setflags(write=False)
    return arr


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, acting on the last two axes of a stack."""
    return np.conjugate(np.swapaxes(m, -1, -2))


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
    """Unitary polar factor of a square matrix (maximizes Re tr(G^H X))."""
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def top_singular_triple(m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest singular value with its left and right singular vectors."""
    u, s, vh = np.linalg.svd(m)
    return float(s[0]), u[:, 0], vh[0, :].conj()
