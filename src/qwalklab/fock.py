"""Toy Fock embedding: discrete hat spaces against exponential vectors.

Step functions are piecewise-constant noise arguments f: [0, T) -> C^d,
zero after T.  Exponential vectors are never materialized; all inner
products reduce to the closed forms

    <eps(f), eps(g)> = exp( integral <f(s), g(s)> ds ),
    D_j* eps(g) restricted to cell j of an h-grid  ->  (1, h^{1/2} g_j),

with g constant on each cell.  An n-step walk matrix element between
exponential vectors therefore factorizes into a left-to-right
convolution of n scalar functionals, one per grid cell.  On each piece
of the common refinement of f and g the functional is the same lambda,
so the piece contributes the convolution power lambda^{*m} over its m
cells.  The walk and its cocycle limit share one loop,
_piecewise_product, which joins one functional per piece left to right
and returns its coefficient row with the tail factor; only the factor of
a piece differs (lambda^{*m} here, exp_*(D phi_{c,d}) in cocycle.py).
The probe b enters only the final dot product, so the functional is
evaluated once per (psi, f, g, t, h) and reused for the next probe.
The memo is functools.lru_cache(maxsize=1) on _walk_functional: the key
is its arguments, where psi, f and g (frozen, with read-only arrays)
compare by identity and h and the horizon by value.  The
(d+1)^n-dimensional iterate is never materialized; the materialized
route, a Kronecker oracle in tests/oracles.py, checks it at small n.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .convolution import convolve_functionals, transfer_matrix
from .linalg import as_complex_array, readonly
from .serialize import FormatError, decode_complex_array, finite_number
from .structure_maps import OperatorMap, hat

__all__ = [
    "StepFunction",
    "walk_matrix_element",
    "step_function_from_payload",
]

#: relative tolerance for grid/partition alignment
ALIGN_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Piecewise-constant function on [0, total_time), zero afterwards.

    values[k] is the constant C^d value held for durations[k]; breakpoints
    (0 and the running sums of durations) and total_time are derived once.
    """

    durations: np.ndarray
    values: np.ndarray
    breakpoints: np.ndarray = field(init=False, repr=False, compare=False)
    total_time: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        durations = np.asarray(self.durations, dtype=float)
        values = np.atleast_2d(as_complex_array(self.values))
        if durations.ndim != 1 or values.shape[0] != durations.shape[0]:
            raise ValueError("durations and values must align, one value row per segment")
        if durations.size == 0 or np.any(durations <= 0):
            raise ValueError("segment durations must be positive and nonempty")
        durations = durations.copy()
        durations.setflags(write=False)
        with np.errstate(over="ignore"):
            breakpoints = np.concatenate([[0.0], np.cumsum(durations)])
            total_time = float(np.sum(durations))
        if not (np.isfinite(breakpoints[-1]) and np.isfinite(total_time)):
            raise ValueError("segment durations must sum to a finite time")
        breakpoints.setflags(write=False)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "values", readonly(values))
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "total_time", total_time)

    @classmethod
    def constant(cls, value, duration: float) -> "StepFunction":
        return cls(durations=np.array([duration]), values=np.atleast_2d(as_complex_array(value)))

    @property
    def noise_dim(self) -> int:
        return self.values.shape[1]

    def value_at(self, s: float) -> np.ndarray:
        """f(s); zero vector outside [0, total_time)."""
        if s < 0 or s >= self.total_time - ALIGN_RTOL * max(1.0, self.total_time):
            return np.zeros(self.noise_dim, dtype=complex)
        k = int(np.searchsorted(self.breakpoints, s, side="right") - 1)
        k = min(max(k, 0), len(self.durations) - 1)
        return self.values[k].copy()

    def overlap(self, other: "StepFunction", a: float = 0.0) -> complex:
        """integral_a^infinity <self(s), other(s)> ds (first argument conjugated)."""
        if self.noise_dim != other.noise_dim:
            raise ValueError("step functions have different noise dimensions")
        b = max(self.total_time, other.total_time)
        if b <= a:
            return 0.0 + 0.0j
        return complex(sum((hi - lo) * np.vdot(u, v) for lo, hi, u, v in _pieces(a, b, self, other)))


def _pieces(a: float, b: float, f: StepFunction, g: StepFunction):
    """(lo, hi, f(mid), g(mid)) over the common refinement of f, g and [a, b)."""
    cuts = sorted({float(a), float(b)} | {float(t) for fn in (f, g) for t in fn.breakpoints if a < t < b})
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        yield lo, hi, f.value_at(mid), g.value_at(mid)


def _cell_count(t: float, h: float) -> int:
    """Cells of width h in [0, t]: floor(t / h), tolerant of float division dust."""
    if h <= 0:
        raise ValueError("step length h must be positive")
    n = int(np.floor(t / h + ALIGN_RTOL))
    if n < 0:
        raise ValueError(f"time t = {t:g} must be nonnegative")
    return n


def _on_grid(t: float, h: float) -> bool:
    ratio = t / h
    return abs(ratio - round(ratio)) <= ALIGN_RTOL * max(1.0, abs(ratio))


def _validate_alignment(f: StepFunction, h: float, horizon: float):
    """Every breakpoint of f before the horizon lies on the h-grid."""
    for t in f.breakpoints:
        if t < horizon * (1 - ALIGN_RTOL) and not _on_grid(float(t), h):
            raise ValueError(
                f"step-function breakpoint {t:g} is not a multiple of h = {h:g}; "
                "the grid must refine the step partition"
            )


def walk_matrix_element(
    psi: OperatorMap, b_coeffs, f: StepFunction, g: StepFunction, t: float, h: float
) -> complex:
    """<eps(f), (D psi^{*n}(b) D* (x) I) eps(g)> with n = floor(t / h).

    Computed in factorized form: a cell where f and g hold the values c
    and d contributes the functional lambda(b_i) = <(1, h^{1/2} c),
    psi(b_i) (1, h^{1/2} d)>.  Each piece of the common refinement of f
    and g spanning m cells therefore contributes lambda^{*m}, computed
    as the m-th power of its transfer matrix applied to the counit, and
    the matrix element is the left-to-right convolution of these powers
    at b, times the tail factor.  The checks run on every call, before
    the memoized row and tail are read.
    """
    horizon = h * _cell_count(t, h)
    if psi.dim != f.noise_dim + 1 or f.noise_dim != g.noise_dim:
        raise ValueError(
            f"walk step acts on hat dimension {psi.dim} but step functions have "
            f"noise dimension {f.noise_dim}/{g.noise_dim}"
        )
    _validate_alignment(f, h, horizon)
    _validate_alignment(g, h, horizon)
    b_coeffs = _as_coeffs(psi.source, b_coeffs)
    row, tail = _walk_functional(psi, f, g, h, horizon)
    return complex(np.dot(row, b_coeffs) * tail)


@functools.lru_cache(maxsize=1)
def _walk_functional(psi: OperatorMap, f: StepFunction, g: StepFunction, h: float, horizon: float):
    """The walk's (row, tail) over the grid of n = horizon / h cells of width h."""
    src, root_h = psi.source, np.sqrt(h)

    def power(c, d, duration):
        u, v = hat(root_h * c), hat(root_h * d)
        lam = np.einsum("a,iab,b->i", np.conjugate(u), psi.mats, v)
        return np.linalg.matrix_power(transfer_matrix(src, lam), round(duration / h)) @ src.counit

    return _piecewise_product(src, f, g, horizon, power)


def _piecewise_product(src, f: StepFunction, g: StepFunction, t: float, factor) -> tuple[np.ndarray, complex]:
    """The row of F_1 * ... * F_m over the pieces of f and g on [0, t), and exp(integral_t <f, g>).

    F_k = factor(c, d, duration) is the functional of the k-th piece of
    the common refinement, where f = c and g = d; the pieces are joined
    left to right.  The walk and the cocycle limit differ only in factor.
    Both evaluate at b as complex(np.dot(row, b) * tail).
    """
    out = src.counit
    for lo, hi, c, d in _pieces(0.0, t, f, g):
        out = convolve_functionals(src, out, factor(c, d, hi - lo))
    return out, np.exp(f.overlap(g, a=t))


def _as_coeffs(src, b_coeffs) -> np.ndarray:
    if isinstance(b_coeffs, (int, np.integer)):
        if isinstance(b_coeffs, bool) or not 0 <= b_coeffs < src.dim:
            raise ValueError(f"basis index must be an integer in 0..{src.dim - 1}, got {b_coeffs!r}")
        out = np.zeros(src.dim, dtype=complex)
        out[int(b_coeffs)] = 1.0
        return out
    arr = as_complex_array(b_coeffs)
    if arr.shape != (src.dim,):
        raise ValueError(f"element coefficients have shape {arr.shape}, expected ({src.dim},)")
    return arr


def step_function_from_payload(rows) -> StepFunction:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise FormatError("step function payload must be a nonempty list of rows")
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) < 2:
            raise FormatError(f"step-function row {row!r} must be [duration, [re, im], ...]")
    values = decode_complex_array([row[1:] for row in rows])
    if values.ndim != 2:
        raise FormatError("step-function components must be [re, im] pairs, as many in every row")
    return StepFunction(durations=np.array([finite_number(row[0]) for row in rows]), values=values)
