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
evaluated once per (psi, f, g, t, h) and reused for the next probe:
walk_matrix_element keeps its last row in module scope, keyed by psi, f
and g by identity and by the grid by value.  The (d+1)^n-dimensional
iterate is never materialized; the materialized route, a Kronecker
oracle in tests/oracles.py, checks it at small n.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convolution import convolve_functionals, transfer_matrix
from .linalg import as_complex_array, readonly
from .serialize import FormatError, finite_number
from .structure_maps import OperatorMap

__all__ = [
    "PartitionMismatch",
    "StepFunction",
    "GridSpec",
    "walk_matrix_element",
    "step_function_to_payload",
    "step_function_from_payload",
]

#: relative tolerance for grid/partition alignment
ALIGN_RTOL = 1e-9


class PartitionMismatch(ValueError):
    """A step function is not constant on the cells of the requested grid."""


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
        breakpoints = np.concatenate([[0.0], np.cumsum(durations)])
        breakpoints.setflags(write=False)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "values", readonly(values))
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "total_time", float(np.sum(durations)))

    @classmethod
    def constant(cls, value, duration: float) -> "StepFunction":
        return cls(durations=np.array([duration]), values=np.atleast_2d(as_complex_array(value)))

    @classmethod
    def from_segments(cls, segments) -> "StepFunction":
        """segments: iterable of (duration, value) pairs."""
        durations, values = zip(*segments)
        return cls(durations=np.array(durations, dtype=float), values=np.array([np.atleast_1d(v) for v in values]))

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

    def overlap(self, other: "StepFunction", a: float = 0.0, b: float | None = None) -> complex:
        """integral_a^b <self(s), other(s)> ds (first argument conjugated)."""
        if self.noise_dim != other.noise_dim:
            raise ValueError("step functions have different noise dimensions")
        upper = max(self.total_time, other.total_time)
        b = upper if b is None else min(b, upper)
        if b <= a:
            return 0.0 + 0.0j
        return complex(sum((hi - lo) * np.vdot(u, v) for lo, hi, u, v in _pieces(a, b, self, other)))

    def exponential_inner(self, other: "StepFunction") -> complex:
        """<eps(self), eps(other)> = exp(full overlap integral)."""
        return complex(np.exp(self.overlap(other)))


def _pieces(a: float, b: float, f: StepFunction, g: StepFunction):
    """(lo, hi, f(mid), g(mid)) over the common refinement of f, g and [a, b)."""
    cuts = sorted({float(a), float(b)} | {float(t) for fn in (f, g) for t in fn.breakpoints if a < t < b})
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        yield lo, hi, f.value_at(mid), g.value_at(mid)


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid of n cells of width h covering [0, n h)."""

    h: float
    n: int

    def __post_init__(self):
        if self.h <= 0 or self.n < 0:
            raise ValueError("grid requires h > 0 and n >= 0")

    @property
    def horizon(self) -> float:
        return self.h * self.n

    @classmethod
    def from_time(cls, t: float, h: float) -> "GridSpec":
        """Floor convention: n = floor(t / h), tolerant of float division dust."""
        if h <= 0:
            raise ValueError("step length h must be positive")
        return cls(h=h, n=int(np.floor(t / h + ALIGN_RTOL)))


def _on_grid(t: float, h: float) -> bool:
    ratio = t / h
    return abs(ratio - round(ratio)) <= ALIGN_RTOL * max(1.0, abs(ratio))


def _validate_alignment(f: StepFunction, grid: GridSpec):
    for t in f.breakpoints:
        if t < grid.horizon * (1 - ALIGN_RTOL) and not _on_grid(float(t), grid.h):
            raise PartitionMismatch(
                f"step-function breakpoint {t:g} is not a multiple of h = {grid.h:g}; "
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
    at b, times the tail factor.  The checks run on every call; the
    convolution row and the tail are reused from the previous call when
    psi, f and g are the same objects and the grid is the same.
    """
    src = psi.source
    grid = GridSpec.from_time(t, h)
    if psi.dim != f.noise_dim + 1 or f.noise_dim != g.noise_dim:
        raise ValueError(
            f"walk step acts on hat dimension {psi.dim} but step functions have "
            f"noise dimension {f.noise_dim}/{g.noise_dim}"
        )
    _validate_alignment(f, grid)
    _validate_alignment(g, grid)
    b_coeffs = _as_coeffs(src, b_coeffs)
    root_h = np.sqrt(grid.h)

    def power(c, d, duration):
        u, v = psi.hat.hat(root_h * c), psi.hat.hat(root_h * d)
        lam = np.einsum("a,iab,b->i", np.conjugate(u), psi.mats, v)
        return np.linalg.matrix_power(transfer_matrix(src, lam), round(duration / grid.h)) @ src.counit

    global _last_walk
    key = (psi, f, g), (grid.horizon, grid.h)
    entry = _last_walk
    if not _matches(entry, *key):
        entry = _last_walk = (*key, *_piecewise_product(src, f, g, grid.horizon, power))
    return complex(np.dot(entry[2], b_coeffs) * entry[3])


#: the last walk functional, (objects, values, row, tail); rebound as one
#: tuple, so a concurrent caller can miss it but never read a mixed entry
_last_walk = None


def _matches(entry, objects: tuple, values: tuple) -> bool:
    """Whether entry was made for these objects (compared by identity) and values (by equality).

    The entry holds its objects, so their ids cannot be recycled; they
    are frozen and hold read-only arrays, so identity fixes their content.
    """
    return entry is not None and entry[1] == values and all(a is b for a, b in zip(entry[0], objects))


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
        return src.basis_coeffs(int(b_coeffs))
    arr = as_complex_array(b_coeffs)
    if arr.shape != (src.dim,):
        raise ValueError(f"element coefficients have shape {arr.shape}, expected ({src.dim},)")
    return arr


def step_function_to_payload(f: StepFunction) -> list:
    """Rows [duration, [re, im], ...] with one complex pair per noise component."""
    rows = []
    for dur, val in zip(f.durations, f.values):
        rows.append([float(dur)] + [[float(np.real(z)), float(np.imag(z))] for z in val])
    return rows


def step_function_from_payload(rows) -> StepFunction:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise FormatError("step function payload must be a nonempty list of rows")
    durations = []
    values = []
    width = None
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) < 2:
            raise FormatError(f"step-function row {row!r} must be [duration, [re, im], ...]")
        durations.append(finite_number(row[0]))
        comps = []
        for pair in row[1:]:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise FormatError(f"step-function component {pair!r} must be [re, im]")
            comps.append(complex(finite_number(pair[0]), finite_number(pair[1])))
        if width is None:
            width = len(comps)
        elif width != len(comps):
            raise FormatError("step-function rows have inconsistent noise dimensions")
        values.append(comps)
    return StepFunction(durations=np.array(durations), values=np.array(values, dtype=complex))
