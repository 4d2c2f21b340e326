"""An extended-precision oracle for the sweep: every walk and limit matrix element in mpmath.

It reads the binary floats that a parsed config holds (the coproduct and counit of the
bialgebra, the character, the triple (pi, xi, D) and the step functions) and computes all
else from them at DIGITS decimal digits, with no code shared with the package:

- the transfer matrix T_lam[i, j] = sum_k Delta[i, j, k] lam_k, so that T_lam f = f * lam;
- the one-cell functional lam(b) = <(1, h^1/2 c), V* (chi (+) pi)(b) V (1, h^1/2 d)> of the
  walk step, with V = U diag(1, D) and U rebuilt from xi and h;
- a walk piece of m cells as T_lam**m (repeated squaring) applied to the counit, and a limit
  piece of duration tau as expm(tau T_phi) applied to it, where
  phi_{c,d}(b) = <(1, c), V0* nu(b) V0 (1, d)> + <c, d> eps(b), V0 = [xi, D], nu = pi - chi I;
- the pieces of the common refinement of f and g joined left to right, times the tail
  exp integral_t^infinity <f, g>.

D is orthonormalized first, D (D* D)^(-1/2), so the oracle's walk is isometric even where
the floats of D are an isometry only to rounding.  The rounding of a walk piece grows with
its cell count m, at most 2**53, so at 60 digits every error a sweep reports is exact to
far more digits than a double holds.
"""
import mpmath
import numpy as np

DIGITS = 60

#: a context of its own, so that the working precision of other mpmath users is left alone
_mp = mpmath.MPContext()
_mp.dps = DIGITS


def _number(z):
    """z as an mpc: a double converts exactly."""
    return _mp.mpc(complex(z))


def _rows(array) -> list:
    """A matrix as a list of rows of mpc."""
    return [[_number(z) for z in row] for row in array]


def _apply(rows, x) -> list:
    return [_mp.fsum(a * b for a, b in zip(row, x)) for row in rows]


def _column(matrix) -> list:
    return [matrix[i] for i in range(matrix.rows)]


def _inner(u, v):
    """<u, v>, the first argument conjugated."""
    return _mp.fsum(_mp.conj(a) * b for a, b in zip(u, v))


def _breakpoints(fn) -> list:
    """0 and the running sums of fn's durations."""
    out = [_mp.mpf(0)]
    for duration in fn.durations:
        out.append(out[-1] + _mp.mpf(float(duration)))
    return out


def _pieces(f, g, lo, hi):
    """(duration, c, d) over the common refinement of f, g and [lo, hi), where f = c and g = d."""

    def value(fn, points, s):
        for k in range(len(fn.durations)):
            if points[k] <= s < points[k + 1]:
                return [_number(z) for z in fn.values[k]]
        return [_mp.mpc(0)] * fn.values.shape[1]

    points = [_breakpoints(fn) for fn in (f, g)]
    cuts = sorted({_mp.mpf(lo), _mp.mpf(hi)} | {t for ts in points for t in ts if lo < t < hi})
    for a, b in zip(cuts[:-1], cuts[1:]):
        yield b - a, value(f, points[0], a), value(g, points[1], a)


class SweepOracle:
    """The walk and limit matrix elements of one parsed config, at any step length on its grid."""

    def __init__(self, config):
        b, triple = config.bialgebra, config.triple
        self.config = config
        self.dim = b.dim
        self.delta = [(i, j, k, _number(b.coproduct[i, j, k])) for i, j, k in np.argwhere(b.coproduct != 0)]
        self.counit = [_number(z) for z in b.counit]
        self.chi = [_number(z) for z in config.chi]
        self.pi = [_rows(mat) for mat in triple.pi]
        self.xi = [_number(z) for z in triple.xi]
        if triple.D is None:
            self.d_rows = _rows(np.eye(len(self.xi)))
        else:
            d_mat = _mp.matrix(_rows(triple.D))
            d_mat = d_mat * _mp.inverse(_mp.sqrtm(d_mat.H * d_mat))
            self.d_rows = d_mat.tolist()
        self.limits = {
            (k, t): self._functional(f, g, t, self._limit_piece)
            for k, (f, g) in enumerate(config.pairs)
            for t in config.sample_times
        }

    def errors(self, h: float) -> dict:
        """|walk - limit| at step length h, keyed by the sweep's column label p<k>_t<t>_b<probe>."""
        h = _mp.mpf(h)
        u = self._unitary(h)

        def walk_piece(c, d, tau):
            """lam^{*m} over the m = tau / h cells of a piece."""
            m = int(_mp.nint(tau / h))
            assert m * h == tau, "the h-grid must refine the step partition"
            left, right = (_apply(u, [1, *self._embed([_mp.sqrt(h) * z for z in x])]) for x in (c, d))
            lam = [
                _mp.conj(left[0]) * chi * right[0] + _inner(left[1:], _apply(pi, right[1:]))
                for chi, pi in zip(self.chi, self.pi)
            ]
            return _column(self._transfer(lam) ** m * _mp.matrix(self.counit))

        out = {}
        for k, (f, g) in enumerate(self.config.pairs):
            for t in self.config.sample_times:
                assert _mp.nint(t / h) * h == t, "the oracle takes sample times on the h-grid"
                walk = self._functional(f, g, t, walk_piece)
                for probe in self.config.probes:
                    out[f"p{k}_t{t:g}_b{probe}"] = abs(walk[probe] - self.limits[k, t][probe])
        return out

    def _functional(self, f, g, t: float, factor) -> list:
        """The values on the basis of F_1 * ... * F_m times exp(integral_t <f, g>), F_k = factor(c, d, tau)."""
        row = self.counit
        for tau, c, d in _pieces(f, g, 0, t):
            piece, joined = factor(c, d, tau), [_mp.mpc(0)] * self.dim
            for i, j, k, v in self.delta:
                joined[i] += v * row[j] * piece[k]
            row = joined
        end = max(_breakpoints(f)[-1], _breakpoints(g)[-1], _mp.mpf(t))
        tail = _mp.exp(_mp.fsum(tau * _inner(c, d) for tau, c, d in _pieces(f, g, t, end)))
        return [x * tail for x in row]

    def _transfer(self, lam):
        """T[i, j] = sum_k Delta[i, j, k] lam_k, so that T f = f * lam."""
        out = _mp.matrix(self.dim, self.dim)
        for i, j, k, v in self.delta:
            out[i, j] += v * lam[k]
        return out

    def _unitary(self, h) -> list:
        """U = [[c_h, -s_h*], [s_h, c_h q + 1 - q]], with s_h = h^1/2 xi and q the projection on xi."""
        xi = self.xi
        norm_sq = _inner(xi, xi).real
        c_h, root_h = _mp.sqrt(1 - h * norm_sq), _mp.sqrt(h)
        top = [c_h] + [-root_h * _mp.conj(x) for x in xi]
        rest = [
            [root_h * xa] + [(c_h - 1) * xa * _mp.conj(xb) / norm_sq + (a == b) for b, xb in enumerate(xi)]
            for a, xa in enumerate(xi)
        ]
        return [top, *rest]

    def _embed(self, x) -> list:
        """D x."""
        return _apply(self.d_rows, x)

    def _limit_piece(self, c, d, tau) -> list:
        """exp_*(tau phi_{c,d}), with V0 (1, c) = xi + D c."""
        left, right = ([a + b for a, b in zip(self.xi, self._embed(x))] for x in (c, d))
        overlap, cd = _inner(left, right), _inner(c, d)
        phi = [
            _inner(left, _apply(pi, right)) - chi * overlap + cd * eps
            for chi, pi, eps in zip(self.chi, self.pi, self.counit)
        ]
        return _column(_mp.expm(tau * self._transfer(phi)) * _mp.matrix(self.counit))
