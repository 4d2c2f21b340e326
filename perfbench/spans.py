"""Span recorder for the traced pass, and the wrappers that feed it.

The untraced pass never imports this module.  The traced pass wraps the
module-level names that qwalklab's callers actually bind (for example
``qwalklab.experiment.walk_matrix_element``, not ``qwalklab.fock``'s own
copy), records one span per call in memory, and restores every original
attribute when it ends.  Counters are attributed to the innermost open span.

A span is (id, name, parent id, thread id, wall start, wall end, thread CPU
start, thread CPU end).  Context variables do not cross a
ThreadPoolExecutor, so a span that opens with no parent while an
``experiment.run_sweep`` span is open is adopted by that span.
"""
from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import math
import os
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

ADOPTING_SPAN = "experiment.run_sweep"


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    cpu_start: float
    cpu_end: float


class Recorder:
    """Spans and counters kept in memory until take() hands them out."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._adopters: list[tuple[int, str]] = []
        self._spans: list[Span] = []
        self._counts: dict[tuple[str, str | None], int] = {}

    def _innermost(self) -> tuple[int, str] | None:
        current = self._current.get()
        if current is None and self._adopters:
            return self._adopters[-1]
        return current

    @contextmanager
    def span(self, name: str):
        parent = self._innermost()
        sid = next(self._ids)
        token = self._current.set((sid, name))
        if name == ADOPTING_SPAN:
            with self._lock:
                self._adopters.append((sid, name))
        cpu0, t0 = time.thread_time(), time.perf_counter()
        try:
            yield
        finally:
            t1, cpu1 = time.perf_counter(), time.thread_time()
            self._current.reset(token)
            span = Span(sid, name, parent and parent[0], threading.get_ident(), t0, t1, cpu0, cpu1)
            with self._lock:
                if name == ADOPTING_SPAN:
                    self._adopters.remove((sid, name))
                self._spans.append(span)

    def count(self, name: str, n: int = 1) -> None:
        inner = self._innermost()
        key = (name, inner and inner[1])
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + n

    def take(self) -> tuple[list[Span], dict[tuple[str, str | None], int]]:
        """Everything recorded since the last take, in the order spans ended."""
        with self._lock:
            spans, counts = self._spans, self._counts
            self._spans, self._counts = [], {}
        return spans, counts


def traced_import(rec: Recorder) -> None:
    """Import qwalklab under spans; scipy.linalg (which supplies expm) gets its own."""
    with rec.span("import.qwalklab"):
        import numpy  # noqa: F401

        with rec.span("import.scipy_linalg"):
            import scipy.linalg  # noqa: F401
        import qwalklab  # noqa: F401
        import qwalklab.cli  # noqa: F401


# -- wrappers ----------------------------------------------------------------

#: (module, attribute path, span name): one span per call
SPANNED = (
    ("qwalklab.experiment", "ExperimentConfig.from_file", "experiment.config"),
    ("qwalklab.experiment", "run_verify", "experiment.run_verify"),
    ("qwalklab.experiment", "run_sweep", "experiment.run_sweep"),
    ("qwalklab.cli", "run_verify", "experiment.run_verify"),
    ("qwalklab.cli", "run_sweep", "experiment.run_sweep"),
    ("qwalklab.bialgebra", "verify_bialgebra", "bialgebra.verify"),
    ("qwalklab.experiment", "verify_bialgebra", "bialgebra.verify"),
    ("qwalklab.experiment", "verify_structure_relation", "structure_maps.checks"),
    ("qwalklab.experiment", "extract_implementing_pair", "structure_maps.checks"),
    ("qwalklab.experiment", "verify_cp_decomposition", "structure_maps.checks"),
    ("qwalklab.experiment", "build_walk", "walk.build"),
    ("qwalklab.experiment", "verify_error_identity", "walk.error_identity"),
    ("qwalklab.experiment", "check_compatibility", "convolution.compatibility"),
    ("qwalklab.experiment", "walk_matrix_element", "fock.walk_matrix_element"),
    ("qwalklab.cocycle", "CocycleEvaluator.matrix_element", "cocycle.matrix_element"),
    ("qwalklab.experiment", "amplified_norm", "cbnorm.amplified_norm"),
    ("qwalklab.cli", "write_json", "serialize.write_json"),
    ("qwalklab.experiment", "write_json", "serialize.write_json"),
)

#: (module, attribute path, counter name): one count per call
COUNTED = (
    ("qwalklab.fock", "convolve_functionals", "fock.convolutions"),
    ("qwalklab.convolution", "expm", "convolution.expm_calls"),
    ("qwalklab.cocycle", "ConvolutionSemigroup", "convolution.semigroup_builds"),
    ("qwalklab.experiment", "ConvolutionSemigroup", "convolution.semigroup_builds"),
    ("qwalklab.convolution", "ConvolutionSemigroup.at", "convolution.semigroup_evals"),
    ("qwalklab.cbnorm", "AmplifiedMap.apply", "cbnorm.ascent_iters"),
)


def _spanned(rec: Recorder, name: str, fn):
    if name == "fock.walk_matrix_element":

        @functools.wraps(fn)
        def walk_element(psi, b_coeffs, f, g, t, h):
            with rec.span(name):
                rec.count("fock.chain_steps", int(math.floor(t / h + 1e-9)))
                return fn(psi, b_coeffs, f, g, t, h)

        return walk_element
    if name == "serialize.write_json":

        @functools.wraps(fn)
        def write_json(path, payload):
            with rec.span(name):
                fn(path, payload)
                rec.count("serialize.bytes_written", os.path.getsize(path))

        return write_json

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)

    return spanned


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn, updated=())
    def counted(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return counted


class Installed(NamedTuple):
    owner: object
    attr: str
    original: object


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(rec: Recorder) -> list[Installed]:
    """Replace every wrapped attribute; hand the result to restore()."""
    installed = []
    try:
        for table, make in ((SPANNED, _spanned), (COUNTED, _counted)):
            for module, path, name in table:
                owner, attr = _resolve(module, path)
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(make(rec, name, original.__func__))
                else:
                    wrapped = make(rec, name, original)
                setattr(owner, attr, wrapped)
                installed.append(Installed(owner, attr, original))
    except BaseException:
        restore(installed)
        raise
    return installed


def restore(installed: list[Installed]) -> None:
    for item in reversed(installed):
        setattr(item.owner, item.attr, item.original)


def restored(installed: list[Installed]) -> bool:
    """True when every wrapped attribute is the original object again."""
    return all(vars(item.owner)[item.attr] is item.original for item in installed)


# -- per-layer arithmetic ----------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> wall time minus what its children on the same thread cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {
        s.id: (s.end - s.start)
        - _covered([(c.start, c.end) for c in children.get(s.id, ()) if c.thread == s.thread], s.start, s.end)
        for s in spans
    }


def worker_threads(spans: list[Span]) -> dict[int, int]:
    """Span id -> number of distinct other threads among its direct children."""
    by_id = {s.id: s for s in spans}
    threads: dict[int, set[int]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and s.thread != parent.thread:
            threads.setdefault(parent.id, set()).add(s.thread)
    return {sid: len(ts) for sid, ts in threads.items()}


#: totals combined across repetitions and processes by max instead of sum
MAX_TOTALS = ("experiment.sweep_threads",)


def layer_totals(spans: list[Span], counts: dict) -> dict[str, float]:
    """Additive per-name totals: calls, wall, self, wait; counters, in total and per span."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        for key, value in (
            ("calls", 1),
            ("wall", s.end - s.start),
            ("self", selfs[s.id]),
            ("wait", (s.end - s.start) - (s.cpu_end - s.cpu_start)),
        ):
            totals[f"{s.name}.{key}"] = totals.get(f"{s.name}.{key}", 0) + value
    for (name, inner), n in counts.items():
        totals[name] = totals.get(name, 0) + n
        totals[f"{name}@{inner}"] = totals.get(f"{name}@{inner}", 0) + n
    adopting = {s.id for s in spans if s.name == ADOPTING_SPAN}
    totals["experiment.sweep_threads"] = max(
        (n for sid, n in worker_threads(spans).items() if sid in adopting), default=0
    )
    return totals


def combine(*parts: dict[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = max(out.get(key, 0), value) if key in MAX_TOTALS else out.get(key, 0) + value
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics (value, unit) of one repetition's totals."""
    g = lambda key: t.get(key, 0)  # noqa: E731
    fock_s = g("fock.walk_matrix_element.wall")
    return {
        "import.qwalklab_s": (g("import.qwalklab.wall"), "s"),
        "import.scipy_linalg_s": (g("import.scipy_linalg.wall"), "s"),
        "experiment.config_s": (g("experiment.config.wall"), "s"),
        "experiment.run_verify_s": (g("experiment.run_verify.wall"), "s"),
        "experiment.run_sweep_s": (g("experiment.run_sweep.wall"), "s"),
        "experiment.run_sweep_self_s": (g("experiment.run_sweep.self"), "s"),
        "experiment.sweep_threads": (g("experiment.sweep_threads"), "count"),
        "bialgebra.verify_calls": (g("bialgebra.verify.calls"), "count"),
        "bialgebra.verify_s": (g("bialgebra.verify.wall"), "s"),
        "structure_maps.checks_calls": (g("structure_maps.checks.calls"), "count"),
        "structure_maps.checks_s": (g("structure_maps.checks.wall"), "s"),
        "walk.build_calls": (g("walk.build.calls"), "count"),
        "walk.build_s": (g("walk.build.wall"), "s"),
        "walk.error_identity_s": (g("walk.error_identity.wall"), "s"),
        "convolution.compatibility_s": (g("convolution.compatibility.wall"), "s"),
        "convolution.expm_calls": (g("convolution.expm_calls"), "count"),
        "convolution.semigroup_builds": (g("convolution.semigroup_builds"), "count"),
        "convolution.semigroup_evals": (g("convolution.semigroup_evals"), "count"),
        "fock.calls": (g("fock.walk_matrix_element.calls"), "count"),
        "fock.wall_s": (fock_s, "s"),
        "fock.self_s": (g("fock.walk_matrix_element.self"), "s"),
        "fock.wait_s": (g("fock.walk_matrix_element.wait"), "s"),
        "fock.chain_steps": (g("fock.chain_steps"), "count"),
        "fock.convolutions": (g("fock.convolutions"), "count"),
        "fock.us_per_step": (1e6 * _ratio(fock_s, g("fock.chain_steps")), "us"),
        "cocycle.calls": (g("cocycle.matrix_element.calls"), "count"),
        "cocycle.wall_s": (g("cocycle.matrix_element.wall"), "s"),
        "cocycle.semigroup_hit_ratio": (
            1.0
            - _ratio(
                g("convolution.semigroup_builds@cocycle.matrix_element"),
                g("convolution.semigroup_evals@cocycle.matrix_element"),
            )
            if g("convolution.semigroup_evals@cocycle.matrix_element")
            else 0.0,
            "ratio",
        ),
        "cbnorm.calls": (g("cbnorm.amplified_norm.calls"), "count"),
        "cbnorm.wall_s": (g("cbnorm.amplified_norm.wall"), "s"),
        "cbnorm.wait_s": (g("cbnorm.amplified_norm.wait"), "s"),
        "cbnorm.ascent_iters": (g("cbnorm.ascent_iters"), "count"),
        "cbnorm.iters_per_call": (_ratio(g("cbnorm.ascent_iters"), g("cbnorm.amplified_norm.calls")), "count"),
        "serialize.write_calls": (g("serialize.write_json.calls"), "count"),
        "serialize.write_s": (g("serialize.write_json.wall"), "s"),
        "serialize.bytes_written": (g("serialize.bytes_written"), "bytes"),
    }
