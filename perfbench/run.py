"""qwalklab benchmark: one workload, one seed, one pass per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a qwalklab checkout; it uses the checkout's own
``src`` and, apart from bytecode caches, writes only under ``.perfbench/``
at the checkout root.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
records the machine, the seed and the repetition count behind each median.

It is a closed loop with one client: it starts an operation only
when the previous one has completed, and uses a single thread of its own.
BLAS and OpenMP thread settings are left as the environment has them.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "demo_errors.json"
OUT = ROOT / ".perfbench"

#: fewest fresh interpreters whose median import + config time is setup_s;
#: an untraced run takes one after every repetition
SETUP_PROCESSES = 5
#: repetitions measured even when --seconds is shorter than that many
MIN_REPS = 3
CHILD_TIMEOUT_S = 170
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Outcome:
    """Operations attempted, the reasons any of them failed, and the raw samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(*args: str) -> dict:
    """Run child.py in a fresh interpreter and return the JSON it prints last."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    module = out.get("module")
    if module is not None and not Path(module).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"child imported qwalklab from {module}, not from {SRC}")
    return out


def import_qwalklab():
    import qwalklab

    if not Path(qwalklab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported qwalklab from {qwalklab.__file__}, not from {SRC}")
    from qwalklab import experiment

    return experiment


def measure(rep, seconds: float) -> list:
    """Repetitions, one at a time, while another fits in `seconds`; at least MIN_REPS.

    rep() returns a tuple whose first item is its wall time.  Whether another
    fits is judged by the median time a whole call of rep() took, so work that
    rep() does besides the timed operation counts against `seconds` too.
    """
    samples, calls = [], []
    start = time.perf_counter()
    while len(samples) < MIN_REPS or time.perf_counter() - start + statistics.median(calls) <= seconds:
        t0 = time.perf_counter()
        samples.append(rep())
        calls.append(time.perf_counter() - t0)
    return samples


def with_setup(rep, setup_args: tuple, setups: list):
    """rep, followed by one setup_s sample from a fresh interpreter.

    Spreading the set-up samples over the whole run, between repetitions,
    gives setup_s the same stretch of host load as run_s and cpu_s.
    """

    def both():
        out = rep()
        setups.append(run_child("setup", *setup_args)["setup_s"])
        return out

    return both


def top_up_setups(setup_args: tuple, setups: list) -> None:
    while len(setups) < SETUP_PROCESSES:
        setups.append(run_child("setup", *setup_args)["setup_s"])


def vm_hwm_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def guarded(fn, *args) -> tuple[object, list[str]]:
    """fn(*args), with an exception turned into a failure of that operation."""
    try:
        return fn(*args), []
    except Exception:
        return None, [traceback.format_exc(limit=4)]


# -- the in-process workloads --------------------------------------------------


def in_process_rep(experiment, workload: str, config, reference, frozen) -> tuple[float, float, list[str]]:
    op = getattr(experiment, workloads.IN_PROCESS_OPS[workload])
    c0, t0 = time.process_time(), time.perf_counter()
    result, failures = guarded(op, config)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if result is not None:
        failures = workloads.check_report(workload, result.report, reference, frozen)
    return wall, cpu, failures


def untraced_in_process(workload: str, seed: int, seconds: float, work: Path, outcome: Outcome) -> dict:
    experiment = import_qwalklab()
    path = workloads.write_config(workload, seed, work / "config")
    config = experiment.ExperimentConfig.from_file(path)
    reference, frozen = workloads.load_reference(workload, seed), json.loads(FIXTURE.read_text())
    rep = lambda: in_process_rep(experiment, workload, config, reference, frozen)  # noqa: E731
    outcome.record(rep()[2])  # warm-up
    # this process is fresh and has now run the workload once
    peak_mb = vm_hwm_mb()
    setups = []
    samples = measure(with_setup(rep, (str(path),), setups), seconds)
    top_up_setups((str(path),), setups)
    for *_, failures in samples:
        outcome.record(failures)
    return end_to_end(setups, samples, peak_mb, outcome)


# -- demo-cli -------------------------------------------------------------------


def demo_pass(work: Path, frozen: dict, first: dict) -> tuple[float, float, list[str]]:
    """One pass of `python -m qwalklab demo NAME`, one subprocess at a time."""
    env = child_env()
    u0, t0 = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    codes = {}
    for name in workloads.DEMOS:
        codes[name] = subprocess.run(
            [sys.executable, "-m", "qwalklab", "demo", name, "--out", str(work / name)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S,
        ).returncode
    wall, u1 = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (u1.ru_utime - u0.ru_utime) + (u1.ru_stime - u0.ru_stime)
    failures = []
    for name, code in codes.items():
        if code != 0:
            failures.append(f"{name}: exit code {code}")
            continue
        checked, errors = guarded(workloads.check_demo_outputs, name, work / name, frozen, first)
        failures += errors + (checked or [])
    return wall, cpu, failures


def untraced_demo(seconds: float, work: Path, outcome: Outcome) -> dict:
    frozen, first = json.loads(FIXTURE.read_text()), {}
    # the warm-up pass is this process's first child work, so the largest
    # ru_maxrss among children is then the largest demo process
    outcome.record(demo_pass(work, frozen, first)[2])
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    configs = tuple(str(work / name / "config.json") for name in workloads.DEMOS)
    setups = []
    samples = measure(with_setup(lambda: demo_pass(work, frozen, first), configs, setups), seconds)
    top_up_setups(configs, setups)
    for *_, failures in samples:
        outcome.record(failures)
    return end_to_end(setups, samples, peak_mb, outcome)


def end_to_end(setups: list[float], samples: list, peak_mb: float, outcome: Outcome) -> dict:
    """metric -> (median, samples behind it, unit)."""
    outcome.samples.update(setup_s=setups, run_s=[s[0] for s in samples], cpu_s=[s[1] for s in samples])
    return {
        "setup_s": (statistics.median(setups), len(setups), "s"),
        "run_s": (statistics.median(s[0] for s in samples), len(samples), "s"),
        "cpu_s": (statistics.median(s[1] for s in samples), len(samples), "s"),
        "peak_rss_mb": (peak_mb, 1, "MB"),
    }


# -- traced pass ----------------------------------------------------------------


def traced_in_process(workload: str, seed: int, seconds: float, work: Path, outcome: Outcome, spans_out: list):
    import spans

    rec = spans.Recorder()
    spans.traced_import(rec)
    experiment = import_qwalklab()
    path = workloads.write_config(workload, seed, work / "config")
    installed = spans.install(rec)
    try:
        config = experiment.ExperimentConfig.from_file(path)
    finally:
        spans.restore(installed)
    setup_spans, setup_counts = rec.take()
    spans_out.extend(s._asdict() for s in setup_spans)
    setup_totals = spans.layer_totals(setup_spans, setup_counts)
    expected_steps = 0
    if workloads.IN_PROCESS_OPS[workload] == "run_sweep":
        expected_steps = workloads.chain_steps(config.h_values, config.sample_times, len(config.pairs) * len(config.probes))
    reference, frozen = workloads.load_reference(workload, seed), json.loads(FIXTURE.read_text())

    def untraced():
        wall, _, failures = in_process_rep(experiment, workload, config, reference, frozen)
        return wall, None, failures

    def traced():
        installed = spans.install(rec)
        try:
            wall, _, failures = in_process_rep(experiment, workload, config, reference, frozen)
        finally:
            spans.restore(installed)
        recorded, counts = rec.take()
        spans_out.extend(s._asdict() for s in recorded)
        totals = spans.combine(setup_totals, spans.layer_totals(recorded, counts))
        if not spans.restored(installed):
            failures.append("wrapped attributes were not restored")
        if totals.get("fock.chain_steps", 0) != expected_steps:
            failures.append(f"fock.chain_steps {totals.get('fock.chain_steps', 0)} != analytic {expected_steps}")
        return wall, totals, failures

    outcome.record(untraced()[2])  # warm-up
    return alternate(untraced, traced, seconds, outcome)


def traced_demo(seconds: float, work: Path, outcome: Outcome, spans_out: list):
    import spans

    frozen, first = json.loads(FIXTURE.read_text()), {}

    def untraced():
        wall, _, failures = demo_pass(work, frozen, first)
        return wall, None, failures

    def traced():
        t0, parts, failures = time.perf_counter(), [], []
        for name in workloads.DEMOS:
            child, errors = guarded(run_child, "traced-demo", name, str(work / name))
            if errors:
                failures += errors
                continue
            spans_out.extend(dict(s, demo=name) for s in child["spans"])
            parts.append(child["totals"])
            if child["exit"] != 0:
                failures.append(f"{name}: exit code {child['exit']}")
                continue
            if not child["restored"]:
                failures.append(f"{name}: wrapped attributes were not restored")
            checked, errors = guarded(workloads.check_demo_outputs, name, work / name, frozen, first)
            failures += errors + (checked or [])
        return time.perf_counter() - t0, spans.combine(*parts), failures

    outcome.record(untraced()[2])  # warm-up
    return alternate(untraced, traced, seconds, outcome)


def alternate(untraced, traced, seconds: float, outcome: Outcome) -> dict:
    """Untraced and traced repetitions in turn; per-layer medians and the overhead."""
    import spans

    def pair():
        plain, with_trace = untraced(), traced()
        return plain[0] + with_trace[0], plain, with_trace

    pairs = measure(pair, seconds)
    for _, plain, with_trace in pairs:
        outcome.record(plain[2])
        outcome.record(with_trace[2])
    per_rep = [spans.layer_metrics(totals) for _, _, (_, totals, _) in pairs]
    metrics = {name: (statistics.median(m[name][0] for m in per_rep), len(per_rep)) for name in per_rep[0]}
    units = {name: unit for name, (_, unit) in per_rep[0].items()}
    overhead = statistics.median(t[0] for _, _, t in pairs) - statistics.median(u[0] for _, u, _ in pairs)
    metrics["trace.overhead_s"] = (overhead, len(pairs))
    units["trace.overhead_s"] = "s"
    outcome.samples.update(run_s=[u[0] for _, u, _ in pairs], traced_run_s=[t[0] for _, _, t in pairs])
    return {name: (value, n, units[name]) for name, (value, n) in metrics.items()}


# -- reporting ------------------------------------------------------------------


def describe_machine() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        **{name: os.environ.get(name, "unset") for name in THREAD_VARIABLES},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "qwalklab" / "__init__.py", FIXTURE, workloads.REFERENCES) if not p.is_file()]
    if missing:
        print(f"perfbench: not a qwalklab checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    outcome, spans_out = Outcome(), []
    try:
        if args.trace and args.workload == "demo-cli":
            measured = traced_demo(args.seconds, work, outcome, spans_out)
        elif args.trace:
            measured = traced_in_process(args.workload, args.seed, args.seconds, work, outcome, spans_out)
        elif args.workload == "demo-cli":
            measured = untraced_demo(args.seconds, work, outcome)
        else:
            measured = untraced_in_process(args.workload, args.seed, args.seconds, work, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = outcome.failed / outcome.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": workloads.variant_of(args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": describe_machine(),
        "repetitions": {name: n for name, (_, n, _) in measured.items()},
        "failed_frac": failed_frac,
        "failures": outcome.failures[:20],
        "samples": outcome.samples,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(dict(record, metrics={k: v for k, (v, _, _) in measured.items()})) + "\n"
    )
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans_out) + "\n")
    for failure in outcome.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for name, (value, n, unit) in measured.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} (median of {n})")
    if not args.trace:
        print(f"{'failed_frac':32s} {failed_frac:14.6g} {'ratio':6s} ({outcome.failed} of {outcome.attempted})")
    print(json.dumps({k: v for k, v in record.items() if k != "samples"}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, _, unit) in measured.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
