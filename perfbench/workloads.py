"""The benchmark's workloads: config generation from a seed and output checks.

Standard library only, so that run.py can generate configs and check
outputs without importing numpy (the traced pass times that import itself).
"""
from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

WORKLOADS = ("demo-cli", "sweep-deep", "verify-large", "sweep-wide")
IN_PROCESS_OPS = {"sweep-deep": "run_sweep", "verify-large": "run_verify", "sweep-wide": "run_sweep"}
DEMOS = ("c-z2", "group-z2", "group-s3", "custom-file")
DEMO_OUTPUTS = ("report.json", "errors.csv", "errors.dat")

#: seeds select one of this many variants (seed mod VARIANTS); references.json
#: holds the recorded output of each variant of verify-large and sweep-wide
VARIANTS = 32
#: rule of the frozen demo tables (tests/test_acceptance.py, criterion 7)
DEMO_RTOL = 1e-9
#: seeded tables: rtol 1e-9 with an absolute floor above the eps/h rounding
#: (about 5e-13 at h = 2^-11) that a better-conditioned walk may move
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12

XI_NORM = 1.5
STEP_VALUE_NORM = 1.0
SWEEP_DEEP_COUNT = 10

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


def _cvec(rng: random.Random, n: int, norm: float) -> list[complex]:
    """A complex n-vector of the given norm with a direction uniform on the sphere."""
    v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
    scale = norm / math.sqrt(sum(abs(z) ** 2 for z in v))
    return [z * scale for z in v]


def _pairs(v: list[complex]) -> list[list[float]]:
    return [[z.real, z.imag] for z in v]


def _step_function(rng: random.Random, n: int, segments: int) -> list:
    return [[1.0 / segments] + _pairs(_cvec(rng, n, STEP_VALUE_NORM)) for _ in range(segments)]


def _s3_right_translate(v: list[complex], k: int) -> list[complex]:
    """v moved by right translation e_g -> e_{g g_k} on the basis of C[S3].

    Right translations commute with the left regular representation, so a
    triple whose xi is translated this way (or multiplied by a phase) gives a
    unitarily equivalent walk and generator: the cb-norm ascent does the same
    number of iterations and the generator gap is unchanged, while the
    matrix-element errors still depend on the seed.  Elements are ordered as
    qwalklab.groups.symmetric_group(3) orders them.
    """
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    out = [0j] * len(perms)
    for h, p in enumerate(perms):
        out[index[tuple(p[q] for q in perms[k])]] = v[h]
    return out


def verify_large_payload(variant: int) -> dict:
    """C[Z10] with the counit, regular pi, random xi of norm 1.5, depth 2."""
    rng = random.Random(variant)
    return {
        "label": "verify-large",
        "bialgebra": {"builtin": "group_algebra", "group": "z10"},
        "character": "counit",
        "triple": {"pi": "regular", "xi": _pairs(_cvec(rng, 10, XI_NORM))},
        "step_function_pairs": [{"f": _step_function(rng, 10, 2), "g": _step_function(rng, 10, 2)}],
        "time_horizon": 1.0,
        "sample_times": [1.0],
        "sweep": {"h0": 0.25, "ratio": 0.5, "count": 1},
        "probes": "all",
        "compatibility_depth": 2,
        "final_error_bound": 0.05,
    }


def sweep_wide_payload(variant: int) -> dict:
    """C[S3] with the regular triple (hat dimension 7, no D), 2 pairs of 4 segments."""
    rng = random.Random(variant)
    xi0 = _cvec(random.Random("sweep-wide/xi0"), 6, XI_NORM)
    phase = complex(math.cos(a := rng.uniform(0.0, 2.0 * math.pi)), math.sin(a))
    xi = [phase * z for z in _s3_right_translate(xi0, rng.randrange(6))]
    return {
        "label": "sweep-wide",
        "bialgebra": {"builtin": "group_algebra", "group": "s3"},
        "character": "counit",
        "triple": {"pi": "regular", "xi": _pairs(xi)},
        "step_function_pairs": [
            {"f": _step_function(rng, 6, 4), "g": _step_function(rng, 6, 4)} for _ in range(2)
        ],
        "time_horizon": 1.0,
        "sample_times": [1.0],
        "sweep": {"h0": 0.25, "ratio": 0.5, "count": 4},
        "probes": "all",
        "compatibility_depth": 2,
        "final_error_bound": 0.05,
    }


SEEDED_PAYLOADS = {"verify-large": verify_large_payload, "sweep-wide": sweep_wide_payload}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def write_config(workload: str, seed: int, directory: Path) -> Path:
    """Write the in-process workload's config.json into directory and return its path.

    sweep-deep is the group-s3 demo with its ladder extended; it ignores the
    seed.  It needs qwalklab importable.
    """
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "config.json"
    if workload == "sweep-deep":
        from qwalklab.experiment import write_demo

        write_demo("group-s3", directory)
        payload = json.loads(path.read_text())
        payload["sweep"]["count"] = SWEEP_DEEP_COUNT
    else:
        payload = SEEDED_PAYLOADS[workload](variant_of(seed))
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def chain_steps(h_values, sample_times, calls_per_time: int) -> int:
    """Analytic sum of floor(t / h) over every walk_matrix_element call of a sweep."""
    return calls_per_time * sum(int(math.floor(t / h + 1e-9)) for h in h_values for t in sample_times)


# -- checks ----------------------------------------------------------------


def compare(got, want, rtol: float, atol: float, where: str = "") -> list[str]:
    """Differences between two JSON values; numbers compare by isclose."""
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{where}: {got!r} is not a number"]
        return [] if math.isclose(got, want, rel_tol=rtol, abs_tol=atol) else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys differ"]
        return [d for k in sorted(want) for d in compare(got[k], want[k], rtol, atol, f"{where}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, rtol, atol, f"{where}/{i}")]
    raise TypeError(f"unexpected reference value at {where}: {want!r}")


def check_frozen(sweep_report: dict, frozen: dict, where: str) -> list[str]:
    """The leading rows of a sweep report against a frozen demo table."""
    want = [
        {"h": h, "generator_gap": gap, "max_error": err, "errors": errors}
        for h, gap, err, errors in zip(frozen["h"], frozen["generator_gap"], frozen["max_error"], frozen["errors"])
    ]
    got = [
        {k: row[k] for k in ("h", "generator_gap", "max_error", "errors")}
        for row in sweep_report["rows"][: len(want)]
    ]
    return compare(got, want, DEMO_RTOL, 0.0, where)


def check_report(workload: str, report: dict, reference, frozen_tables: dict) -> list[str]:
    """Failures of one in-process repetition's report; empty when it is correct."""
    report = json.loads(json.dumps(report))
    failures = [] if report.get("passed") is True else [f"{workload}: report did not pass"]
    if workload == "sweep-deep":
        failures += check_frozen(report, frozen_tables["group-s3"], "sweep-deep")
    else:
        failures += compare(report, reference, REFERENCE_RTOL, REFERENCE_ATOL, workload)
    return failures


def load_reference(workload: str, seed: int):
    if workload not in SEEDED_PAYLOADS:
        return None
    return json.loads(REFERENCES.read_text())[workload][str(variant_of(seed))]


def check_demo_outputs(name: str, out_dir: Path, frozen_tables: dict, first: dict) -> list[str]:
    """One demo run: frozen table, and outputs byte-identical to the first repetition's."""
    outputs = {f: (out_dir / f).read_bytes() for f in DEMO_OUTPUTS}
    failures = []
    if first.setdefault(name, outputs) != outputs:
        failures.append(f"{name}: outputs differ from the first repetition")
    report = json.loads(outputs["report.json"])
    if report.get("passed") is not True or report.get("sweep") is None:
        return failures + [f"{name}: report did not pass"]
    return failures + check_frozen(report["sweep"], frozen_tables[name], name)
