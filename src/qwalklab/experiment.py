"""Experiment configs, the verify/sweep runners, and built-in demos.

A config names a bialgebra (builtin constructor or file), a character, an
implementing triple, step-function pairs, sample times, and a geometric
h sweep.  run_verify executes the identity suite, the finite-h identities
at every step length of the h ladder; run_sweep drives walks down that
ladder and tabulates generator gaps and matrix-element errors against the
cocycle limit.
"""
from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bialgebra import (
    TOLERANCES,
    CounitalBialgebra,
    bialgebra_to_payload,
    build_function_algebra,
    build_group_algebra,
    load_bialgebra,
    verify_bialgebra,
)
from .cbnorm import _check_ascent_size, amplified_norm
from .cocycle import CocycleEvaluator, assoc_generator
from .convolution import ConvolutionSemigroup, _check_entries, check_compatibility, convolve_functionals
from .fock import (
    StepFunction,
    _cell_count,
    _validate_alignment,
    step_function_from_payload,
    walk_matrix_element,
)
from .groups import (
    FiniteGroup,
    cyclic_character_table,
    cyclic_group,
    symmetric_group,
    symmetric_sign_character,
)
from .linalg import as_complex_array, opnorms
from .serialize import (
    FormatError,
    decode_complex_array,
    encode_complex_array,
    finite_number,
    integer,
    invalid,
    only_keys,
    read_json,
    write_json,
)
from .structure_maps import (
    ImplementingTriple,
    cp_block_matrix,
    default_decomposition_vector,
    extract_implementing_pair,
    structure_map_from_pair,
    verify_cp_decomposition,
    verify_structure_relation,
    OperatorMap,
)
from .walk import build_unitary, build_walk, gap_map, verify_error_identity, vector_state_check

__all__ = [
    "ExperimentConfig",
    "TOLERANCES",
    "run_verify",
    "run_sweep",
    "RunResult",
    "errors_to_csv",
    "errors_to_dat",
    "write_demo",
    "DEMO_NAMES",
]

CSV_SCHEMA = "qwalklab-errors-v1"
REPORT_SCHEMA = "qwalklab-report-v1"


#: the longest h ladder a sweep may ask for
MAX_SWEEP_COUNT = 64

#: the most step-function pairs, segments per step function, and sample times a config may list (the sweep's cost grows linearly in each)
MAX_PAIRS = 64
MAX_SEGMENTS = 64
MAX_SAMPLE_TIMES = 64

#: the most walk evaluations a sweep may ask for: pairs x sample times x probes x step lengths
MAX_SWEEP_EVALUATIONS = 1024


#: the largest exponent E a step-function pair may bring (_pair_exponent): every walk and
#: limit matrix element of the pair, and the semigroup law's, is at most ||b|| e^E, and e^700 < 1.1e304
MAX_PAIR_EXPONENT = 700.0


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {value!r}")
    return value


def _list(value, most: int | None = None) -> list:
    """A nonempty list, of at most `most` entries when most is given."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"expected a nonempty list, got {value!r}")
    if most is not None and len(value) > most:
        raise ValueError(f"expected at most {most} entries, got {len(value)}")
    return value


def _time_label(t: float) -> str:
    """A sample time's part of an error-column label; it keeps 6 significant digits."""
    return f"t{t:g}"


def _sample_times(value) -> tuple[float, ...]:
    """Sample times whose error-column labels all differ: equal labels would share one column."""
    times = tuple(finite_number(v) for v in _list(value, MAX_SAMPLE_TIMES))
    labels = [_time_label(t) for t in times]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"two sample times share the column label {label!r} (6 significant digits)")
    return times


def _positive(value) -> float:
    if finite_number(value) <= 0:
        raise ValueError(f"expected a positive number, got {value!r}")
    return float(value)


def _ratio(value) -> float:
    if not 0 < finite_number(value) < 1:
        raise ValueError(f"expected a number in (0, 1), got {value!r}")
    return float(value)


def _natural(value) -> int:
    if integer(value) < 0:
        raise ValueError(f"expected an integer >= 0, got {value!r}")
    return value


def _sweep_count(value) -> int:
    if not 1 <= integer(value) <= MAX_SWEEP_COUNT:
        raise ValueError(f"expected an integer in 1..{MAX_SWEEP_COUNT}, got {value!r}")
    return value


def _character(value):
    """'counit', or a character index: a JSON integer (true and false are not indices)."""
    return value if value == "counit" else integer(value)


def _probes(value):
    """'all', or distinct basis indices: a repeated index would share its error column."""
    if value == "all":
        return value
    probes = tuple(integer(i) for i in _list(value))
    if len(set(probes)) < len(probes):
        raise ValueError(f"probe indices must be distinct, got {list(probes)}")
    return probes


def _pairs(value) -> tuple[tuple[StepFunction, StepFunction], ...]:
    if value == []:
        raise ValueError("at least one step-function pair is required")
    pairs = []
    for k, pair in enumerate(_list(value, MAX_PAIRS)):
        try:
            only_keys(_object(pair), ("f", "g"), required=("f", "g"))
            fns = []
            for fn in "fg":
                with invalid(repr(fn)):
                    fns.append(step_function_from_payload(_list(pair[fn], MAX_SEGMENTS)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"pair {k} is malformed: {exc}") from exc
        pairs.append(tuple(fns))
    return tuple(pairs)


@np.errstate(over="ignore")  # a square past the float range is inf, which the bound refuses
def _pair_exponent(f: StepFunction, g: StepFunction) -> float:
    """E = (max|f|^2 + max|g|^2) / 2 * max(1, T_f, T_g).

    ||eps(f)||^2 = exp integral |f|^2, and a walk or cocycle is contractive,
    so a matrix element between eps(f) and eps(g) is at most ||b|| e^E; the
    factor max(1, .) covers the semigroup law, which runs f(0) and g(0) for
    unit time.
    """
    peak = sum(float(np.max(np.sum(np.abs(fn.values) ** 2, axis=1))) for fn in (f, g))
    return 0.5 * peak * max(1.0, f.total_time, g.total_time)


def _builtin(value) -> str:
    if value not in ("function_algebra", "group_algebra"):
        raise ValueError(f"expected 'function_algebra' or 'group_algebra', got {value!r}")
    return value


def _group(value):
    """A group name such as 'z2' or 's3', or {'file': <path>} naming a group file."""
    is_file = isinstance(value, dict) and set(value) == {"file"} and isinstance(value["file"], str)
    if not (is_file or isinstance(value, str)):
        raise ValueError(f"expected a name like 'z2' or 's3', or {{'file': <path>}}, got {value!r}")
    return value


def _pi(value):
    """'regular', the index k of 'character:<k>' (decimal digits), or the matrices of {'matrices': ...}."""
    if isinstance(value, dict) and set(value) == {"matrices"}:
        return decode_complex_array(value["matrices"])
    m = re.fullmatch(r"regular|character:([0-9]+)", value) if isinstance(value, str) else None
    if not m:
        raise ValueError(f"expected 'regular', 'character:<k>' or {{'matrices': ...}}, got {value!r}")
    return int(m[1]) if m[1] else value


#: the default of a field that must be given
_REQUIRED = object()

#: section (None: the top level) -> key -> (rule, default).  A key that names a
#: section holds that section's fields.  Every present value goes through its
#: rule, null, 0, [] and false included; only an absent key takes the default.
FIELDS = {
    None: {
        "label": (_string, "experiment"),
        "bialgebra": (_object, _REQUIRED),
        "character": (_character, "counit"),
        "triple": (_object, _REQUIRED),
        "sweep": (_object, {}),
        "step_function_pairs": (_pairs, _REQUIRED),
        "time_horizon": (_positive, 1.0),
        "sample_times": (_sample_times, None),  # absent: the time horizon alone
        "probes": (_probes, "all"),
        "compatibility_depth": (_natural, 3),
        "final_error_bound": (_positive, 1e-2),
    },
    "bialgebra": {"builtin": (_builtin, None), "group": (_group, None), "file": (_string, None)},
    "triple": {"pi": (_pi, "regular"), "xi": (decode_complex_array, _REQUIRED), "D": (decode_complex_array, None)},
    "sweep": {"h0": (_positive, 0.25), "ratio": (_ratio, 0.5), "count": (_sweep_count, 6)},
}


def _fields(payload: dict, section: str | None = None) -> dict:
    """Each field of section: a present value through its rule, an absent key at its default."""
    where = "" if section is None else f" in {section!r}"
    required = [key for key, (_, default) in FIELDS[section].items() if default is _REQUIRED]
    only_keys(payload, FIELDS[section], required, where or " in the config")
    out = {}
    for key, (rule, default) in FIELDS[section].items():
        if key in payload:
            with invalid(f"{key!r}{where}"):
                out[key] = rule(payload[key])
        else:
            out[key] = default
        if key in FIELDS:
            out[key] = _fields(out[key], key)
    return out


def _resolve_group(spec, base_dir: Path) -> tuple[FiniteGroup, list]:
    """The group spec names and its closed-form nontrivial characters.

    Only a builtin name brings characters; a group file's 'name' is a label, so its algebra carries the counit only.
    """
    if isinstance(spec, dict):
        return FiniteGroup.from_payload(read_json(base_dir.joinpath(spec["file"]))), []
    if m := re.fullmatch(r"[zZ](\d+)", spec):
        group = cyclic_group(int(m[1]))
        return group, list(cyclic_character_table(group.order)[1:])
    if m := re.fullmatch(r"[sS]([1-4])", spec):
        n = int(m[1])
        return symmetric_group(n), [symmetric_sign_character(n)] if n >= 2 else []
    raise ValueError(f"unknown group name {spec!r}; the builtin groups are z1..z64 and s1..s4")


def resolve_bialgebra(section, base_dir: Path) -> CounitalBialgebra:
    """The bialgebra of a 'bialgebra' section as _fields reads it; a file's axioms are checked to TOLERANCES["axioms"].

    base_dir, which files are read against, may be None for a group by name.
    """
    named = {key for key in ("builtin", "group", "file") if section.get(key) is not None}
    if named not in ({"builtin", "group"}, {"file"}):
        raise FormatError("'bialgebra' needs a 'builtin' and a 'group', or a 'file' alone")
    if named == {"file"}:
        with invalid("'file' in 'bialgebra'"):
            return load_bialgebra(base_dir.joinpath(section["file"]))
    with invalid("'group' in 'bialgebra'"):
        group, characters = _resolve_group(section["group"], base_dir)
    if section["builtin"] == "function_algebra":
        return build_function_algebra(group)
    return build_group_algebra(group, extra_characters=characters)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    bialgebra: CounitalBialgebra
    chi: np.ndarray
    triple: ImplementingTriple
    pairs: tuple[tuple[StepFunction, StepFunction], ...]
    sample_times: tuple[float, ...]
    h_values: tuple[float, ...]
    probes: tuple[int, ...]
    compatibility_depth: int
    final_error_bound: float
    label: str = "experiment"

    @classmethod
    def from_payload(cls, payload: dict, base_dir: Path) -> "ExperimentConfig":
        """The config a payload describes; the files it names resolve against base_dir."""
        cfg = _fields(payload)
        # what follows checks fields against each other and against the bialgebra
        b = resolve_bialgebra(cfg["bialgebra"], base_dir)
        chi, pi, count = cfg["character"], cfg["triple"]["pi"], len(b.characters)
        for name, index in (("'character'", chi), ("'pi' in 'triple'", pi)):
            if isinstance(index, int) and not 0 <= index < count:
                raise FormatError(f"invalid {name}: character index {index} outside 0..{count - 1}")
        chi = b.counit if chi == "counit" else b.characters[chi]
        if isinstance(pi, str):  # 'regular'
            pi = b.rep
        elif isinstance(pi, int):
            pi = b.characters[pi].reshape(-1, 1, 1)
        with invalid("'triple'"):
            triple = ImplementingTriple(source=b, pi=as_complex_array(pi), xi=cfg["triple"]["xi"], D=cfg["triple"]["D"])
            _check_ascent_size(b, triple.noise_dim + 1)
        noise_dim = triple.noise_dim
        sweep = cfg["sweep"]
        h_values = tuple(sweep["h0"] * sweep["ratio"] ** k for k in range(sweep["count"]))
        with invalid("'sweep'"):  # h0 is the largest swept step length
            build_unitary(triple.xi, h_values[0])
        horizon = cfg["time_horizon"]
        times = (horizon,) if cfg["sample_times"] is None else cfg["sample_times"]
        if any(t < 0 or t > horizon + 1e-9 for t in times):
            raise FormatError(f"invalid 'sample_times': sample times must lie in [0, time_horizon] = [0, {horizon:g}]")
        longest, h_min = max(times), min(h_values)
        if not (h_min > 0 and longest <= 2**53 * h_min):
            raise FormatError(
                f"invalid 'sweep': h = {h_min:g} splits sample time {longest:g} into more than "
                "2**53 cells, past which cell counts are not exact integers"
            )
        pairs, grid_ends = cfg["step_function_pairs"], [h * _cell_count(longest, h) for h in h_values]
        for k, pair in enumerate(pairs):
            for fn in pair:
                if fn.noise_dim != noise_dim:
                    raise FormatError(
                        f"invalid 'step_function_pairs': pair {k} has noise dimension {fn.noise_dim}, "
                        f"triple expects {noise_dim}"
                    )
                with invalid(f"'step_function_pairs': pair {k}"):
                    for h, grid_end in zip(h_values, grid_ends):  # the sweep's own alignment rule, before any run
                        _validate_alignment(fn, h, grid_end)
            exponent = _pair_exponent(*pair)
            if not exponent <= MAX_PAIR_EXPONENT:  # a NaN exponent is refused too
                raise FormatError(
                    f"invalid 'step_function_pairs': pair {k} has (max|f|^2 + max|g|^2) / 2 * max(1, T_f, T_g) "
                    f"= {exponent:.6g} > {MAX_PAIR_EXPONENT:g}, past which its matrix elements can overflow"
                )
        probes = tuple(range(b.dim)) if cfg["probes"] == "all" else cfg["probes"]
        if any(not 0 <= i < b.dim for i in probes):
            raise FormatError(f"invalid 'probes': probe indices must lie in 0..{b.dim - 1}")
        factors = (len(pairs), len(times), len(probes), len(h_values))
        if math.prod(factors) > MAX_SWEEP_EVALUATIONS:
            raise FormatError(
                "invalid 'sweep': {} pairs x {} sample times x {} probes x {} step lengths = {} walk "
                "evaluations, more than {}".format(*factors, math.prod(factors), MAX_SWEEP_EVALUATIONS)
            )
        depth = cfg["compatibility_depth"]
        with invalid("'compatibility_depth'"):  # the lifted iterate, the largest array the compatibility check builds
            _check_entries(b.dim**2, noise_dim + 1, depth)
        return cls(
            bialgebra=b,
            chi=chi,
            triple=triple,
            pairs=pairs,
            sample_times=times,
            h_values=h_values,
            probes=probes,
            compatibility_depth=depth,
            final_error_bound=cfg["final_error_bound"],
            label=cfg["label"],
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """The config in a JSON file; its label defaults to the file name without '.json'."""
        path = Path(path)
        return cls.from_payload({"label": path.stem, **read_json(path)}, path.parent)

    def generator(self) -> OperatorMap:
        return structure_map_from_pair(self.triple, self.chi)


@dataclass
class RunResult:
    report: dict
    passed: bool


def _check(report: dict, name: str, residual: float, tolerance: float, **extra) -> None:
    entry = {"residual": float(residual), "tolerance": float(tolerance), "passed": bool(residual <= tolerance)}
    entry.update(extra)
    report["checks"][name] = entry


def run_verify(config: ExperimentConfig) -> RunResult:
    """The full identity suite; every check lands in the report."""
    b, chi, triple = config.bialgebra, config.chi, config.triple
    report: dict = {"schema": REPORT_SCHEMA, "label": config.label, "mode": "verify", "checks": {}}

    axioms = verify_bialgebra(b)
    _check(report, "bialgebra_axioms", axioms["max_residual"], TOLERANCES["axioms"], detail=axioms)

    plain = ImplementingTriple(source=b, pi=triple.pi, xi=triple.xi)
    phi_big = structure_map_from_pair(plain, chi)
    _check(report, "structure_relation", verify_structure_relation(phi_big, chi), TOLERANCES["structure_relation"])
    extraction = extract_implementing_pair(phi_big, chi)
    roundtrip, kernel_dim = extraction.roundtrip_residual, extraction.kernel_dim
    _check(report, "extraction_roundtrip", roundtrip, TOLERANCES["roundtrip"], kernel_dim=kernel_dim)

    # without D the walk is a *-homomorphism; with an isometry it is CP
    homomorphic = triple.D is None
    unitarity = identity_res = vector_res = 0.0
    for h in config.h_values:  # from_payload checked h ||xi||^2 <= 1 and the cell count for each
        u = build_unitary(triple.xi, h)
        eye = np.eye(u.shape[0])
        unitarity = max(unitarity, *opnorms(np.stack([u.conj().T @ u - eye, u @ u.conj().T - eye])))
        identity_res = max(identity_res, verify_error_identity(triple, chi, h))
        if homomorphic:
            vector_res = max(vector_res, *vector_state_check(triple, chi, h))
    _check(report, "unitarity", unitarity, TOLERANCES["unitarity"])
    _check(report, "error_identity", identity_res, TOLERANCES["error_identity"])
    if homomorphic:
        _check(report, "vector_state", vector_res, TOLERANCES["vector_state"])

    h0 = config.h_values[0]
    psi = build_walk(triple, chi, h0)
    if homomorphic:
        hom = max(float(np.max(np.abs(defect))) for defect in b.homomorphism_defects(psi.mats))
        _check(report, "walk_homomorphism", hom, TOLERANCES["homomorphism"])
    else:
        choi = cp_block_matrix(psi)
        choi_min = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0])
        _check(report, "walk_choi_positive", max(0.0, -choi_min), TOLERANCES["choi"], min_eig=choi_min)
        _check(
            report,
            "walk_preunital",
            float(np.max(np.abs(psi.at_unit() - np.eye(psi.dim)))),
            TOLERANCES["preunital"],
        )

    zeta = default_decomposition_vector(triple)
    phi = config.generator()
    cp = verify_cp_decomposition(phi, chi, zeta)
    _check(report, "cp_decomposition", cp["cp_residual"], TOLERANCES["choi"], detail=cp)

    _check(
        report,
        "compatibility",
        check_compatibility(psi, config.compatibility_depth),
        TOLERANCES["compatibility"],
        depth=config.compatibility_depth,
    )

    f0, g0 = config.pairs[0]
    lam = assoc_generator(phi, f0.value_at(0.0), g0.value_at(0.0))
    sg = ConvolutionSemigroup(b, lam)
    split = convolve_functionals(b, sg.at(0.3), sg.at(0.7))
    _check(
        report,
        "semigroup_law",
        float(np.max(np.abs(sg.at(1.0) - split))),
        TOLERANCES["semigroup"],
    )

    passed = all(entry["passed"] for entry in report["checks"].values())
    report["passed"] = passed
    return RunResult(report=report, passed=passed)


def _probe_points(config: ExperimentConfig):
    """(label, f, g, t, probe) for every pair, then sample time, then probe."""
    # The probes of one (pair, t) come in a row, so walk_matrix_element and
    # CocycleEvaluator evaluate each functional once and read every probe
    # from their single-entry memo.
    for k, (f, g) in enumerate(config.pairs):
        for t in config.sample_times:
            for probe in config.probes:
                yield f"p{k}_{_time_label(t)}_b{probe}", f, g, t, probe


def _sweep_row(config: ExperimentConfig, phi: OperatorMap, limits: dict[str, complex], h: float) -> dict:
    psi = build_walk(config.triple, config.chi, h)
    gap = amplified_norm(gap_map(phi, config.triple, config.chi, h))
    errors = {
        label: abs(walk_matrix_element(psi, probe, f, g, t, h) - limits[label])
        for label, f, g, t, probe in _probe_points(config)
    }
    return {
        "h": h,
        "n_steps": _cell_count(max(config.sample_times), h),
        "generator_gap": gap,
        "max_error": max(errors.values()),
        "errors": dict(sorted(errors.items())),
    }


def run_sweep(config: ExperimentConfig) -> RunResult:
    """Walks down the h ladder: generator gaps plus matrix-element errors.

    Rows are computed one per step length, in descending-h order.
    """
    phi = config.generator()
    evaluator = CocycleEvaluator(phi)
    limits = {label: evaluator.matrix_element(probe, f, g, t) for label, f, g, t, probe in _probe_points(config)}
    rows = [_sweep_row(config, phi, limits, h) for h in config.h_values]
    max_errors = [row["max_error"] for row in rows]
    tail = max(2, -(-len(rows) // 2))
    tail_rows = rows[-tail:]
    tail_errs = [row["max_error"] for row in tail_rows]
    monotone_tail = all(b2 < b1 for b1, b2 in zip(tail_errs[:-1], tail_errs[1:]))
    monotone_all = all(b2 < b1 for b1, b2 in zip(max_errors[:-1], max_errors[1:]))
    slope = _loglog_slope([row["h"] for row in tail_rows], tail_errs)
    gap_slope = _loglog_slope([row["h"] for row in rows], [row["generator_gap"] for row in rows])
    final_error = max_errors[-1]
    passed = monotone_tail and final_error < config.final_error_bound
    report = {
        "schema": REPORT_SCHEMA,
        "label": config.label,
        "mode": "sweep",
        "rows": rows,
        "error_slope_tail": slope,
        "gap_slope": gap_slope,
        "monotone_tail": monotone_tail,
        "monotone_all": monotone_all,
        "initial_error": max_errors[0],
        "final_error": final_error,
        "final_error_bound": config.final_error_bound,
        "passed": passed,
    }
    return RunResult(report=report, passed=passed)


def _loglog_slope(h_values, errs):
    """Least-squares slope of log10(err) against log10(h); None below 3 points."""
    pts = [(h, e) for h, e in zip(h_values, errs) if e > 0]
    if len(pts) < 3:
        return None
    x = np.log10([p[0] for p in pts])
    y = np.log10([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def _columns(report: dict) -> list[str]:
    return sorted(report["rows"][0]["errors"].keys()) if report["rows"] else []


def _error_lines(report: dict, sep: str) -> list[str]:
    """The column header and one line per row, cells joined by sep."""
    cols = _columns(report)
    lines = [sep.join(["h", "n_steps", "generator_gap", "max_error"] + [f"err_{c}" for c in cols])]
    for row in report["rows"]:
        cells = [
            f"{row['h']:.17g}",
            str(row["n_steps"]),
            f"{row['generator_gap']:.17g}",
            f"{row['max_error']:.17g}",
        ]
        cells.extend(f"{row['errors'][c]:.17g}" for c in cols)
        lines.append(sep.join(cells))
    return lines


def errors_to_csv(report: dict) -> str:
    header, *rows = _error_lines(report, ",")
    return "\n".join([f"# schema: {CSV_SCHEMA}", header, *rows]) + "\n"


def errors_to_dat(report: dict) -> str:
    """Gnuplot-ready: whitespace-separated columns, '#' comment header."""
    header, *rows = _error_lines(report, " ")
    return "\n".join([f"# {CSV_SCHEMA}", "# " + header, *rows]) + "\n"


# -- demos -----------------------------------------------------------------

#: each demo's bialgebra section; the demos differ only in it, in their label and in group-s3's triple
_DEMO_BIALGEBRAS = {
    "c-z2": {"builtin": "function_algebra", "group": "z2"},
    "group-z2": {"builtin": "group_algebra", "group": "z2"},
    "group-s3": {"builtin": "group_algebra", "group": "s3"},
    "custom-file": {"file": "bialgebra.json"},
}
DEMO_NAMES = tuple(_DEMO_BIALGEBRAS)

_DEMO_PAIRS = [
    {
        "f": [[0.5, [1.0, 0.0]], [0.5, [0.6, -0.3]]],
        "g": [[1.0, [0.8, 0.2]]],
    },
    {
        "f": [[1.0, [0.7, 0.0]]],
        "g": [[0.25, [-0.4, 0.1]], [0.75, [0.9, 0.0]]],
    },
]

_DEMO_COMMON = {
    "time_horizon": 1.0,
    "sample_times": [1.0],
    "sweep": {"h0": 0.25, "ratio": 0.5, "count": 6},
    "probes": "all",
    "compatibility_depth": 3,
    "step_function_pairs": _DEMO_PAIRS,
}


def _s3_cp_triple_section() -> dict:
    """Regular representation of S3 compressed along the sign eigenvector.

    xi mixes the sign eigenvector of the left regular representation with an
    orthogonal direction; the parity-odd probes then show a large step-length
    error at h0 while their limits are strongly damped, which is what makes
    the sweep's initial/final error ratio wide.
    """
    sign = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
    w_sign = sign / np.sqrt(6.0)
    w_perp = np.array([1.0, 1.0, -1.0, -1.0, 0.0, 0.0]) / 2.0
    xi = 1.6 * (0.95 * w_sign + np.sqrt(1.0 - 0.95**2) * w_perp)
    return {
        "pi": "regular",
        "xi": encode_complex_array(xi.astype(complex)),
        "D": encode_complex_array(w_sign.reshape(6, 1).astype(complex)),
    }


def _demo_payload(name: str) -> dict:
    """The named demo's config payload, sharing no object with this module or an earlier call."""
    if name not in DEMO_NAMES:
        raise FormatError(f"unknown demo {name!r}; choose one of {', '.join(DEMO_NAMES)}")
    return copy.deepcopy({
        "label": name,
        "bialgebra": _DEMO_BIALGEBRAS[name],
        "character": "counit",
        "triple": _s3_cp_triple_section() if name == "group-s3" else {"pi": "character:1", "xi": [[1.5, 0.0]]},
        "final_error_bound": 0.05,
        **_DEMO_COMMON,
    })


def write_demo(name: str, out_dir) -> Path:
    """Write the named demo's config (and any data files) into out_dir; an unknown name creates nothing."""
    payload = _demo_payload(name)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "custom-file":
        b = build_group_algebra(symmetric_group(3), extra_characters=[symmetric_sign_character(3)])
        write_json(out_dir / "bialgebra.json", bialgebra_to_payload(b))
    config_path = out_dir / "config.json"
    write_json(config_path, payload)
    return config_path
