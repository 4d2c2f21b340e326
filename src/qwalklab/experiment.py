"""Experiment configs, the verify/sweep runners, and built-in demos.

A config names a bialgebra (builtin constructor or file), a character, an
implementing triple, step-function pairs, sample times, and a geometric
h sweep.  run_verify executes the identity suite at fixed step lengths;
run_sweep drives walks down the h ladder and tabulates generator gaps
and matrix-element errors against the cocycle limit.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bialgebra import (
    AxiomViolation,
    CounitalBialgebra,
    build_function_algebra,
    build_group_algebra,
    load_bialgebra,
    verify_bialgebra,
)
from .cbnorm import amplified_norm
from .cocycle import CocycleEvaluator, assoc_generator
from .convolution import (
    DEFAULT_DIMENSION_CAP,
    ConvolutionSemigroup,
    DimensionCapExceeded,
    _check_lifted,
    check_compatibility,
    convolve_functionals,
)
from .fock import (
    GridSpec,
    PartitionMismatch,
    StepFunction,
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
from .linalg import as_complex_array, opnorm
from .serialize import (
    FormatError,
    decode_complex_array,
    encode_complex_array,
    finite_number,
    read_json,
    write_json,
)
from .structure_maps import (
    ImplementingTriple,
    cp_block_matrix,
    default_decomposition_vector,
    extract_implementing_pair,
    gap_map,
    structure_map_from_pair,
    verify_cp_decomposition,
    verify_structure_relation,
    OperatorMap,
)
from .walk import build_unitary, build_walk, verify_error_identity, vector_state_check

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "DEFAULT_TOLERANCES",
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

DEFAULT_TOLERANCES = {
    "axioms": 1e-12,
    "structure_relation": 1e-12,
    "roundtrip": 1e-10,
    "unitarity": 1e-13,
    "error_identity": 1e-11,
    "vector_state": 1e-12,
    "homomorphism": 1e-12,
    "preunital": 1e-14,
    "choi": 1e-10,
    "compatibility": 1e-11,
    "semigroup": 1e-11,
}


#: the longest h ladder a sweep may ask for
MAX_SWEEP_COUNT = 64

#: the most step lengths identity_h may list (each builds a walk and checks an identity)
MAX_IDENTITY_H = 64

#: the keys each config section admits (None: the top level); any other key is rejected
SECTION_KEYS = {
    None: frozenset(
        {
            "label", "bialgebra", "character", "triple", "noise_dim", "step_function_pairs", "time_horizon",
            "sample_times", "sweep", "identity_h", "probes", "compatibility_depth", "dimension_cap",
            "tolerances", "final_error_bound",
        }
    ),
    "bialgebra": frozenset({"builtin", "group", "file"}),
    "triple": frozenset({"pi", "xi", "D"}),
    "sweep": frozenset({"h0", "ratio", "count"}),
}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _check_keys(payload: dict) -> None:
    """A ConfigError naming the first key that its section does not admit."""
    for name, allowed in SECTION_KEYS.items():
        section = payload if name is None else payload.get(name)
        if isinstance(section, dict):
            unknown = sorted(set(section) - allowed)
            if unknown:
                where = "the config" if name is None else repr(name)
                raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _read(section: dict, key: str, convert, default=None):
    """convert(section[key]), or of default when absent; a bad value is a ConfigError naming key."""
    try:
        return convert(section.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {key!r}: {exc}") from exc


def _numbers(value) -> tuple[float, ...]:
    return tuple(finite_number(v) for v in _list(value))


def _integer(value) -> int:
    """A JSON integer as it stands: 2.5 or True is refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _step_lengths(value) -> tuple[float, ...]:
    if len(_list(value)) > MAX_IDENTITY_H:
        raise ValueError(f"at most {MAX_IDENTITY_H} step lengths, got {len(value)}")
    return _numbers(value)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {value!r}")
    return value


def _list(value) -> list:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _ladder(sweep) -> tuple[float, ...]:
    """The geometric h ladder h0 ratio^k for k < count."""
    sweep = _object(sweep)
    h0 = finite_number(sweep.get("h0", 0.25))
    ratio = finite_number(sweep.get("ratio", 0.5))
    count = sweep.get("count", 6)
    if not (isinstance(count, int) and not isinstance(count, bool) and 1 <= count <= MAX_SWEEP_COUNT):
        raise ValueError(f"count must be an integer in 1..{MAX_SWEEP_COUNT}, got {count!r}")
    if not (h0 > 0 and 0 < ratio < 1):
        raise ValueError("sweep requires h0 > 0 and 0 < ratio < 1")
    return tuple(h0 * ratio**k for k in range(count))


def _tolerances(overrides) -> dict[str, float]:
    tol = dict(DEFAULT_TOLERANCES)
    for key, val in _object(overrides).items():
        if key not in tol:
            raise ValueError(f"unknown tolerance key {key!r}")
        tol[key] = finite_number(val)
    return tol


def _resolve_group(name_or_file, base_dir: Path) -> FiniteGroup:
    if isinstance(name_or_file, dict) and "file" in name_or_file:
        payload = read_json(_read(name_or_file, "file", base_dir.joinpath))
        return FiniteGroup.from_payload(payload)
    if not isinstance(name_or_file, str):
        raise ConfigError(f"group must be a name like 'z2'/'s3' or {{'file': ...}}, got {name_or_file!r}")
    m = re.fullmatch(r"[zZ](\d+)", name_or_file)
    if m:
        return cyclic_group(int(m.group(1)))
    m = re.fullmatch(r"[sS](\d+)", name_or_file)
    if m:
        n = int(m.group(1))
        if n > 4:
            raise ConfigError(f"symmetric group order {n}! is too large; use n <= 4")
        return symmetric_group(n)
    raise ConfigError(f"unknown group name {name_or_file!r}")


def _builtin_extra_characters(group: FiniteGroup):
    """Closed-form nontrivial characters for the supported builtin groups."""
    m = re.fullmatch(r"Z(\d+)", group.name)
    if m:
        return list(cyclic_character_table(int(m.group(1)))[1:])
    m = re.fullmatch(r"S(\d+)", group.name)
    if m and int(m.group(1)) >= 2:
        return [symmetric_sign_character(int(m.group(1)))]
    return []


def resolve_bialgebra(section, base_dir: Path) -> CounitalBialgebra:
    if not isinstance(section, dict):
        raise ConfigError("'bialgebra' must be an object")
    if "file" in section:
        return load_bialgebra(_read(section, "file", base_dir.joinpath))
    builtin = section.get("builtin")
    if builtin not in ("function_algebra", "group_algebra"):
        raise ConfigError(f"bialgebra builtin must be 'function_algebra' or 'group_algebra', got {builtin!r}")
    try:
        group = _resolve_group(section.get("group"), base_dir)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # a GroupTableError, FormatError or malformed table
        raise ConfigError(f"invalid 'group': {exc}") from exc
    if builtin == "function_algebra":
        return build_function_algebra(group)
    return build_group_algebra(group, extra_characters=_builtin_extra_characters(group))


def resolve_character(b: CounitalBialgebra, choice) -> np.ndarray:
    """The counit, or the character at a JSON integer index (true and false are not indices)."""
    if choice in (None, "counit"):
        return b.counit
    if isinstance(choice, bool) or not isinstance(choice, int):
        raise TypeError(f"expected 'counit' or an integer index, got {choice!r}")
    if not 0 <= choice < b.characters.shape[0]:
        raise ValueError(f"character index {choice} outside 0..{b.characters.shape[0] - 1}")
    return b.characters[choice]


def _pi_matrices(b: CounitalBialgebra, spec) -> np.ndarray:
    if spec == "regular":
        return b.rep
    if isinstance(spec, str) and spec.startswith("character:"):
        digits = spec.split(":", 1)[1]
        if not re.fullmatch(r"[0-9]+", digits):
            raise ValueError(f"pi character index must be decimal digits, got {digits!r}")
        idx = int(digits)
        if not 0 <= idx < b.characters.shape[0]:
            raise ValueError(f"pi character index {idx} outside 0..{b.characters.shape[0] - 1}")
        return b.characters[idx].reshape(-1, 1, 1)
    if isinstance(spec, dict) and "matrices" in spec:
        return decode_complex_array(spec["matrices"])
    raise ValueError(f"triple 'pi' must be 'regular', 'character:<k>' or matrices, got {spec!r}")


def resolve_triple(b: CounitalBialgebra, section) -> ImplementingTriple:
    if not isinstance(section, dict):
        raise ConfigError("'triple' must be an object")
    pi = _read(section, "pi", lambda spec: _pi_matrices(b, spec), "regular")
    if "xi" not in section:
        raise ConfigError("triple is missing 'xi'")
    xi = _read(section, "xi", decode_complex_array)
    d_mat = _read(section, "D", lambda node: None if node is None else decode_complex_array(node))
    try:
        triple = ImplementingTriple(source=b, pi=as_complex_array(pi), xi=xi, D=d_mat)
        triple.validate(tol=1e-10)
    except ValueError as exc:
        raise ConfigError(f"invalid triple: {exc}") from exc
    return triple


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    bialgebra: CounitalBialgebra
    chi: np.ndarray
    triple: ImplementingTriple
    pairs: tuple[tuple[StepFunction, StepFunction], ...]
    sample_times: tuple[float, ...]
    h_values: tuple[float, ...]
    identity_h: tuple[float, ...]
    probes: tuple[int, ...]
    compatibility_depth: int
    dimension_cap: int
    tolerances: dict[str, float]
    final_error_bound: float
    time_horizon: float
    label: str = "experiment"

    @classmethod
    def from_payload(cls, payload: dict, base_dir: Path) -> "ExperimentConfig":
        _check_keys(payload)
        try:
            b = resolve_bialgebra(payload.get("bialgebra"), base_dir)
        except AxiomViolation:
            raise
        except FormatError as exc:
            raise ConfigError(str(exc)) from exc
        chi = _read(payload, "character", lambda choice: resolve_character(b, choice), "counit")
        triple = resolve_triple(b, payload.get("triple"))
        noise_dim = triple.noise_dim
        declared = _read(payload, "noise_dim", lambda v: None if v is None else _integer(v))
        if declared is not None and declared != noise_dim:
            raise ConfigError(f"declared noise_dim {declared} != triple noise dimension {noise_dim}")
        h_values = _read(payload, "sweep", lambda v: _ladder(v or {}))
        xi_norm_sq = float(np.real(np.vdot(triple.xi, triple.xi)))
        for h in h_values:
            if h * xi_norm_sq > 1.0:
                raise ConfigError(
                    f"h * ||xi||^2 = {h * xi_norm_sq:.6g} > 1 at h = {h:g}: the walk "
                    "unitary requires h * ||xi||^2 <= 1 for every swept step length"
                )
        pairs = []
        for k, pair in enumerate(_read(payload, "step_function_pairs", lambda v: _list(v or []))):
            try:
                f = step_function_from_payload(pair["f"])
                g = step_function_from_payload(pair["g"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"invalid 'step_function_pairs': pair {k} is malformed: {exc}") from exc
            if f.noise_dim != noise_dim or g.noise_dim != noise_dim:
                raise ConfigError(
                    f"step-function pair {k} has noise dimension {f.noise_dim}/{g.noise_dim}, "
                    f"triple expects {noise_dim}"
                )
            pairs.append((f, g))
        if not pairs:
            raise ConfigError("at least one step-function pair is required")
        horizon = _read(payload, "time_horizon", finite_number, 1.0)
        times = _read(payload, "sample_times", lambda v: _numbers(v or [horizon]))
        if any(t < 0 or t > horizon + 1e-9 for t in times):
            raise ConfigError("sample times must lie in [0, time_horizon]")
        longest, h_min = max(times), min(h_values)
        if not (h_min > 0 and longest <= 2**53 * h_min):
            raise ConfigError(
                f"invalid 'sweep': h = {h_min:g} splits sample time {longest:g} into more than "
                "2**53 cells, past which cell counts are not exact integers"
            )
        # the sweep's own alignment rule, applied to every swept h before any run
        for h in h_values:
            grid = GridSpec.from_time(longest, h)
            for k, pair in enumerate(pairs):
                for fn in pair:
                    try:
                        _validate_alignment(fn, grid)
                    except PartitionMismatch as exc:
                        raise ConfigError(f"invalid 'step_function_pairs': pair {k}: {exc}") from exc
        probes = _read(payload, "probes", lambda v: tuple(range(b.dim) if v == "all" else map(_integer, _list(v))), "all")
        if not probes:
            raise ConfigError("invalid 'probes': at least one probe is required")
        if any(not 0 <= i < b.dim for i in probes):
            raise ConfigError(f"probe indices must lie in 0..{b.dim - 1}")
        depth = _read(payload, "compatibility_depth", _integer, 3)
        if depth < 0:
            raise ConfigError(f"invalid 'compatibility_depth': {depth} is negative")
        try:
            _check_lifted(b.dim, noise_dim + 1, depth)
        except DimensionCapExceeded as exc:
            raise ConfigError(f"invalid 'compatibility_depth': {exc}") from exc
        cap = _read(payload, "dimension_cap", _integer, DEFAULT_DIMENSION_CAP)
        if (noise_dim + 1) ** depth > cap:
            raise ConfigError(
                f"compatibility depth {depth} would materialize dimension "
                f"{(noise_dim + 1) ** depth} > cap {cap}"
            )
        tol = _read(payload, "tolerances", lambda v: _tolerances(v or {}))
        identity_h = _read(payload, "identity_h", lambda v: _step_lengths(v or (0.5, 0.1, 0.01)))
        if any(h <= 0 for h in identity_h):
            raise ConfigError(f"invalid 'identity_h': step lengths must be positive, got {list(identity_h)}")
        return cls(
            bialgebra=b,
            chi=chi,
            triple=triple,
            pairs=tuple(pairs),
            sample_times=times,
            h_values=h_values,
            identity_h=identity_h,
            probes=probes,
            compatibility_depth=depth,
            dimension_cap=cap,
            tolerances=tol,
            final_error_bound=_read(payload, "final_error_bound", finite_number, 1e-2),
            time_horizon=horizon,
            label=str(payload.get("label", "experiment")),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        payload = read_json(path)
        cfg = cls.from_payload(payload, path.parent)
        object.__setattr__(cfg, "label", str(payload.get("label", path.stem)))
        return cfg

    def scaled_identity_h(self) -> tuple[float, ...]:
        """identity_h values scaled so h ||xi||^2 <= 1 holds."""
        norm_sq = float(np.real(np.vdot(self.triple.xi, self.triple.xi)))
        out = []
        for h in self.identity_h:
            out.append(h if h * norm_sq <= 1.0 else h / norm_sq)
        return tuple(out)

    def generator(self) -> OperatorMap:
        return structure_map_from_pair(self.triple, self.chi)


@dataclass
class RunResult:
    report: dict
    passed: bool
    csv_text: str | None = None
    dat_text: str | None = None


def _check(report: dict, name: str, residual: float, tolerance: float, **extra) -> None:
    entry = {"residual": float(residual), "tolerance": float(tolerance), "passed": bool(residual <= tolerance)}
    entry.update(extra)
    report["checks"][name] = entry


def run_verify(config: ExperimentConfig) -> RunResult:
    """The full identity suite; every check lands in the report."""
    b, chi, triple = config.bialgebra, config.chi, config.triple
    tol = config.tolerances
    report: dict = {"schema": REPORT_SCHEMA, "label": config.label, "mode": "verify", "checks": {}}

    ax = verify_bialgebra(b, tol=tol["axioms"])
    _check(
        report,
        "bialgebra_axioms",
        ax.max_residual,
        tol["axioms"],
        detail=ax.as_dict(),
    )

    plain = ImplementingTriple(source=b, pi=triple.pi, xi=triple.xi)
    phi_big = structure_map_from_pair(plain, chi)
    _check(report, "structure_relation", verify_structure_relation(phi_big, chi), tol["structure_relation"])
    extraction = extract_implementing_pair(phi_big, chi, tol=tol["roundtrip"])
    _check(
        report,
        "extraction_roundtrip",
        extraction.roundtrip_residual,
        tol["roundtrip"],
        kernel_dim=extraction.kernel_dim,
    )

    # without D the walk is a *-homomorphism; with an isometry it is CP
    homomorphic = triple.D is None
    unitarity = 0.0
    identity_res = 0.0
    vector_res = 0.0
    for h in config.scaled_identity_h():
        step = build_unitary(triple.xi, h)
        u = step.unitary
        eye = np.eye(u.shape[0])
        unitarity = max(
            unitarity,
            opnorm(u.conj().T @ u - eye),
            opnorm(u @ u.conj().T - eye),
        )
        identity_res = max(identity_res, verify_error_identity(triple, chi, h))
        if homomorphic:
            vector_res = max(vector_res, max(vector_state_check(triple, chi, h)))
    _check(report, "unitarity", unitarity, tol["unitarity"])
    _check(report, "error_identity", identity_res, tol["error_identity"])
    if homomorphic:
        _check(report, "vector_state", vector_res, tol["vector_state"])

    h0 = config.h_values[0]
    psi = build_walk(triple, chi, h0)
    if homomorphic:
        hom = max(float(np.max(np.abs(defect))) for defect in b.homomorphism_defects(psi.mats))
        _check(report, "walk_homomorphism", hom, tol["homomorphism"])
    else:
        choi = cp_block_matrix(psi)
        choi_min = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0])
        _check(report, "walk_choi_positive", max(0.0, -choi_min), tol["choi"], min_eig=choi_min)
        _check(
            report,
            "walk_preunital",
            float(np.max(np.abs(psi.at_unit() - np.eye(psi.dim)))),
            tol["preunital"],
        )

    zeta = default_decomposition_vector(triple)
    phi = config.generator()
    cp_rep = verify_cp_decomposition(phi, chi, zeta, tol=tol["choi"])
    _check(
        report,
        "cp_decomposition",
        cp_rep.cp_residual,
        tol["choi"],
        detail=cp_rep.as_dict(),
    )

    _check(
        report,
        "compatibility",
        check_compatibility(psi, config.compatibility_depth, cap=config.dimension_cap),
        tol["compatibility"],
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
        tol["semigroup"],
    )

    passed = all(entry["passed"] for entry in report["checks"].values())
    report["passed"] = passed
    return RunResult(report=report, passed=passed)


def _probe_points(config: ExperimentConfig):
    """(label, f, g, t, probe) for every pair, then sample time, then probe."""
    # The probes of one (pair, t) come in a row, so walk_matrix_element and
    # CocycleEvaluator evaluate each functional once and read every probe
    # from their last entry.
    for k, (f, g) in enumerate(config.pairs):
        for t in config.sample_times:
            for probe in config.probes:
                yield f"p{k}_t{t:g}_b{probe}", f, g, t, probe


def _sweep_row(config: ExperimentConfig, phi: OperatorMap, limits: dict[str, complex], h: float) -> dict:
    psi = build_walk(config.triple, config.chi, h)
    gap = amplified_norm(gap_map(phi, psi, config.chi, h))
    errors = {
        label: abs(walk_matrix_element(psi, probe, f, g, t, h) - limits[label])
        for label, f, g, t, probe in _probe_points(config)
    }
    return {
        "h": h,
        "n_steps": GridSpec.from_time(max(config.sample_times), h).n,
        "generator_gap": gap,
        "errors": errors,
        "max_error": max(errors.values()),
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
        "rows": [
            {
                "h": row["h"],
                "n_steps": row["n_steps"],
                "generator_gap": row["generator_gap"],
                "max_error": row["max_error"],
                "errors": {k: float(v) for k, v in sorted(row["errors"].items())},
            }
            for row in rows
        ],
        "error_slope_tail": slope,
        "gap_slope": gap_slope,
        "monotone_tail": monotone_tail,
        "monotone_all": monotone_all,
        "initial_error": max_errors[0],
        "final_error": final_error,
        "final_error_bound": config.final_error_bound,
        "passed": passed,
    }
    return RunResult(
        report=report,
        passed=passed,
        csv_text=errors_to_csv(report),
        dat_text=errors_to_dat(report),
    )


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

DEMO_NAMES = ("c-z2", "group-z2", "group-s3", "custom-file")

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
    "identity_h": [0.5, 0.1, 0.01],
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
    if name == "c-z2":
        return {
            "label": "c-z2",
            "bialgebra": {"builtin": "function_algebra", "group": "z2"},
            "character": "counit",
            "triple": {"pi": "character:1", "xi": [[1.5, 0.0]]},
            "noise_dim": 1,
            "final_error_bound": 0.05,
            **_DEMO_COMMON,
        }
    if name == "group-z2":
        return {
            "label": "group-z2",
            "bialgebra": {"builtin": "group_algebra", "group": "z2"},
            "character": "counit",
            "triple": {"pi": "character:1", "xi": [[1.5, 0.0]]},
            "noise_dim": 1,
            "final_error_bound": 0.05,
            **_DEMO_COMMON,
        }
    if name == "group-s3":
        return {
            "label": "group-s3",
            "bialgebra": {"builtin": "group_algebra", "group": "s3"},
            "character": "counit",
            "triple": _s3_cp_triple_section(),
            "noise_dim": 1,
            "final_error_bound": 0.05,
            **_DEMO_COMMON,
        }
    if name == "custom-file":
        return {
            "label": "custom-file",
            "bialgebra": {"file": "bialgebra.json"},
            "character": "counit",
            "triple": {"pi": "character:1", "xi": [[1.5, 0.0]]},
            "noise_dim": 1,
            "final_error_bound": 0.05,
            **_DEMO_COMMON,
        }
    raise ConfigError(f"unknown demo {name!r}; choose one of {', '.join(DEMO_NAMES)}")


def write_demo(name: str, out_dir) -> Path:
    """Write the named demo's config (and any data files) into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = _demo_payload(name)
    if name == "custom-file":
        from .bialgebra import bialgebra_to_payload

        b = build_group_algebra(symmetric_group(3), extra_characters=[symmetric_sign_character(3)])
        write_json(out_dir / "bialgebra.json", bialgebra_to_payload(b))
    config_path = out_dir / "config.json"
    write_json(config_path, payload)
    return config_path
