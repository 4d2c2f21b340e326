"""Command-line interface.

Exit codes: 0 all checks passed, 1 a verification check failed,
2 the request itself was invalid (bad config, malformed file, unknown demo),
3 an internal error: any other exception, reported as one "internal error:"
line on stderr (the traceback is logged at DEBUG level).
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .bialgebra import AxiomViolation
from .experiment import (
    DEMO_NAMES,
    ConfigError,
    ExperimentConfig,
    REPORT_SCHEMA,
    RunResult,
    run_sweep,
    run_verify,
    write_demo,
)
from .serialize import FormatError, write_json

__all__ = ["main"]

log = logging.getLogger("qwalklab")


def _configure_logging() -> None:
    level = os.environ.get("QWALKLAB_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalklab",
        description="Quantum random walks on finite counital bialgebras: verify the "
        "algebraic identities, sweep step lengths against the cocycle limit, or run a demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity suite for a config")
    p_verify.add_argument("--config", required=True, help="path to the experiment config JSON")
    p_verify.add_argument("--out", default=".", help="directory for report.json (default: current directory)")

    p_sweep = sub.add_parser("sweep", help="run the step-length sweep for a config")
    p_sweep.add_argument("--config", required=True, help="path to the experiment config JSON")
    p_sweep.add_argument("--out", default=".", help="directory for report.json, errors.csv, errors.dat")

    p_demo = sub.add_parser("demo", help="write a built-in demo config and run verify + sweep on it")
    p_demo.add_argument("name", help=f"one of: {', '.join(DEMO_NAMES)}")
    p_demo.add_argument("--out", default=".", help="directory for the demo config and outputs")
    return parser


def _write_sweep_outputs(result: RunResult, out_dir: Path) -> None:
    if result.csv_text is not None:
        (out_dir / "errors.csv").write_text(result.csv_text)
    if result.dat_text is not None:
        (out_dir / "errors.dat").write_text(result.dat_text)


def _load_config(path, out_dir: Path, label: str) -> ExperimentConfig | None:
    """Parse the config; on an axiom violation write a failing report and return None."""
    try:
        return ExperimentConfig.from_file(path)
    except AxiomViolation as exc:
        report = {
            "schema": REPORT_SCHEMA,
            "label": label,
            "mode": "verify",
            "checks": {
                "bialgebra_axioms": {
                    "passed": False,
                    "axiom": exc.axiom,
                    "basis_index": list(exc.index),
                    "residual": exc.residual,
                }
            },
            "passed": False,
        }
        write_json(out_dir / "report.json", report)
        print(f"verification failed: {exc}", file=sys.stderr)
        return None


def _cmd_verify(args) -> int:
    out_dir = Path(args.out)
    config = _load_config(args.config, out_dir, Path(args.config).stem)
    if config is None:
        return 1
    log.info("verify: %s", config.label)
    result = run_verify(config)
    write_json(out_dir / "report.json", result.report)
    _print_check_summary(result)
    return 0 if result.passed else 1


def _cmd_sweep(args) -> int:
    out_dir = Path(args.out)
    config = _load_config(args.config, out_dir, Path(args.config).stem)
    if config is None:
        return 1
    log.info("sweep: %s over %d step lengths", config.label, len(config.h_values))
    result = run_sweep(config)
    write_json(out_dir / "report.json", result.report)
    _write_sweep_outputs(result, out_dir)
    _print_sweep_summary(result)
    return 0 if result.passed else 1


def _cmd_demo(args) -> int:
    if args.name not in DEMO_NAMES:
        print(f"unknown demo {args.name!r}; choose one of: {', '.join(DEMO_NAMES)}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    config_path = write_demo(args.name, out_dir)
    log.info("demo %s: wrote %s", args.name, config_path)
    config = _load_config(config_path, out_dir, args.name)
    if config is None:
        return 1
    verify = run_verify(config)
    sweep = run_sweep(config) if verify.passed else None
    report = {
        "schema": REPORT_SCHEMA,
        "label": config.label,
        "mode": "demo",
        "verify": verify.report,
        "sweep": sweep.report if sweep is not None else None,
        "passed": verify.passed and sweep is not None and sweep.passed,
    }
    write_json(out_dir / "report.json", report)
    _print_check_summary(verify)
    if sweep is not None:
        _write_sweep_outputs(sweep, out_dir)
        _print_sweep_summary(sweep)
    return 0 if report["passed"] else 1


def _print_check_summary(result: RunResult) -> None:
    for name, entry in result.report["checks"].items():
        status = "ok" if entry["passed"] else "FAIL"
        residual = entry.get("residual")
        if residual is not None:
            print(f"{status:4s} {name} (residual {residual:.3e})")
        else:
            print(f"{status:4s} {name}")


def _print_sweep_summary(result: RunResult) -> None:
    rep = result.report
    for row in rep["rows"]:
        print(
            f"h={row['h']:.6g} n={row['n_steps']} gap={row['generator_gap']:.6e} "
            f"max_err={row['max_error']:.6e}"
        )
    fmt = lambda s: "n/a" if s is None else f"{s:.3f}"
    print(
        f"tail slope {fmt(rep['error_slope_tail'])}, gap slope {fmt(rep['gap_slope'])}, "
        f"final error {rep['final_error']:.3e} "
        f"({'ok' if rep['passed'] else 'FAIL'} against bound {rep['final_error_bound']:.3e})"
    )


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "demo":
            return _cmd_demo(args)
    except (ConfigError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        log.debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    parser.error("a subcommand is required")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
