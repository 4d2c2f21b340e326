import gc
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qwalklab import (
    ExperimentConfig,
    FormatError,
    run_sweep,
    run_verify,
    verify_bialgebra,
    verify_cp_decomposition,
    write_demo,
)
from qwalklab.bialgebra import bialgebra_to_payload, build_group_algebra
from qwalklab.cli import main
from qwalklab.experiment import (
    DEMO_NAMES,
    FIELDS,
    MAX_PAIR_EXPONENT,
    MAX_SEGMENTS,
    MAX_SWEEP_EVALUATIONS,
    _demo_payload,
    errors_to_csv,
    errors_to_dat,
    resolve_bialgebra,
)
from qwalklab.fock import step_function_from_payload
from qwalklab.groups import symmetric_group, symmetric_sign_character
from qwalklab.serialize import read_json, write_json
from qwalklab.structure_maps import default_decomposition_vector

from .conftest import overflowing_file_payload, with_src


def base_payload(**over):
    payload = {
        "label": "unit",
        "bialgebra": {"builtin": "group_algebra", "group": "z2"},
        "character": "counit",
        "triple": {"pi": "character:1", "xi": [[0.9, 0.0]]},
        "step_function_pairs": [
            {"f": [[1.0, [0.5, 0.0]]], "g": [[1.0, [0.25, 0.0]]]}
        ],
        "time_horizon": 1.0,
        "sample_times": [1.0],
        "sweep": {"h0": 0.25, "ratio": 0.5, "count": 4},
        "probes": "all",
        "compatibility_depth": 2,
        "final_error_bound": 0.1,
    }
    payload.update(over)
    return payload


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    write_json(path, payload)
    return path


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig.from_payload(base_payload(), tmp_path)
    assert cfg.label == "unit"
    assert cfg.h_values == (0.25, 0.125, 0.0625, 0.03125)
    assert cfg.probes == (0, 1)
    assert cfg.sample_times == (1.0,)
    assert cfg.triple.D is None


def test_config_label_falls_back_to_stem(tmp_path):
    payload = base_payload()
    del payload["label"]
    path = write_config(tmp_path, payload, name="mylab.json")
    assert ExperimentConfig.from_file(path).label == "mylab"


@pytest.mark.parametrize(
    "over, match",
    [
        ({"step_function_pairs": []}, "step-function pair"),
        ({"sweep": {"h0": 0.25, "ratio": 1.5, "count": 4}}, "ratio"),
        ({"sweep": {"h0": -1.0, "ratio": 0.5, "count": 4}}, "h0"),
        ({"triple": {"pi": "character:1", "xi": [[2.5, 0.0]]}}, r"h \* \|\|xi\|\|\^2"),
        ({"sample_times": [2.0]}, "sample times"),
        ({"probes": [0, 7]}, "probe indices"),
        ({"dimension_cap": 64}, "unknown key 'dimension_cap'"),
        ({"noise_dim": 1}, "unknown key 'noise_dim'"),
        ({"identity_h": [0.5, 0.1, 0.01]}, "unknown key 'identity_h'"),
        ({"character": 9}, "character index"),
        ({"time_horizon": 0, "sample_times": [0.0]}, "time_horizon"),
        ({"triple": {"pi": "character:1"}}, "missing 'xi'"),
        ({"bialgebra": {"builtin": "whatever"}}, "builtin"),
        ({"bialgebra": {"builtin": "group_algebra", "group": "q8"}}, "unknown group"),
        (
            {
                "step_function_pairs": [
                    {"f": [[1.0, [0.5, 0.0], [0.1, 0.0]]], "g": [[1.0, [0.25, 0.0]]]}
                ]
            },
            "noise dimension",
        ),
        # the exact lines of refusals that a library ValueError becomes
        (
            {"compatibility_depth": 12},
            "^" + re.escape(
                "invalid 'compatibility_depth': 4 x 2^24 complex entries are more than the fixed bound of 16777216"
            ) + "$",
        ),
        (
            {"step_function_pairs": [{"f": [[0.3, [0.5, 0.0]], [0.7, [0.1, 0.0]]], "g": [[1.0, [0.25, 0.0]]]}]},
            "^" + re.escape(
                "invalid 'step_function_pairs': pair 0: step-function breakpoint 0.3 is not a multiple of "
                "h = 0.25; the grid must refine the step partition"
            ) + "$",
        ),
        (
            {"bialgebra": {"builtin": "group_algebra", "group": "z65"}},
            "^" + re.escape("invalid 'group' in 'bialgebra': order 65 outside the supported range 1..64") + "$",
        ),
    ],
)
def test_config_rejections(tmp_path, over, match):
    with pytest.raises(FormatError, match=match):
        ExperimentConfig.from_payload(base_payload(**over), tmp_path)


def test_verify_report_contents(tmp_path):
    cfg = ExperimentConfig.from_payload(base_payload(), tmp_path)
    result = run_verify(cfg)
    assert result.passed
    checks = result.report["checks"]
    expected = {
        "bialgebra_axioms",
        "structure_relation",
        "extraction_roundtrip",
        "unitarity",
        "error_identity",
        "vector_state",
        "walk_homomorphism",
        "cp_decomposition",
        "compatibility",
        "semigroup_law",
    }
    assert set(checks) == expected
    assert all(entry["passed"] for entry in checks.values())
    assert all(entry["residual"] < 1e-11 for entry in checks.values())


def test_verify_cp_config_swaps_checks(tmp_path):
    cfg = ExperimentConfig.from_payload(_demo_payload("group-s3"), tmp_path)
    result = run_verify(cfg)
    assert result.passed
    checks = result.report["checks"]
    assert "walk_choi_positive" in checks
    assert "walk_preunital" in checks
    assert "vector_state" not in checks
    assert "walk_homomorphism" not in checks


@pytest.mark.parametrize("count", [1, 6])  # a one-step ladder, as in the verify-large benchmark, and the default
@pytest.mark.parametrize("name", DEMO_NAMES)
def test_verify_checks_the_identities_at_every_step_length(tmp_path, monkeypatch, name, count):
    import qwalklab.experiment as experiment

    checked = []
    real = experiment.verify_error_identity

    def counted(triple, chi, h):
        checked.append(h)
        return real(triple, chi, h)

    monkeypatch.setattr(experiment, "verify_error_identity", counted)
    payload = read_json(write_demo(name, tmp_path))
    payload["sweep"]["count"] = count
    config = ExperimentConfig.from_payload(payload, tmp_path)
    assert run_verify(config).passed
    assert checked == list(config.h_values)
    assert len(checked) == count


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_finite_h_identities_hold_down_a_forty_step_ladder(tmp_path, name):
    # h from 1/4 down to 2^-41 = 4.5e-13
    payload = read_json(write_demo(name, tmp_path))
    payload["sweep"] = {"h0": 0.25, "ratio": 0.5, "count": 40}
    config = ExperimentConfig.from_payload(payload, tmp_path)
    checks = run_verify(config).report["checks"]
    assert ("vector_state" in checks) == (config.triple.D is None)
    for key in ("unitarity", "error_identity", "vector_state"):
        assert key not in checks or checks[key]["passed"], checks[key]


def test_sweep_evaluates_each_functional_once_per_pair_time_and_step(s3_demo_config, monkeypatch):
    # group-s3: 6 step lengths x 2 pairs x 1 time x 6 probes = 72 walk calls;
    # each pair has 2 pieces, so 6 x 2 walk functionals and 2 limits of
    # 2 joins each make 28 joins, where one product per probe made 168
    import qwalklab.experiment as experiment
    import qwalklab.fock as fock

    calls = {"convolve_functionals": 0, "walk_matrix_element": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(fock, "convolve_functionals")
    counted(experiment, "walk_matrix_element")
    run_sweep(s3_demo_config)
    assert calls == {"convolve_functionals": 28, "walk_matrix_element": 72}


def test_sweep_report_shape(tmp_path):
    cfg = ExperimentConfig.from_payload(base_payload(), tmp_path)
    result = run_sweep(cfg)
    rep = result.report
    assert result.passed
    assert [row["h"] for row in rep["rows"]] == [0.25, 0.125, 0.0625, 0.03125]
    assert [row["n_steps"] for row in rep["rows"]] == [4, 8, 16, 32]
    assert rep["monotone_tail"]
    assert rep["final_error"] < rep["initial_error"]
    gaps = [row["generator_gap"] for row in rep["rows"]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    labels = set(rep["rows"][0]["errors"])
    assert labels == {"p0_t1_b0", "p0_t1_b1"}
    # the tail holds ceil(count/2) = 2 rows here, below the 3-point
    # minimum for a fit, while the gap slope uses all 4 rows
    assert rep["error_slope_tail"] is None
    assert 0.7 < rep["gap_slope"] < 1.3


def test_sweep_n_steps_follow_the_largest_sample_time(tmp_path):
    cfg = ExperimentConfig.from_payload(base_payload(sample_times=[1.0, 0.5]), tmp_path)
    rows = run_sweep(cfg).report["rows"]
    assert [row["n_steps"] for row in rows] == [4, 8, 16, 32]


def test_sweep_tail_slope_with_six_rows(tmp_path):
    payload = base_payload(sweep={"h0": 0.25, "ratio": 0.5, "count": 6})
    rep = run_sweep(ExperimentConfig.from_payload(payload, tmp_path)).report
    assert rep["error_slope_tail"] is not None
    assert 0.8 < rep["error_slope_tail"] < 1.2


def test_sweep_csv_and_dat_layout(tmp_path):
    cfg = ExperimentConfig.from_payload(base_payload(), tmp_path)
    report = run_sweep(cfg).report
    lines = errors_to_csv(report).strip().split("\n")
    assert lines[0] == "# schema: qwalklab-errors-v1"
    assert lines[1].split(",")[:4] == ["h", "n_steps", "generator_gap", "max_error"]
    assert "err_p0_t1_b0" in lines[1]
    assert len(lines) == 2 + 4
    dat = errors_to_dat(report).strip().split("\n")
    assert dat[0].startswith("#")
    assert len(dat) == 2 + 4
    first_row = dat[2].split()
    assert float(first_row[0]) == 0.25


def test_unit_probe_error_is_first_order_not_zero(tmp_path):
    # psi(1) = I makes the unit probe an Euler-product error: nonzero at
    # every h but shrinking linearly
    cfg = ExperimentConfig.from_payload(base_payload(), tmp_path)
    rows = run_sweep(cfg).report["rows"]
    unit_errs = [row["errors"]["p0_t1_b0"] for row in rows]
    assert all(e > 1e-9 for e in unit_errs)
    assert all(b < a for a, b in zip(unit_errs, unit_errs[1:]))
    slope = np.polyfit(
        np.log([row["h"] for row in rows]), np.log(unit_errs), 1
    )[0]
    assert 0.8 < slope < 1.2


def test_cli_verify_and_sweep_roundtrip(tmp_path, capsys):
    path = write_config(tmp_path, base_payload())
    out1 = tmp_path / "v"
    out1.mkdir()
    assert main(["verify", "--config", str(path), "--out", str(out1)]) == 0
    report = read_json(out1 / "report.json")
    assert report["mode"] == "verify"
    assert report["passed"]
    assert "ok   bialgebra_axioms" in capsys.readouterr().out

    out2 = tmp_path / "s"
    out2.mkdir()
    assert main(["sweep", "--config", str(path), "--out", str(out2)]) == 0
    assert (out2 / "report.json").exists()
    assert (out2 / "errors.csv").exists()
    assert (out2 / "errors.dat").exists()
    text = capsys.readouterr().out
    assert "tail slope" in text
    assert "ok against bound" in text


def test_cli_reruns_are_byte_identical(tmp_path):
    path = write_config(tmp_path, base_payload())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("report.json", "errors.csv", "errors.dat"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_cli_corrupted_coproduct_names_coassociativity(tmp_path, capsys):
    b = build_group_algebra(symmetric_group(3), extra_characters=[symmetric_sign_character(3)])
    payload = bialgebra_to_payload(b)
    payload["coproduct"][1][0][1] = [0.25, 0.0]
    write_json(tmp_path / "bad.json", payload)
    config = base_payload(
        bialgebra={"file": "bad.json"},
        triple={"pi": "character:1", "xi": [[0.9, 0.0]]},
    )
    path = write_config(tmp_path, config)
    code = main(["verify", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid 'file' in 'bialgebra': coassociativity violated at basis index ")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("axioms", [None, 1e-9])
def test_cli_axioms_tolerance_applies_to_bialgebra_files(tmp_path, capsys, axioms):
    # a file's axioms are checked as it loads, to the lab's fixed "axioms" tolerance; no config can loosen it
    config_path = write_demo("custom-file", tmp_path)
    bialgebra = read_json(tmp_path / "bialgebra.json")
    bialgebra["counit"][0][0] += 1e-11
    write_json(tmp_path / "bialgebra.json", bialgebra)
    if axioms is not None:
        write_json(config_path, {**read_json(config_path), "tolerances": {"axioms": axioms}})
    code = main(["verify", "--config", str(config_path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    if axioms is None:
        assert err == "error: invalid 'file' in 'bialgebra': counit_law violated at basis index 0 (residual 1.000e-11)\n"
    else:
        assert err == "error: unknown key 'tolerances' in the config\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_bialgebra_file_failing_an_axiom_exits_two(tmp_path, capsys, command):
    # a failed axiom refuses the file like any other defect of it: one line on stderr, no report
    config = write_demo("custom-file", tmp_path)
    bialgebra = read_json(tmp_path / "bialgebra.json")
    bialgebra["counit"][0][0] += 1e-3
    write_json(tmp_path / "bialgebra.json", bialgebra)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid 'file' in 'bialgebra': counit_law violated at basis index 0 (residual 1.000e-03)\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_bialgebra_file_with_a_nan_residual_exits_two(tmp_path, capsys, command, group_z2):
    # the file, not the triple built on it, is named: a NaN axiom residual fails the file's check
    write_json(tmp_path / "bialgebra.json", overflowing_file_payload(group_z2))
    payload = base_payload(bialgebra={"file": "bialgebra.json"}, triple={"pi": "character:0", "xi": [[1.5, 0.0]]})
    config = write_config(tmp_path, payload)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid 'file' in 'bialgebra': associativity violated at basis index 0 (residual nan)\n"
    assert not (tmp_path / "report.json").exists()


def test_python_dash_m_bialgebra_file_with_a_nan_residual_prints_one_line(tmp_path, group_z2):
    # the overflow that makes the residual NaN is no numpy warning on stderr: the refusal is its one line
    write_json(tmp_path / "bialgebra.json", overflowing_file_payload(group_z2))
    payload = base_payload(bialgebra={"file": "bialgebra.json"}, triple={"pi": "character:0", "xi": [[1.5, 0.0]]})
    config = write_config(tmp_path, payload)
    proc = subprocess.run(
        [sys.executable, "-m", "qwalklab", "verify", "--config", str(config), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=with_src(),
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: invalid 'file' in 'bialgebra': associativity violated at basis index 0 (residual nan)\n"


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_pair_with_an_unknown_key_exits_two(tmp_path, capsys, command):
    payload = _demo_payload("group-z2")
    payload["step_function_pairs"][0]["x"] = 1
    config = write_config(tmp_path, payload)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid 'step_function_pairs': pair 0 is malformed: unknown key 'x'\n"
    assert not (tmp_path / "report.json").exists()


def test_cli_failed_extraction_is_a_failed_check(tmp_path, capsys):
    # at ||xi|| = 1000 the round trip loses 7e-10 to rounding: verify reports it, it does not crash
    payload = _demo_payload("c-z2")
    payload["triple"]["xi"] = [[1000.0, 0.0]]
    payload["sweep"] = {"h0": 1e-6, "count": 1}
    config = write_config(tmp_path, payload)
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 1
    report = read_json(tmp_path / "report.json")
    entry = report["checks"]["extraction_roundtrip"]
    assert not report["passed"]
    assert not entry["passed"]
    assert entry["residual"] > entry["tolerance"] == 1e-10
    assert "FAIL extraction_roundtrip" in capsys.readouterr().out


def test_cli_oversized_step_exits_two(tmp_path, capsys):
    config = base_payload(triple={"pi": "character:1", "xi": [[2.5, 0.0]]})
    path = write_config(tmp_path, config)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "h * ||xi||^2" in capsys.readouterr().err


def test_cli_oversized_step_names_the_sweep(tmp_path, capsys):
    payload = _demo_payload("group-z2")
    payload["sweep"]["h0"] = 0.5  # ||xi||^2 = 2.25
    config = write_config(tmp_path, payload)
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid 'sweep': h * ||xi||^2 = 1.125 > 1")


def test_step_past_one_by_rounding_reads_its_full_product():
    # h ||xi||^2 = 1.0000000000000002 is refused, as the strict bound says, and no longer reads "1 > 1"
    payload = _demo_payload("group-s3")
    xi = np.array([re + 1j * im for re, im in payload["triple"]["xi"]])
    payload["triple"]["xi"] = [[x.real, x.imag] for x in xi * (1000 / np.linalg.norm(xi))]
    payload["sweep"] = {"h0": 1e-6, "count": 1}
    with pytest.raises(FormatError) as refused:
        ExperimentConfig.from_payload(payload, None)
    assert str(refused.value) == (
        "invalid 'sweep': h * ||xi||^2 = 1.0000000000000002 > 1: step length too large for the "
        "walk unitary (the rotation angle would leave [0, pi/2])"
    )


#: the C[Z2] file, one bad key at a time (a value of None deletes the key), and the line that names that key
Z2_FILE_ERRORS = [
    ("counit", "x", "invalid 'counit': expected [re, im] pair or nested list, got 'x'"),
    (
        "characters",
        [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]],
        "invalid 'characters': ragged nested list: entries at one depth differ in shape",
    ),
    ("structure_constants", 0, "invalid 'structure_constants': has shape (2, 2), expected (2, 2, 2)"),
    ("involution", 0, "invalid 'involution': has shape (2,), expected (2, 2)"),
    ("faithful_rep", 0, "invalid 'faithful_rep': has shape (2, 2), expected (2, 2, 2)"),
    ("format", "x", "unsupported bialgebra format 'x'"),
    ("format", None, "missing 'format'"),
    ("unit", None, "missing 'unit'"),
]


@pytest.mark.parametrize(
    "key, value, expected", Z2_FILE_ERRORS, ids=[k if v is not None else f"no-{k}" for k, v, _ in Z2_FILE_ERRORS]
)
def test_cli_bad_bialgebra_array_names_its_file_key(tmp_path, capsys, key, value, expected):
    # a bad value is replaced outright; 0 stands for the array's own first row, one axis short
    content = bialgebra_to_payload(build_group_algebra(symmetric_group(2)))
    if value is None:
        del content[key]
    else:
        content[key] = content[key][0] if value == 0 else value
    write_json(tmp_path / "bad.json", content)
    triple = {"pi": "regular", "xi": [[0.9, 0.0], [0.0, 0.0]]}
    config = write_config(tmp_path, base_payload(bialgebra={"file": "bad.json"}, triple=triple))
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: invalid 'file' in 'bialgebra': {expected}\n"


@pytest.mark.parametrize(
    "content, expected",
    [
        ({"mult_table": [0, 1, 1, 0]}, "missing 'order'"),
        ({"order": 2, "mult_table": "x"}, "invalid 'mult_table': expected an integer, got 'x'"),
        ({"order": 2, "mult_table": [0, 1, 1]}, "invalid 'mult_table': length 3 != order^2 = 4"),
        (
            {"order": 65, "mult_table": [(i + j) % 65 for i in range(65) for j in range(65)]},
            "order 65 exceeds supported maximum 64",
        ),
        ({"order": 2, "mult_table": [0, 1, 1, 2]}, "table entries must be indices in [0, order)"),
    ],
    ids=["missing-order", "string-table", "short-table", "order-65", "entry-past-the-order"],
)
def test_cli_bad_group_file_names_its_key(tmp_path, capsys, content, expected):
    write_json(tmp_path / "g.json", content)
    section = {"builtin": "group_algebra", "group": {"file": "g.json"}}
    config = write_config(tmp_path, base_payload(bialgebra=section, triple={"pi": "character:0", "xi": [[1.5, 0.0]]}))
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: invalid 'group' in 'bialgebra': {expected}\n"


#: config edits of the group-z2 demo (None deletes the key), and the one line each prints
REFUSAL_LINES = {
    "empty-xi": ({"triple": {"pi": "character:1", "xi": []}}, "invalid 'triple': xi has shape (0,), expected (1,)"),
    "empty-pi": (
        {"triple": {"pi": {"matrices": []}, "xi": [[1.5, 0.0]]}},
        "invalid 'triple': pi has shape (0,), expected (2, p, p)",
    ),
    "missing-bialgebra": ({"bialgebra": None}, "missing 'bialgebra' in the config"),
}


@pytest.mark.parametrize("case", REFUSAL_LINES)
def test_cli_refusal_prints_its_one_line(tmp_path, capsys, case):
    edits, expected = REFUSAL_LINES[case]
    payload = _demo_payload("group-z2")
    for key, value in edits.items():
        if value is None:
            del payload[key]
        else:
            payload[key] = value
    config = write_config(tmp_path, payload)
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "report.json").exists()


def test_cli_h0_past_the_float_range_is_not_a_finite_number(tmp_path, capsys):
    # a 401-digit JSON integer is a Python int that no float holds
    payload = _demo_payload("group-z2")
    payload["sweep"]["h0"] = 10**400
    config = write_config(tmp_path, payload)
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid 'h0' in 'sweep': 1000")
    assert err.endswith(" is not a finite number\n")


@pytest.mark.parametrize(
    "pair, expected",
    [
        ({"g": [[1.0, [0.25, 0.0]]]}, "missing 'f'"),
        ({"f": [[1.0, [0.25, 0.0]]], "g": "x"}, "invalid 'g': expected a nonempty list, got 'x'"),
    ],
    ids=["missing-f", "bad-g"],
)
def test_cli_malformed_pair_names_its_key(tmp_path, capsys, pair, expected):
    payload = _demo_payload("group-z2")
    payload["step_function_pairs"][1] = pair
    config = write_config(tmp_path, payload)
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: invalid 'step_function_pairs': pair 1 is malformed: {expected}\n"


#: each overflow config, an edit of the group-z2 demo, and the one line it prints
_HUGE = [[1e308, [0.0, 0.0]], [1e308, [0.0, 0.0]]]
_DURATIONS_PAST_THE_FLOAT_RANGE = (
    "invalid 'step_function_pairs': pair 0 is malformed: invalid 'f': segment durations must sum to a finite time"
)
OVERFLOW_CONFIGS = {
    "durations-sum-to-inf": (
        lambda p: p.__setitem__("step_function_pairs", [{"f": _HUGE, "g": _HUGE}]),
        _DURATIONS_PAST_THE_FLOAT_RANGE,
    ),
    "durations-sum-to-inf-in-f": (
        lambda p: p["step_function_pairs"][0].__setitem__("f", [[1e308, [1.0, 0.0]], [1e308, [1.0, 0.0]]]),
        _DURATIONS_PAST_THE_FLOAT_RANGE,
    ),
    "value-squares-to-inf": (
        lambda p: p["step_function_pairs"][0].__setitem__("f", [[0.25, [1.0, 0.0]], [0.75, [1e200, 0.0]]]),
        "invalid 'step_function_pairs': pair 0 has (max|f|^2 + max|g|^2) / 2 * max(1, T_f, T_g) = inf > 700, "
        "past which its matrix elements can overflow",
    ),
    "huge-D": (
        lambda p: p["triple"].__setitem__("D", [[[1e200, 0.0]]]),
        "invalid 'triple': triple is invalid: isometry residual inf > 1e-10",
    ),
    "huge-pi": (
        lambda p: p["triple"].__setitem__("pi", {"matrices": [[[[1e200, 0.0]]], [[[1e200, 0.0]]]]}),
        "invalid 'triple': triple is invalid: pi_product residual inf > 1e-10",
    ),
}


@pytest.mark.parametrize("case", OVERFLOW_CONFIGS)
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_python_dash_m_overflowing_config_prints_one_line(tmp_path, command, case):
    # no numpy warning comes before the refusal, and no NaN reaches a report
    edit, expected = OVERFLOW_CONFIGS[case]
    payload = _demo_payload("group-z2")
    edit(payload)
    config = write_config(tmp_path, payload)
    proc = subprocess.run(
        [sys.executable, "-m", "qwalklab", command, "--config", str(config), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=with_src(),
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {expected}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_non_faithful_rep_file_exits_two_naming_it(tmp_path, capsys, command):
    # the trivial representation is a *-representation that is not faithful: a malformed file, not a failed axiom
    config = write_demo("custom-file", tmp_path)
    bialgebra = read_json(tmp_path / "bialgebra.json")
    bialgebra["faithful_rep"] = [[[[1.0, 0.0]]]] * 6
    write_json(tmp_path / "bialgebra.json", bialgebra)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid 'file' in 'bialgebra': invalid 'faithful_rep': not faithful")
    assert "0.000e+00 <= 1e-08" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_pair_past_the_exponent_bound_exits_two(tmp_path, capsys, command):
    # exp(integral |f|^2 / 2) = e^500000 would overflow, and reach report.json as NaN
    payload = _demo_payload("group-z2")
    payload["step_function_pairs"][0]["f"] = [[1.0, [1000.0, 0.0]]]
    config = write_config(tmp_path, payload)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid 'step_function_pairs': pair 0 has ")
    assert "= 500000 > 700" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_pair_at_the_exponent_bound_keeps_every_number_finite(tmp_path, name):
    # f = g = c with c^2 just under MAX_PAIR_EXPONENT: matrix elements near e^700, none overflows
    payload = _demo_payload(name)
    c = math.sqrt(0.999 * MAX_PAIR_EXPONENT)
    payload["step_function_pairs"][0] = {"f": [[1.0, [c, 0.0]]], "g": [[1.0, [c, 0.0]]]}
    write_demo(name, tmp_path)
    config = ExperimentConfig.from_payload(payload, tmp_path)
    for run in (run_verify, run_sweep):
        json.dumps(run(config).report, allow_nan=False)


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_verify_details_are_the_check_reports(tmp_path, name):
    config = ExperimentConfig.from_file(write_demo(name, tmp_path))
    checks = run_verify(config).report["checks"]
    assert checks["bialgebra_axioms"]["detail"] == verify_bialgebra(config.bialgebra)
    zeta = default_decomposition_vector(config.triple)
    cp = verify_cp_decomposition(config.generator(), config.chi, zeta)
    assert json.loads(json.dumps(checks["cp_decomposition"]["detail"])) == json.loads(json.dumps(cp))


MALFORMED_FIELDS = [
    ("pi", ("triple", "pi"), "character:x"),
    ("sweep", ("sweep",), "abc"),
    ("probes", ("probes",), ["x"]),
    ("time_horizon", ("time_horizon",), "x"),
    ("sample_times", ("sample_times",), "x"),
    ("compatibility_depth", ("compatibility_depth",), "x"),
    ("final_error_bound", ("final_error_bound",), "x"),
    ("xi", ("triple", "xi"), [float("nan")]),
    ("compatibility_depth", ("compatibility_depth",), -1),
    ("step_function_pairs", ("step_function_pairs", 0, "f"), [[-0.5, [1.0, 0.0]], [1.5, [0.6, -0.3]]]),
    ("sweep", ("sweep",), {"h0": 1e-320, "count": 1}),
    ("sweep", ("sweep",), {"h0": 1e-200, "count": 1}),
    ("step_function_pairs", ("step_function_pairs", 0, "f"), [[0.3, [1.0, 0.0]], [0.7, [0.6, -0.3]]]),
    ("final_eror_bound", ("final_eror_bound",), 1e-30),
    ("cuont", ("sweep", "cuont"), 99),
    ("group", ("bialgebra", "group"), "z0"),
    ("group", ("bialgebra", "group"), "z65"),
    ("file", ("bialgebra", "file"), 5),
    ("file", ("bialgebra", "group"), {"file": 5}),
    ("probes", ("probes",), []),
    ("sweep", ("sweep",), {"h0": 0.25, "ratio": 0.999999, "count": 1000000}),
    ("sweep", ("sweep",), {"h0": 0.25, "ratio": 0.5, "count": 2.7}),
    ("probes", ("probes",), [1.9]),
    ("compatibility_depth", ("compatibility_depth",), 2.5),
    ("compatibility_depth", ("compatibility_depth",), 12),
    ("character", ("character",), True),
    ("character", ("character",), False),
    ("character", ("character",), 2),
    ("character", ("character",), "x"),
    ("pi", ("triple", "pi"), "character: 1"),
    ("pi", ("triple", "pi"), "character:+1"),
    ("pi", ("triple", "pi"), "character:0_1"),
    ("step_function_pairs", ("step_function_pairs", 0, "f"), [[float("nan"), [1.0, 0.0]]]),
    ("step_function_pairs", ("step_function_pairs", 0, "f"), [[float("inf"), [1.0, 0.0]]]),
    ("step_function_pairs", ("step_function_pairs", 0, "f"), [[1.0, [float("nan"), 0.0]]]),
    ("step_function_pairs", ("step_function_pairs", 0, "f"), [[1.0, [1.0, float("inf")]]]),
    ("step_function_pairs", ("step_function_pairs", 0, "f"), [["1.0", [1.0, 0.0]]]),
    ("step_function_pairs", ("step_function_pairs", 0, "f"), [[True, [1.0, 0.0]]]),
    ("step_function_pairs", ("step_function_pairs", 0, "f"), [[1.0, [True, False]]]),
    ("sweep", ("sweep", "ratio"), "0.5"),
    ("time_horizon", ("time_horizon",), "1"),
    ("time_horizon", ("time_horizon",), True),
    ("sample_times", ("sample_times",), [True]),
    ("final_error_bound", ("final_error_bound",), "0.05"),
    ("xi", ("triple", "xi"), [[True, False]]),
    ("final_error_bound", ("final_error_bound",), 0.0),
    ("final_error_bound", ("final_error_bound",), -0.05),
    ("label", ("label",), {"a": 1}),
    ("group", ("bialgebra", "group"), "s5"),
    ("group", ("bialgebra", "group"), "q8"),
    ("group", ("bialgebra", "group"), True),
    ("group", ("bialgebra", "group"), None),
    ("builtin", ("bialgebra", "builtin"), None),
    ("sample_times", ("sample_times",), 0),
    ("sample_times", ("sample_times",), []),
    ("sweep", ("sweep",), 0),
    ("sweep", ("sweep",), []),
    ("tolerances", ("tolerances",), {"axioms": 1e-9}),
    ("time_horizon", ("time_horizon",), -1),
    ("time_horizon", ("time_horizon",), 0),
    ("dimension_cap", ("dimension_cap",), 4096),
    ("noise_dim", ("noise_dim",), 1),
    ("identity_h", ("identity_h",), [0.5, 0.1, 0.01]),
    ("pi", ("triple", "pi"), {"matrices": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]], "note": "sign"}),
    ("pi", ("triple", "pi"), {"xi": [[1.0, 0.0]], "matrices": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]}),
    ("pi", ("triple", "pi"), {"D": [[[1.0, 0.0]]], "matrices": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]}),
    ("pi", ("triple", "pi"), {"note": "sign"}),
    ("sample_times", ("sample_times",), [0.5, 0.5000001]),
    ("sample_times", ("sample_times",), [1.0, 1.0]),
    ("sample_times", ("sample_times",), [k / 65 for k in range(1, 66)]),
    ("step_function_pairs", ("step_function_pairs",), _demo_payload("group-z2")["step_function_pairs"][:1] * 65),
    ("probes", ("probes",), [0, 0]),
    ("probes", ("probes",), [1, 0, 1]),
    # 2 pairs x 43 times x 2 probes x 6 step lengths = 1032 walk evaluations; 42 times make 1008
    ("sweep", ("sample_times",), [k / 64 for k in range(22, 65)]),
    # a D with a third axis passed the checks on its first two axes, then ended in an internal error
    ("triple", ("triple", "D"), [[[[1.0, 0.0]]]]),
]


@pytest.mark.parametrize(
    "field, path, value", MALFORMED_FIELDS, ids=[f"{case[0]}={case[2]!r}"[:40] for case in MALFORMED_FIELDS]
)
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_malformed_field_exits_two_naming_it(tmp_path, capsys, command, field, path, value):
    payload = _demo_payload("group-z2")
    *parents, key = path
    section = payload
    for name in parents:
        section = section[name]
    section[key] = value
    config = write_config(tmp_path, payload)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert repr(field) in err


@pytest.mark.parametrize("demo, p", [("group-z2", 1), ("group-s3", 6)])
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_isometry_without_columns_exits_two_naming_it(tmp_path, capsys, command, demo, p):
    # a p x 0 isometry keeps no noise direction
    payload = _demo_payload(demo)
    payload["triple"]["D"] = [[]] * p
    config = write_config(tmp_path, payload)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    expected = f"error: invalid 'triple': D has shape ({p}, 0), expected ({p}, d) with d >= 1\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_non_multiplicative_pi_exits_two_naming_the_residual(tmp_path, capsys, command):
    # pi(e) = 1 and pi(g) = 0.5 on C[Z2]: pi(g)^2 - pi(g^2) = -0.75
    payload = _demo_payload("group-z2")
    payload["triple"]["pi"] = {"matrices": [[[[1.0, 0.0]]], [[[0.5, 0.0]]]]}
    config = write_config(tmp_path, payload)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    expected = "error: invalid 'triple': triple is invalid: pi_product residual 7.500e-01 > 1e-10\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "report.json").exists()


def _regular_on(group: str, order: int) -> dict:
    """The group-z2 demo config on C[group] with pi regular, D = I and no compatibility check."""
    payload = _demo_payload("group-z2")
    payload["bialgebra"]["group"] = group
    payload["triple"] = {"pi": "regular", "xi": [[0.1, 0.0]] * order}
    payload["step_function_pairs"] = [{"f": [[1.0] + [[0.5, 0.0]] * order], "g": [[1.0] + [[0.25, 0.0]] * order]}]
    payload["compatibility_depth"] = 0
    payload["probes"] = [0]
    return payload


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_triple_past_the_ascent_bound_exits_two(tmp_path, capsys, command):
    # 70 starts of 4160 x 4160 on C[Z64] would hold 1.2e9 complex entries (17.7 GB of basis starts alone)
    config = write_config(tmp_path, _regular_on("z64", 64))
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid 'triple': the cb-norm ascent on hat dimension 65 could hold 1249543750 complex "
        "entries, more than the fixed bound of 16777216\n"
    )
    assert not (tmp_path / "report.json").exists()


def test_s4_regular_triple_is_within_the_ascent_bound(tmp_path):
    # 30 starts of 25^4 entries: 1.2e7 <= 2**24
    config = ExperimentConfig.from_payload(_regular_on("s4", 24), tmp_path)
    assert config.triple.noise_dim == 24


def _sweep_of_shape(pairs: int, times: int, probes: int, count: int) -> dict:
    """The group-z2 demo config with its pairs repeated, and the given numbers of sample times, probes and steps."""
    payload = _demo_payload("group-z2")
    payload["step_function_pairs"] = (payload["step_function_pairs"] * pairs)[:pairs]
    payload["sample_times"] = [1.0 - k / 64 for k in range(times)]
    payload["probes"] = list(range(probes))
    payload["sweep"]["count"] = count
    return payload


@pytest.mark.parametrize("shape", [(16, 32, 2, 1), (8, 2, 2, 32), (32, 1, 1, 32)])
def test_sweep_at_the_work_bound_is_accepted(tmp_path, shape):
    assert math.prod(shape) == MAX_SWEEP_EVALUATIONS
    config = ExperimentConfig.from_payload(_sweep_of_shape(*shape), tmp_path)
    assert math.prod((len(config.pairs), len(config.sample_times), len(config.probes), len(config.h_values))) == math.prod(shape)


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_sweep_one_past_the_work_bound_exits_two_naming_the_factors(tmp_path, capsys, command):
    config = write_config(tmp_path, _sweep_of_shape(5, 5, 1, 41))  # 1025 = 5 x 5 x 1 x 41
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: invalid 'sweep': 5 pairs x 5 sample times x 1 probes x 41 step lengths = 1025 walk "
        "evaluations, more than 1024\n"
    )


def _with_segments(f: int, g: int) -> dict:
    """The group-z2 demo config with one pair whose f and g have the given numbers of equal segments."""
    payload = _demo_payload("group-z2")
    payload["step_function_pairs"] = [
        {fn: [[1 / n, [1.0 - 0.5 * (k % 2), 0.0]] for k in range(n)] for fn, n in (("f", f), ("g", g))}
    ]
    payload["sweep"] = {"h0": 1 / 64, "ratio": 0.5, "count": 3}  # h0 divides every breakpoint k/64
    return payload


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_step_functions_at_the_segment_bound_are_accepted(tmp_path, capsys, command):
    config = write_config(tmp_path, _with_segments(MAX_SEGMENTS, MAX_SEGMENTS))
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("fn", ["f", "g"])
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_a_step_function_past_the_segment_bound_exits_two(tmp_path, capsys, command, fn):
    segments = {"f": 1, "g": 1, fn: MAX_SEGMENTS + 1}
    config = write_config(tmp_path, _with_segments(segments["f"], segments["g"]))
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid 'step_function_pairs': pair 0 is malformed: "
        f"invalid {fn!r}: expected at most 64 entries, got 65\n"
    )


@pytest.mark.parametrize("segments", [MAX_SEGMENTS + 1, 4 * MAX_SEGMENTS])
def test_segment_bound_belongs_to_the_config_reader(tmp_path, segments):
    payload = _with_segments(segments, 1)
    assert len(step_function_from_payload(payload["step_function_pairs"][0]["f"]).durations) == segments
    with pytest.raises(FormatError, match=f"invalid 'step_function_pairs': .* got {segments}$"):
        ExperimentConfig.from_payload(payload, tmp_path)


#: (section, key, value) for every field FIELDS lists, each with a value no rule admits
GENERATED_FIELDS = [
    pytest.param(section, key, value, id=f"{section}.{key}={value!r}")
    for section, fields in FIELDS.items()
    for key in fields
    for value in (None, True, {"bad": 1})
]


def _with_field(section, key, value) -> dict:
    """The group-z2 demo config with section[key] (top level: key) set to value."""
    payload = _demo_payload("group-z2")
    (payload if section is None else payload.setdefault(section, {}))[key] = value
    return payload


@pytest.mark.parametrize("section, key, value", GENERATED_FIELDS)
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_generated_field_exits_two_naming_it(tmp_path, capsys, command, section, key, value):
    config = write_config(tmp_path, _with_field(section, key, value))
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert repr(key) in err
    assert section is None or repr(section) in err


@pytest.mark.parametrize("section, key, value", GENERATED_FIELDS)
def test_generated_field_is_refused_before_the_bialgebra_is_built(tmp_path, monkeypatch, section, key, value):
    def unreachable(*args):
        pytest.fail("the bialgebra was built before a malformed field was refused")

    monkeypatch.setattr("qwalklab.experiment.resolve_bialgebra", unreachable)
    with pytest.raises(FormatError, match=re.escape(repr(key))):
        ExperimentConfig.from_payload(_with_field(section, key, value), tmp_path)


GROUP_FILE = {"builtin": "group_algebra", "group": {"file": "bad.json"}}


@pytest.mark.parametrize(
    "bialgebra, content, field",
    [
        (GROUP_FILE, {"order": 2, "mult_table": [0, 0, 0, 0]}, "group"),
        ({"file": "bad.json"}, {"dim": "x"}, "dim"),
        ({"file": "bad.json"}, {"labels": 5}, "labels"),
        (GROUP_FILE, {"order": 2, "mult_table": [0, 1, 1, 0.9]}, "group"),
        (GROUP_FILE, {"order": True, "mult_table": [0]}, "group"),
        (GROUP_FILE, {"order": "2", "mult_table": [0, 1, 1, 0]}, "group"),
        (GROUP_FILE, {"order": 2, "mult_table": ["0", 1, 1, 0]}, "group"),
        (GROUP_FILE, {"order": 2, "mult_table": [0, 1, 1, 0], "labels": "ab"}, "group"),
        (GROUP_FILE, {"order": -1, "mult_table": [0]}, "order"),
        ({"file": "bad.json"}, {"labels": [1, 2, 3, 4, 5, 6]}, "labels"),
        ({"file": "bad.json"}, {"labels": 0}, "labels"),
        ({"file": "bad.json"}, {"labels": ""}, "labels"),
        ({"file": "bad.json"}, {"name": {"a": 1}}, "name"),
        ({"file": "bad.json"}, {"name": [1]}, "name"),
        (GROUP_FILE, {"order": 2, "mult_table": [0, 1, 1, 0], "labels": [1, 2]}, "labels"),
        (GROUP_FILE, {"order": 2, "mult_table": [0, 1, 1, 0], "labels": 0}, "labels"),
        (GROUP_FILE, {"order": 2, "mult_table": [0, 1, 1, 0], "labels": ""}, "labels"),
        (GROUP_FILE, {"order": 2, "mult_table": [0, 1, 1, 0], "name": {"a": 1}}, "name"),
        (GROUP_FILE, {"order": 2, "mult_table": [0, 1, 1, 0], "name": [1]}, "name"),
        ({"file": "bad.json"}, {"dim": 1000000}, "dim"),
        ({"file": "bad.json", "builtin": "group_algebra", "group": "z2"}, {}, "bialgebra"),
        ({"file": "bad.json", "builtin": "group_algebra"}, {}, "bialgebra"),
        ({"file": "bad.json", "group": "z2"}, {}, "bialgebra"),
        ({"builtin": "group_algebra"}, {}, "bialgebra"),
        ({"group": "z2"}, {}, "bialgebra"),
        ({}, {}, "bialgebra"),
    ],
    ids=[
        "group-not-a-group",
        "bialgebra-dim",
        "bialgebra-labels",
        "group-float-entry",
        "group-bool-order",
        "group-string-order",
        "group-string-entry",
        "group-string-labels",
        "group-negative-order",
        "bialgebra-integer-labels",
        "bialgebra-zero-labels",
        "bialgebra-empty-labels",
        "bialgebra-object-name",
        "bialgebra-list-name",
        "group-integer-labels",
        "group-zero-labels",
        "group-empty-labels",
        "group-object-name",
        "group-list-name",
        "bialgebra-huge-dim",
        "bialgebra-file-beside-group",
        "bialgebra-file-beside-builtin-alone",
        "bialgebra-file-beside-group-alone",
        "bialgebra-builtin-without-group",
        "bialgebra-group-without-builtin",
        "bialgebra-names-nothing",
    ],
)
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_malformed_file_exits_two_naming_it(tmp_path, capsys, command, bialgebra, content, field):
    if "file" in bialgebra:
        b = build_group_algebra(symmetric_group(3), extra_characters=[symmetric_sign_character(3)])
        content = {**bialgebra_to_payload(b), **content}
    write_json(tmp_path / "bad.json", content)
    config = write_config(tmp_path, base_payload(bialgebra=bialgebra))
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert repr(field) in err


#: the Klein four-group, named like the builtin cyclic group of the same order
KLEIN_AS_Z4 = {"order": 4, "mult_table": [i ^ j for i in range(4) for j in range(4)], "name": "Z4"}


@pytest.mark.parametrize(
    "bialgebra, extra, expected",
    [
        ({"file": "bad.json"}, {"note": "hi"}, "invalid 'file' in 'bialgebra': unknown key 'note'"),
        (GROUP_FILE, {"extra": 1}, "invalid 'group' in 'bialgebra': unknown key 'extra'"),
    ],
    ids=["bialgebra-file", "group-file"],
)
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_file_with_an_unknown_key_exits_two_naming_it(tmp_path, capsys, command, bialgebra, extra, expected):
    if "file" in bialgebra:
        b = build_group_algebra(symmetric_group(3), extra_characters=[symmetric_sign_character(3)])
        content = bialgebra_to_payload(b)
    else:
        content = {**KLEIN_AS_Z4, "format": "group-v1"}  # 'format' is an allowed key of a group file
    write_json(tmp_path / "bad.json", {**content, **extra})
    config = write_config(tmp_path, base_payload(bialgebra=bialgebra))
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_group_file_of_another_format_exits_two(tmp_path, capsys, command):
    # a group file's optional 'format' must be "group-v1"; Z2's table is otherwise valid
    write_json(tmp_path / "g.json", {"format": "bialgebra-v1", "order": 2, "mult_table": [0, 1, 1, 0]})
    section = {"builtin": "group_algebra", "group": {"file": "g.json"}}
    payload = base_payload(bialgebra=section, triple={"pi": "character:0", "xi": [[1.5, 0.0]]})
    config = write_config(tmp_path, payload)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    expected = "invalid 'group' in 'bialgebra': unsupported group format 'bialgebra-v1'"
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_group_file_failing_a_group_axiom_exits_two(tmp_path, capsys, command):
    # a well-formed group-v1 file whose table is no Latin square is refused like an undecodable one
    write_json(tmp_path / "g.json", {"order": 2, "mult_table": [0, 1, 1, 1]})
    section = {"builtin": "group_algebra", "group": {"file": "g.json"}}
    payload = base_payload(bialgebra=section, triple={"pi": "character:0", "xi": [[1.5, 0.0]]})
    config = write_config(tmp_path, payload)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: invalid 'group' in 'bialgebra': row 1 of the table is not a permutation\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_group_file_algebra_carries_the_counit_only(tmp_path, capsys, command):
    # closed-form characters come with a builtin group name, never with a group file's 'name'
    write_json(tmp_path / "klein.json", KLEIN_AS_Z4)
    section = {"builtin": "group_algebra", "group": {"file": "klein.json"}}
    assert resolve_bialgebra(section, tmp_path).characters.shape == (1, 4)
    assert resolve_bialgebra({"builtin": "group_algebra", "group": "z4"}, None).characters.shape == (4, 4)
    payload = base_payload(bialgebra=section, character=1, triple={"pi": "character:0", "xi": [[1.5, 0.0]]})
    config = write_config(tmp_path, payload)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid 'character'")


def test_readme_config_format_names_every_field():
    # the README's "Config format" section names, in backticks, every key FIELDS reads, and no retired key
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
    keys = {key for fields in FIELDS.values() for key in fields}
    assert sorted(key for key in keys if f"`{key}`" not in section) == []
    for retired in ("dimension_cap", "noise_dim", "identity_h", "tolerances"):
        assert retired not in section


def test_readme_library_use_prints_first_order_errors(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})
    lines = capsys.readouterr().out.splitlines()
    assert [float(line.split()[0]) for line in lines] == [0.25, 0.125, 0.0625]
    errors = [float(line.split()[1]) for line in lines]
    assert all(1.9 <= coarse / fine <= 2.1 for coarse, fine in zip(errors, errors[1:]))


def test_cli_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    def broken(config):
        raise RuntimeError("injected")

    monkeypatch.setattr("qwalklab.cli.run_sweep", broken)
    path = write_config(tmp_path, base_payload())
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "injected" in err


def test_cli_missing_config_exits_two(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cli_unknown_demo_exits_two(capsys, tmp_path):
    out = tmp_path / "fresh"
    assert main(["demo", "nope", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown demo 'nope'")
    for name in DEMO_NAMES:
        assert name in err
    assert not out.exists()


def test_demo_payload_shares_nothing_between_calls(tmp_path):
    edited = _demo_payload("group-z2")
    edited["sweep"]["count"] = 2
    edited["step_function_pairs"][0]["f"].clear()
    edited["sample_times"].append(0.5)
    edited["bialgebra"]["group"] = "z3"
    fresh = _demo_payload("group-z2")
    assert fresh["sweep"]["count"] == 6
    assert fresh["step_function_pairs"][0]["f"] != []
    assert fresh["sample_times"] == [1.0]
    assert fresh["bialgebra"]["group"] == "z2"
    config = ExperimentConfig.from_file(write_demo("group-s3", tmp_path))
    assert len(config.h_values) == 6


def test_cli_failing_bound_exits_one_but_writes_outputs(tmp_path, capsys):
    config = base_payload(final_error_bound=1e-12)
    path = write_config(tmp_path, config)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "FAIL against bound" in capsys.readouterr().out
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "errors.csv").exists()
    report = read_json(tmp_path / "report.json")
    assert not report["passed"]
    assert report["monotone_tail"]


def test_cli_demo_end_to_end(tmp_path, capsys):
    # main leaves the collector as it found it: only the program entry freezes the heap
    collector = (gc.isenabled(), gc.get_freeze_count())
    assert main(["demo", "group-z2", "--out", str(tmp_path)]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == collector
    for fname in ("config.json", "report.json", "errors.csv", "errors.dat"):
        assert (tmp_path / fname).exists()
    report = read_json(tmp_path / "report.json")
    assert report["mode"] == "demo"
    assert report["passed"]
    assert report["verify"]["passed"]
    assert report["sweep"]["passed"]
    assert report["sweep"]["monotone_tail"]
    capsys.readouterr()


def test_write_demo_custom_file_emits_bialgebra(tmp_path):
    config_path = write_demo("custom-file", tmp_path)
    assert config_path == tmp_path / "config.json"
    assert (tmp_path / "bialgebra.json").exists()
    cfg = ExperimentConfig.from_file(config_path)
    assert cfg.bialgebra.dim == 6
    assert cfg.label == "custom-file"


def test_demo_names_all_resolve(tmp_path):
    for name in DEMO_NAMES:
        out = tmp_path / name
        write_demo(name, out)
        cfg = ExperimentConfig.from_file(out / "config.json")
        assert cfg.label == name


def test_log_level_env_does_not_break(tmp_path, monkeypatch, capsys):
    # only the program entry configures logging.  The root logger runs main without pytest's
    # capture handlers, as in a fresh process, so that a basicConfig call in main would add one.
    monkeypatch.setenv("QWALKLAB_LOG_LEVEL", "DEBUG")
    path = write_config(tmp_path, base_payload())
    root = logging.getLogger()
    saved, root.handlers[:] = root.handlers[:], []
    try:
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert root.handlers == []
    finally:
        root.handlers[:] = saved
    capsys.readouterr()


def test_python_dash_m_entry_point(tmp_path):
    path = write_config(tmp_path, base_payload())
    proc = subprocess.run(
        [sys.executable, "-m", "qwalklab", "verify", "--config", str(path), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=with_src(dict(os.environ, QWALKLAB_LOG_LEVEL="INFO")),
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
    assert "INFO qwalklab: verify:" in proc.stderr


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_cli_import_leaves_scipy_out(tmp_path, capsys):
    # a whole demo run, import included, loads neither scipy nor numpy.random and writes what an
    # in-process main writes.  The program entry (run(), or `python -m qwalklab` through runpy)
    # freezes the import-time heap, configures the root logger and runs one BLAS thread unless
    # OPENBLAS_NUM_THREADS says otherwise; a library caller's bare `import qwalklab` loads no
    # numpy, and its process keeps numpy's default threads, the collector and the root logger as
    # they were.  The environment is left as it was.
    main_out = tmp_path / "main"
    assert main(["demo", "group-s3", "--out", str(main_out)]) == 0
    capsys.readouterr()
    count = "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None"
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    bare = subprocess.run([sys.executable, "-c", f"import os, numpy\nprint({count})"], capture_output=True, text=True, env=env)
    assert bare.returncode == 0, bare.stderr
    entries = {
        "run": "from qwalklab.__main__ import run\nstatus = run()\n",
        "dash-m": (
            "import runpy\n"
            "try:\n"
            "    runpy.run_module('qwalklab', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    status = exc.code\n"
        ),
        "library": "import qwalklab\nassert 'numpy' not in sys.modules\nstatus = qwalklab.cli.main(sys.argv[1:])\n",
    }
    cases = [("run", None, "1"), ("dash-m", None, "1"), ("run", "2", "2"), ("library", None, bare.stdout.strip())]
    for entry, blas_threads, expected in cases:
        program = entry != "library"
        entry_out = tmp_path / f"entry-{entry}-{blas_threads}"
        code = (
            "import gc, logging, os, sys\n"
            f"sys.argv = ['qwalklab', 'demo', 'group-s3', '--out', {str(entry_out)!r}]\n"
            + entries[entry]
            + "names = [m for m in sys.modules if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'random']]\n"
            "print(status, gc.get_freeze_count() > 0, len(logging.getLogger().handlers), sorted(names))\n"
            f"print({count}, os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        case_env = env if blas_threads is None else dict(env, OPENBLAS_NUM_THREADS=blas_threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=with_src(case_env))
        assert proc.returncode == 0, proc.stderr
        *_, settings, threading = proc.stdout.splitlines()
        assert settings == f"0 {program} {int(program)} []", entry
        threads, variable = threading.split()
        assert variable == str(blas_threads)
        if threads != "None":  # no /proc/self/task: the thread count cannot be read
            assert threads == expected, entry
        for name in ("report.json", "errors.csv", "errors.dat"):
            assert (entry_out / name).read_bytes() == (main_out / name).read_bytes(), name
