import copy
import gc
import subprocess
import sys

import numpy as np
import pytest

from qwalklab import ConfigError, ExperimentConfig, run_sweep, run_verify, write_demo
from qwalklab.bialgebra import bialgebra_to_payload, build_group_algebra
from qwalklab.cli import main
from qwalklab.experiment import DEMO_NAMES, _demo_payload
from qwalklab.groups import symmetric_group, symmetric_sign_character
from qwalklab.serialize import read_json, write_json


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
        "identity_h": [0.4, 0.1],
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
    assert cfg.tolerances["axioms"] == 1e-12


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
        ({"noise_dim": 3}, "noise_dim"),
        ({"sample_times": [2.0]}, "sample times"),
        ({"probes": [0, 7]}, "probe indices"),
        ({"tolerances": {"nope": 1.0}}, "unknown tolerance key"),
        ({"compatibility_depth": 9, "dimension_cap": 64}, "cap"),
        ({"character": 9}, "character index"),
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
    ],
)
def test_config_rejections(tmp_path, over, match):
    with pytest.raises(ConfigError, match=match):
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
    result = run_sweep(cfg)
    lines = result.csv_text.strip().split("\n")
    assert lines[0] == "# schema: qwalklab-errors-v1"
    assert lines[1].split(",")[:4] == ["h", "n_steps", "generator_gap", "max_error"]
    assert "err_p0_t1_b0" in lines[1]
    assert len(lines) == 2 + 4
    dat = result.dat_text.strip().split("\n")
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
    assert code == 1
    report = read_json(tmp_path / "report.json")
    assert not report["passed"]
    entry = report["checks"]["bialgebra_axioms"]
    assert entry["axiom"] == "coassociativity"
    assert entry["residual"] > 1e-6
    assert "coassociativity" in capsys.readouterr().err


def test_cli_oversized_step_exits_two(tmp_path, capsys):
    config = base_payload(triple={"pi": "character:1", "xi": [[2.5, 0.0]]})
    path = write_config(tmp_path, config)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "h * ||xi||^2" in capsys.readouterr().err


MALFORMED_FIELDS = [
    ("pi", ("triple", "pi"), "character:x"),
    ("sweep", ("sweep",), "abc"),
    ("probes", ("probes",), ["x"]),
    ("time_horizon", ("time_horizon",), "x"),
    ("sample_times", ("sample_times",), "x"),
    ("compatibility_depth", ("compatibility_depth",), "x"),
    ("dimension_cap", ("dimension_cap",), "x"),
    ("noise_dim", ("noise_dim",), "x"),
    ("final_error_bound", ("final_error_bound",), "x"),
    ("tolerances", ("tolerances",), [1]),
    ("xi", ("triple", "xi"), [float("nan")]),
    ("identity_h", ("identity_h",), [-0.1]),
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
    ("noise_dim", ("noise_dim",), 1.5),
    ("dimension_cap", ("dimension_cap",), 64.5),
    ("identity_h", ("identity_h",), [0.1] * 100_000),
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
    ("identity_h", ("identity_h",), ["0.5"]),
    ("tolerances", ("tolerances",), {"axioms": True}),
    ("xi", ("triple", "xi"), [[True, False]]),
]


@pytest.mark.parametrize(
    "field, path, value", MALFORMED_FIELDS, ids=[f"{case[0]}={case[2]!r}"[:40] for case in MALFORMED_FIELDS]
)
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_malformed_field_exits_two_naming_it(tmp_path, capsys, command, field, path, value):
    payload = copy.deepcopy(_demo_payload("group-z2"))
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


@pytest.mark.parametrize(
    "bialgebra, content, field",
    [
        ({"builtin": "group_algebra", "group": {"file": "bad.json"}}, {"order": 2, "mult_table": [0, 0, 0, 0]}, "group"),
        ({"file": "bad.json"}, {"dim": "x"}, "dim"),
        ({"file": "bad.json"}, {"labels": 5}, "labels"),
    ],
    ids=["group-not-a-group", "bialgebra-dim", "bialgebra-labels"],
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
    assert main(["demo", "nope", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    for name in DEMO_NAMES:
        assert name in err


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
    monkeypatch.setenv("QWALKLAB_LOG_LEVEL", "DEBUG")
    path = write_config(tmp_path, base_payload())
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_python_dash_m_entry_point(tmp_path):
    path = write_config(tmp_path, base_payload())
    proc = subprocess.run(
        [sys.executable, "-m", "qwalklab", "verify", "--config", str(path), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_cli_import_leaves_scipy_out(tmp_path, capsys):
    # a whole demo run through the program entry, import included, loads neither scipy nor
    # numpy.random, leaves the import-time heap frozen, and writes what an in-process main writes
    entry_out, main_out = tmp_path / "entry", tmp_path / "main"
    code = (
        "import gc, sys\n"
        f"sys.argv = ['qwalklab', 'demo', 'group-s3', '--out', {str(entry_out)!r}]\n"
        "from qwalklab.__main__ import run\n"
        "status = run()\n"
        "names = [m for m in sys.modules if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'random']]\n"
        "print(status, gc.get_freeze_count() > 0, sorted(names))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True []"
    assert main(["demo", "group-s3", "--out", str(main_out)]) == 0
    capsys.readouterr()
    for name in ("report.json", "errors.csv", "errors.dat"):
        assert (entry_out / name).read_bytes() == (main_out / name).read_bytes(), name
