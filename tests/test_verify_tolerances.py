"""The pass bars of verify: the fixed TOLERANCES table is the only bar a check reads, and no config sets one."""

import math

import pytest

import qwalklab.experiment as experiment
from qwalklab import ExperimentConfig, run_verify, write_demo
from qwalklab.cli import main
from qwalklab.experiment import DEMO_NAMES, TOLERANCES, _demo_payload
from qwalklab.serialize import FormatError, read_json, write_json

#: the TOLERANCES key each verify check is measured against
BAR_OF = {
    "bialgebra_axioms": "axioms",
    "structure_relation": "structure_relation",
    "extraction_roundtrip": "roundtrip",
    "unitarity": "unitarity",
    "error_identity": "error_identity",
    "vector_state": "vector_state",
    "walk_homomorphism": "homomorphism",
    "walk_choi_positive": "choi",
    "walk_preunital": "preunital",
    "cp_decomposition": "choi",
    "compatibility": "compatibility",
    "semigroup_law": "semigroup",
}

#: the checks every config runs; a triple with D (a CP walk) adds the last two of CP_CHECKS, one without the others
COMMON_CHECKS = {
    "bialgebra_axioms",
    "structure_relation",
    "extraction_roundtrip",
    "unitarity",
    "error_identity",
    "cp_decomposition",
    "compatibility",
    "semigroup_law",
}
HOMOMORPHIC_CHECKS = {"vector_state", "walk_homomorphism"}
CP_CHECKS = {"walk_choi_positive", "walk_preunital"}


def _demo_config(name, tmp_path) -> ExperimentConfig:
    return ExperimentConfig.from_file(write_demo(name, tmp_path))


def test_every_bar_is_read_by_some_check():
    assert set(BAR_OF.values()) == set(TOLERANCES)
    assert set(BAR_OF) == COMMON_CHECKS | HOMOMORPHIC_CHECKS | CP_CHECKS


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_report_holds_each_check_at_its_table_bar(tmp_path, name):
    checks = run_verify(_demo_config(name, tmp_path)).report["checks"]
    walk_checks = CP_CHECKS if "D" in _demo_payload(name)["triple"] else HOMOMORPHIC_CHECKS
    assert set(checks) == COMMON_CHECKS | walk_checks
    for check, entry in checks.items():
        assert entry["tolerance"] == TOLERANCES[BAR_OF[check]], check
        assert entry["passed"] is (entry["residual"] <= entry["tolerance"]), check
        assert entry["passed"], check


@pytest.mark.parametrize("name", DEMO_NAMES)
@pytest.mark.parametrize("key", list(TOLERANCES))
def test_run_verify_reads_each_bar_from_the_table(tmp_path, monkeypatch, key, name):
    # a bar no residual can meet fails exactly the checks measured against it, and leaves every other entry as it was
    config = _demo_config(name, tmp_path)
    before = run_verify(config).report
    monkeypatch.setitem(experiment.TOLERANCES, key, -1.0)
    after = run_verify(config).report
    assert set(after["checks"]) == set(before["checks"])
    readers = {check for check in before["checks"] if BAR_OF[check] == key}
    for check, entry in after["checks"].items():
        if check in readers:
            assert entry["tolerance"] == -1.0
            assert not entry["passed"]
        else:
            assert entry == before["checks"][check]
    assert after["passed"] is not readers


def _counit_shifted(tmp_path, shift: float, index: int = 0):
    """The custom-file demo with shift added to the real part of its file's counit at b_index."""
    config_path = write_demo("custom-file", tmp_path)
    bialgebra = read_json(tmp_path / "bialgebra.json")
    bialgebra["counit"][index][0] += shift
    write_json(tmp_path / "bialgebra.json", bialgebra)
    return config_path


def test_bialgebra_file_is_loaded_at_the_table_axioms_bar(tmp_path, monkeypatch):
    # a 1e-11 counit defect fails the table's 1e-12, and passes once the table itself, not a config, says 1e-10
    config_path = _counit_shifted(tmp_path, 1e-11)
    with pytest.raises(FormatError, match="counit_law violated at basis index 0"):
        ExperimentConfig.from_file(config_path)
    monkeypatch.setitem(experiment.TOLERANCES, "axioms", 1e-10)
    entry = run_verify(ExperimentConfig.from_file(config_path)).report["checks"]["bialgebra_axioms"]
    assert entry["passed"]
    assert entry["tolerance"] == 1e-10


@pytest.mark.parametrize(
    "tolerances",
    [None, {key: 10.0 for key in TOLERANCES}, {"axioms": 1.0}],
    ids=["no-tolerances", "every-bar-at-10", "axioms-at-1"],
)
def test_config_cannot_loosen_the_bars_of_a_broken_bialgebra(tmp_path, capsys, tolerances):
    # 0.3 on the counit at b_1 breaks the counit law; loosened bars once let this config pass, or crash with exit 3
    config_path = _counit_shifted(tmp_path, 0.3, index=1)
    if tolerances is not None:
        write_json(config_path, {**read_json(config_path), "tolerances": tolerances})
    out = tmp_path / "out"
    code = main(["verify", "--config", str(config_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    if tolerances is None:
        assert err == "error: invalid 'file' in 'bialgebra': counit_law violated at basis index 1 (residual 3.000e-01)\n"
    else:
        assert err == "error: unknown key 'tolerances' in the config\n"
    assert not (out / "report.json").exists()


#: (key, value) of each retired top-level key at a value its parser once accepted
RETIRED = [
    pytest.param("dimension_cap", 4096, id="dimension_cap"),
    pytest.param("noise_dim", 1, id="noise_dim"),
    pytest.param("identity_h", [0.5, 0.1, 0.01], id="identity_h"),
    pytest.param("tolerances", {}, id="tolerances-empty"),
    pytest.param("tolerances", dict(TOLERANCES), id="tolerances-whole-table"),
    *(pytest.param("tolerances", {key: bar}, id=f"tolerances.{key}") for key, bar in TOLERANCES.items()),
]


def _with_retired(key, value) -> dict:
    payload = _demo_payload("group-z2")
    payload[key] = value
    return payload


@pytest.mark.parametrize("key, value", RETIRED)
@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_retired_key_exits_two_even_at_its_old_default(tmp_path, capsys, command, key, value):
    # even a value equal to what the lab uses anyway is refused: no retired key is read
    config = tmp_path / "config.json"
    write_json(config, _with_retired(key, value))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unknown key {key!r} in the config\n"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("key, value", RETIRED)
def test_retired_key_is_refused_before_the_bialgebra_is_built(tmp_path, monkeypatch, key, value):
    def unreachable(*args):
        pytest.fail("the bialgebra was built before a retired key was refused")

    monkeypatch.setattr("qwalklab.experiment.resolve_bialgebra", unreachable)
    with pytest.raises(FormatError, match=f"^unknown key {key!r} in the config$"):
        ExperimentConfig.from_payload(_with_retired(key, value), tmp_path)


def test_cli_failed_extraction_on_a_cp_triple_is_a_failed_check(tmp_path, capsys):
    # the group-s3 demo (a triple with D) with its xi scaled to ||xi|| = 300: the round trip loses 1.7e-10 to rounding
    payload = _demo_payload("group-s3")
    xi = payload["triple"]["xi"]
    scale = 300.0 / math.sqrt(sum(re * re + im * im for re, im in xi))
    payload["triple"]["xi"] = [[scale * re, scale * im] for re, im in xi]
    payload["sweep"] = {"h0": 1 / 300**2, "count": 1}
    config = tmp_path / "config.json"
    write_json(config, payload)
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 1
    entry = read_json(tmp_path / "report.json")["checks"]["extraction_roundtrip"]
    assert not entry["passed"]
    assert entry["residual"] > entry["tolerance"] == TOLERANCES["roundtrip"]
    assert entry["kernel_dim"] == 1
    assert "FAIL extraction_roundtrip" in capsys.readouterr().out
