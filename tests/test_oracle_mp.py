"""The sweep's errors against the extended-precision oracle of tests/oracle_mp.py."""
import pytest

from qwalklab import ExperimentConfig, run_sweep, write_demo
from qwalklab.experiment import DEMO_NAMES, _demo_payload

from .oracle_mp import SweepOracle


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_every_error_column_matches_the_oracle_on_the_demo_ladder(tmp_path, name):
    config = ExperimentConfig.from_file(write_demo(name, tmp_path))
    oracle = SweepOracle(config)
    for row in run_sweep(config).report["rows"]:
        exact = oracle.errors(row["h"])
        assert exact.keys() == row["errors"].keys()
        worst = max(abs(error - float(exact[label])) / float(exact[label]) for label, error in row["errors"].items())
        assert worst <= 1e-10, (row["h"], worst)


@pytest.mark.parametrize("name, error_over_h", [("group-z2", 0.41300), ("group-s3", 0.57524)])
@pytest.mark.parametrize("k", [20, 29, 40])
def test_true_error_over_h_is_flat_at_small_h(tmp_path, name, error_over_h, k):
    # the first-order constant of the error; group-s3's D is an isometry only after the oracle orthonormalizes it
    h = 2.0**-k
    exact = max(SweepOracle(ExperimentConfig.from_file(write_demo(name, tmp_path))).errors(h).values()) / h
    assert abs(exact - error_over_h) <= 1e-5


@pytest.mark.xfail(strict=True, reason="the walk power's rounding floor of about eps/h (ROADMAP item 2) reads 46.41")
def test_package_error_over_h_matches_the_oracle_at_two_to_the_minus_29(tmp_path):
    payload = _demo_payload("group-z2")
    payload["sweep"] = {"h0": 2.0**-29, "count": 1}
    config = ExperimentConfig.from_payload(payload, tmp_path)
    (row,) = run_sweep(config).report["rows"]
    exact = max(SweepOracle(config).errors(row["h"]).values()) / row["h"]
    assert row["max_error"] / row["h"] == pytest.approx(float(exact), rel=0.01)
