"""The configs the benchmark writes load under the current config reader.

perfbench/workloads.py writes its configs with keys of its own, and the
benchmark is never edited alongside the reader; a key retired from FIELDS
that a workload still writes would otherwise show only as failed benchmark
runs.
"""
import importlib.util
from pathlib import Path

import pytest

from qwalklab import ExperimentConfig, write_demo

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(workloads.IN_PROCESS_OPS))
def test_in_process_workload_config_loads(tmp_path, workload, seed):
    config = ExperimentConfig.from_file(workloads.write_config(workload, seed, tmp_path))
    assert config.label == ("group-s3" if workload == "sweep-deep" else workload)


@pytest.mark.parametrize("name", workloads.DEMOS)
def test_demo_cli_config_loads(tmp_path, name):
    assert ExperimentConfig.from_file(write_demo(name, tmp_path)).label == name
