"""Record the reference reports of the seeded workloads into references.json.

    PYTHONPATH=src python3 perfbench/make_references.py

Run from the checkout root, and only after checking by hand that a change
of these numbers is intended: the benchmark fails every repetition whose
report differs from the reference beyond rtol 1e-9 (absolute floor 1e-12).
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import workloads
from qwalklab import experiment


def reference(workload: str, variant: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = workloads.write_config(workload, variant, Path(tmp))
        config = experiment.ExperimentConfig.from_file(path)
    result = getattr(experiment, workloads.IN_PROCESS_OPS[workload])(config)
    if not result.passed:
        raise SystemExit(f"{workload} variant {variant} does not pass; choose other workload parameters")
    return json.loads(json.dumps(result.report))


def main() -> None:
    tables = {
        workload: {str(v): reference(workload, v) for v in range(workloads.VARIANTS)}
        for workload in workloads.SEEDED_PAYLOADS
    }
    workloads.REFERENCES.write_text(json.dumps(tables, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {workloads.REFERENCES}")


if __name__ == "__main__":
    main()
