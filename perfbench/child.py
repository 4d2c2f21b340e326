"""Work that run.py runs in a fresh interpreter; prints one JSON object.

    child.py setup CONFIG...           time import qwalklab + ExperimentConfig.from_file
    child.py traced-demo NAME OUT      qwalklab.cli.main(["demo", NAME, ...]) under the recorder

run.py sets PYTHONPATH to the checkout's src directory.
"""
from __future__ import annotations

import json
import sys
import time


def setup(paths: list[str]) -> dict:
    t0 = time.perf_counter()
    from qwalklab.experiment import ExperimentConfig

    for path in paths:
        ExperimentConfig.from_file(path)
    return {"setup_s": time.perf_counter() - t0, "module": sys.modules["qwalklab"].__file__}


def traced_demo(name: str, out_dir: str) -> dict:
    import spans

    rec = spans.Recorder()
    spans.traced_import(rec)
    import qwalklab.cli

    installed = spans.install(rec)
    try:
        code = qwalklab.cli.main(["demo", name, "--out", out_dir])
    finally:
        spans.restore(installed)
    recorded, counts = rec.take()
    return {
        "exit": code,
        "restored": spans.restored(installed),
        "totals": spans.layer_totals(recorded, counts),
        "spans": [s._asdict() for s in recorded],
    }


def main(argv: list[str]) -> int:
    command, rest = argv[0], argv[1:]
    if command == "setup":
        out = setup(rest)
    elif command == "traced-demo":
        out = traced_demo(*rest)
    else:
        raise SystemExit(f"unknown child command {command!r}")
    sys.stdout.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
