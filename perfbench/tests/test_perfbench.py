"""Tests of the benchmark itself: span arithmetic, wrappers, seeded configs.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import spans
import workloads
from spans import Span


def span(sid, name, parent, thread, start, end, cpu=None):
    cpu = end - start if cpu is None else cpu
    return Span(sid, name, parent, thread, start, end, 0.0, cpu)


def test_self_time_nested_on_one_thread():
    tree = [
        span(0, "a", None, 1, 0.0, 10.0),
        span(1, "b", 0, 1, 1.0, 4.0),
        span(2, "c", 0, 1, 5.0, 6.0),
        span(3, "d", 1, 1, 2.0, 3.0),
    ]
    assert spans.self_times(tree) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
    totals = spans.layer_totals(tree, {})
    assert totals["a.self"] == pytest.approx(6.0)
    assert totals["b.wall"] == pytest.approx(3.0)


def test_self_time_ignores_children_on_other_threads():
    tree = [
        span(0, spans.ADOPTING_SPAN, None, 1, 0.0, 10.0, cpu=2.0),
        span(1, "main-child", 0, 1, 0.0, 1.0),
        span(2, "worker", 0, 2, 1.0, 9.0),
        span(3, "worker", 0, 3, 2.0, 8.0),
        span(4, "nested", 2, 2, 3.0, 5.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(9.0)
    assert selfs[2] == pytest.approx(6.0)
    totals = spans.layer_totals(tree, {})
    assert totals["experiment.sweep_threads"] == 2
    assert totals[f"{spans.ADOPTING_SPAN}.wait"] == pytest.approx(8.0)


def test_worker_spans_are_adopted_by_the_open_sweep():
    rec = spans.Recorder()
    main = threading.get_ident()

    def work(_):
        with rec.span("worker"):
            with rec.span("inner"):
                rec.count("steps", 2)
        return threading.get_ident()

    with rec.span(spans.ADOPTING_SPAN):
        with ThreadPoolExecutor(max_workers=2) as pool:
            threads = set(pool.map(work, range(4)))
    with rec.span("after"):
        pass
    recorded, counts = rec.take()
    by_name = {}
    for s in recorded:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name[spans.ADOPTING_SPAN]
    assert all(s.parent == root.id and s.thread != main for s in by_name["worker"])
    assert {s.parent for s in by_name["inner"]} == {s.id for s in by_name["worker"]}
    assert by_name["after"][0].parent is None
    assert counts == {("steps", "inner"): 8}
    assert spans.layer_totals(recorded, counts)["experiment.sweep_threads"] == len(threads)
    assert rec.take() == ([], {})


def _attributes():
    out = {}
    for module, path, _ in spans.SPANNED + spans.COUNTED:
        owner, attr = spans._resolve(module, path)
        out[(module, path)] = vars(owner)[attr]
    return out


def test_wrappers_are_restored_after_a_traced_sweep(tmp_path):
    from qwalklab import experiment

    before = _attributes()
    config = experiment.ExperimentConfig.from_file(experiment.write_demo("group-z2", tmp_path))
    rec = spans.Recorder()
    installed = spans.install(rec)
    try:
        assert all(_attributes()[key] is not original for key, original in before.items())
        report = experiment.run_sweep(config).report
    finally:
        spans.restore(installed)
    assert spans.restored(installed)
    assert all(_attributes()[key] is original for key, original in before.items())
    totals = spans.layer_totals(*rec.take())
    calls = len(config.pairs) * len(config.probes)
    assert totals["fock.chain_steps"] == workloads.chain_steps(config.h_values, config.sample_times, calls)
    assert totals["fock.walk_matrix_element.calls"] == calls * len(config.h_values)
    assert totals["cbnorm.amplified_norm.calls"] == len(config.h_values)
    assert totals["cbnorm.ascent_iters"] > 0
    assert report == experiment.run_sweep(config).report


@pytest.mark.parametrize("workload", sorted(workloads.SEEDED_PAYLOADS))
def test_seeded_configs_repeat_and_differ(tmp_path, workload):
    def config_bytes(seed, name):
        return workloads.write_config(workload, seed, tmp_path / name).read_bytes()

    assert config_bytes(5, "a") == config_bytes(5, "b")
    assert config_bytes(5, "a") != config_bytes(6, "c")
    assert len({config_bytes(seed, "d") for seed in range(workloads.VARIANTS)}) == workloads.VARIANTS


def test_sweep_wide_xi_moves_within_the_commutant():
    """Right translations commute with the left regular representation of S3."""
    from qwalklab.experiment import resolve_bialgebra

    rep = resolve_bialgebra({"builtin": "group_algebra", "group": "s3"}, None).rep
    basis = np.eye(6)
    for k in range(6):
        right = np.array([workloads._s3_right_translate(list(col), k) for col in basis.T]).T
        assert np.allclose(np.einsum("ab,ibc->iac", right, rep), np.einsum("iab,bc->iac", rep, right))


def test_sweep_wide_references_share_one_generator_gap():
    refs = json.loads(workloads.REFERENCES.read_text())["sweep-wide"]
    gaps = [[row["generator_gap"] for row in ref["rows"]] for ref in refs.values()]
    assert np.allclose(gaps, gaps[0], rtol=1e-9)
    errors = {ref["final_error"] for ref in refs.values()}
    assert len(errors) == len(refs)


def test_compare_uses_the_absolute_floor():
    want = {"a": [1.0, 1e-15], "ok": True}
    assert workloads.compare({"a": [1.0 + 1e-12, 5e-13], "ok": True}, want, 1e-9, 1e-12) == []
    assert workloads.compare({"a": [1.1, 1e-15], "ok": True}, want, 1e-9, 1e-12) == ["/a/0: 1.1 != 1.0"]
    assert workloads.compare({"a": [1.0, 1e-15], "ok": False}, want, 1e-9, 1e-12) != []
