"""The benchmark's own checks (kept out of the package's test suite):

    python3 -m pytest -q benchmark/selftest.py

* traced and untraced operations produce byte-identical outputs;
* the per-layer count metrics repeat exactly across two traced passes;
* the same seed regenerates the same variants;
* a layer missing from the package stops the traced run.

Operations here use short horizons so the checks take seconds.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def short_ops(out: Path) -> list:
    pools = workloads.variant_pools()
    return [
        workloads.cli_sim_op("run", "acc", out / "run-acc", t_end=1.0),
        workloads.cli_sim_op("compare", "bicycle", out / "compare-bicycle", t_end=1.0),
        workloads.check_op("example1", out / "check-example1"),
        workloads.variant_op(pools["acc"][5], fast=True, t_end=3.0),
        workloads.variant_op(pools["bicycle"][0], fast=True, t_end=3.0),
        workloads.variant_op(pools["acc"][0], fast=False, t_end=1.0),
        workloads.variant_op(pools["bicycle"][1], fast=False, t_end=1.0),
    ]


def observe_all(ops, tracer=None) -> list:
    records = []
    for i, op in enumerate(ops):
        op.prepare()
        result = op.run() if tracer is None else tracer.run_op(i, op.run)
        records.append(op.observe(result))
    return records


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path):
    ops = short_ops(tmp_path)
    plain = observe_all(ops)
    with tracing.Tracer() as tracer:
        traced = observe_all(ops, tracer)
    assert traced == plain
    assert tracer.runs and tracer.checks and tracer.csv


def test_count_metrics_repeat_exactly(tmp_path):
    ops = short_ops(tmp_path)
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            observe_all(ops, tracer)
        metrics = tracing.layer_metrics(tracer, passes=1)
        counts.append({name: metrics[name] for name in run.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values())


def test_same_seed_regenerates_the_same_variants(tmp_path):
    def keys(seed):
        w = workloads.Workload("variant-sweep", seed, tmp_path)
        return [op.variant for op in w.deck()]

    assert keys(11) == keys(11)
    assert keys(11) != keys(12)
    assert sorted(keys(11), key=str) == sorted(keys(12), key=str)  # same work, new order
    refs = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    pools = workloads.variant_pools()
    assert {f: [list(v.params) for v in p] for f, p in pools.items()} == refs["pools"]
    for name in ("variant-sweep", "custom-scenario"):
        assert set(refs[name]) == {v.key for p in pools.values() for v in p}


def test_a_missing_layer_stops_the_traced_run(monkeypatch):
    monkeypatch.delattr(tracing.simulate, "rk4_step")
    summarize = tracing.simulate.summarize
    try:
        with tracing.Tracer():
            raise AssertionError("tracing started without simulate.rk4_step")
    except AttributeError:
        pass
    assert tracing.simulate.summarize is summarize  # patches made so far are undone
