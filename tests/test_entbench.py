"""The benchmark's traced path, in process: one traced ``certify`` round of
``entbench`` runs without a failed operation and measures every per-layer
metric that BENCHMARK.json declares.  ``entbench/run.py --trace 1`` ends
without a result line when one of them is missing, which happens when the
program stops calling a wrapped public function at the size a metric reads."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_traced_certify_round_measures_every_per_layer_metric(monkeypatch):
    pytest.importorskip("scipy")  # the benchmark's oracles use it
    monkeypatch.syspath_prepend(str(ROOT / "entbench"))
    import tracing
    import workloads

    mix = workloads.WORKLOADS["certify"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = workloads.run_round(mix, workloads.make_inputs(mix, 1, 0), tracer)
    finally:
        tracer.uninstall()
    assert res.attempted > 0 and res.failed == 0, res.problems
    metrics = tracing.layer_metrics(tracer.spans, len(tracer.spans))
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    # the one figure a run takes from its untraced rounds
    missing = [m for m in declared if m != "trace.overhead_frac" and m not in metrics]
    assert missing == []
