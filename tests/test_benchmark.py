"""Smoke test of the benchmark under perfbench/: every workload runs one
traced round and passes its own check, so a public name or argument that
the workloads or the tracer bind cannot go missing unnoticed."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # registered first: its dataclasses look it up
    return module


workloads = load("workloads")
tracing = load("tracing")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_round_passes_its_check(tmp_path, name):
    wl = workloads.make(name, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rnd = wl.run(7)
    finally:
        tracer.uninstall()
    assert wl.check(7, rnd).failed == 0
    metrics = tracing.layer_metrics(tracer.spans, 1.0, 1.0)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
