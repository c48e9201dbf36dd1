"""Self-test of the benchmark: do the per-layer numbers catch planted regressions?

Run from the root of the repository with either of::

    python3 -m pytest -q hostbench/selftest.py
    python3 hostbench/selftest.py

The file name keeps it out of the repository's default test collection: each
check runs traced simulations for several seconds.  The workloads are the
real ones at a reduced size (shorter traces, fewer probe rates), so the same
code paths run in less time.

1. A fixed busy-wait planted in a wrapper around ``evaluate_slo`` is charged
   to the ``metrics`` layer on ``sweep-headline``, and leaves every count of
   ``burst-40`` unchanged.
2. A planted extra call into one public method shows up exactly in that
   layer's call count.
3. The correctness oracle flags a run with a request left unaccounted and
   a non-finite output.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE.parent / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run  # noqa: E402
from repro.simulation.request import RequestPhase  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402
from workloads import SPEC, RunObserver, Workload  # noqa: E402

BUSY_WAIT_S = 0.02

SMALL_INPUTS = {
    "burst-40": {"duration_s": 4.0},
    "sweep-headline": {"rates": [6, 12, 18], "duration_s": 15.0},
}


def small(name: str) -> Workload:
    spec = json.loads(json.dumps(SPEC[name]))
    spec["inputs"].update(SMALL_INPUTS[name])
    return Workload(name, spec)


def traced_layers(workload: Workload, plant=None) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, with ``plant`` patched in first."""
    patches = Patches()
    if plant is not None:
        plant(patches)
    try:
        tracer = Tracer()
        with tracer:
            traced = run.iterate(workload, 0, 0.0, RunObserver(), tracer)
        return run.per_layer(traced, [], tracer)
    finally:
        patches.restore()


def busy_wait_in_evaluate_slo(patches: Patches) -> None:
    def make(original):
        def evaluate_slo(*args, **kwargs):
            end = time.perf_counter() + BUSY_WAIT_S
            while time.perf_counter() < end:
                pass
            return original(*args, **kwargs)

        return evaluate_slo

    patches.replace("repro.metrics.slo:evaluate_slo", make)


def extra_slo_report_per_run(patches: Patches) -> None:
    def make(original):
        def run_cluster(simulation, *args, **kwargs):
            result = original(simulation, *args, **kwargs)
            result.slo_report()
            return result

        return run_cluster

    patches.replace("repro.core.cluster:ClusterSimulation.run", make)


def counts(layers: dict[str, float]) -> dict[str, float]:
    units = {m["name"]: m["unit"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    return {name: value for name, value in layers.items() if units[name] == "count"}


def test_busy_wait_is_charged_to_metrics_on_sweep():
    sweep = small("sweep-headline")
    base = traced_layers(sweep)
    planted = traced_layers(sweep, busy_wait_in_evaluate_slo)
    calls = planted["metrics.evaluate_slo.calls"]
    assert calls == base["metrics.evaluate_slo.calls"] > 0
    expected = calls * BUSY_WAIT_S
    grew = planted["layer.metrics.self_s"] - base["layer.metrics.self_s"]
    assert 0.8 * expected <= grew <= 1.2 * expected + 0.2 * base["layer.metrics.self_s"], (grew, expected)
    for name, value in planted.items():
        if name.startswith("layer.") and name != "layer.metrics.self_s":
            assert value - base[name] < 0.2 * expected, (name, value, base[name])
    assert counts(planted) == counts(base)


def test_busy_wait_leaves_burst_unchanged():
    burst = small("burst-40")
    base = traced_layers(burst)
    planted = traced_layers(burst, busy_wait_in_evaluate_slo)
    assert planted["metrics.evaluate_slo.calls"] == base["metrics.evaluate_slo.calls"] == 0
    assert counts(planted) == counts(base)
    assert abs(planted["layer.metrics.self_s"] - base["layer.metrics.self_s"]) < 0.05


def test_planted_extra_call_shows_in_call_count():
    burst = small("burst-40")
    base = traced_layers(burst)
    planted = traced_layers(burst, extra_slo_report_per_run)
    simulations = planted["experiments.simulations"]
    assert simulations == base["experiments.simulations"] == 1
    assert planted["metrics.slo_report.calls"] == base["metrics.slo_report.calls"] + simulations
    assert planted["metrics.evaluate_slo.calls"] == base["metrics.evaluate_slo.calls"] + simulations
    for name in ("engine.events", "rotation.select.calls", "scheduler.submit.calls", "machine.step_calls.finish"):
        assert planted[name] == base[name], name


def test_oracle_flags_broken_outputs():
    def make(original):
        def run_cluster(simulation, *args, **kwargs):
            result = original(simulation, *args, **kwargs)
            result.requests[0].completion_time = float("nan")
            result.requests[1].phase = RequestPhase.QUEUED
            return result

        return run_cluster

    patches = Patches()
    patches.replace("repro.core.cluster:ClusterSimulation.run", make)
    try:
        observer = RunObserver()
        (iteration,) = run.iterate(small("burst-40"), 0, 0.0, observer)
    finally:
        patches.restore()
    (record,) = iteration["records"]
    assert record.failed
    assert any(problem.startswith("census") for problem in record.problems)
    assert any("non-finite" in problem for problem in record.problems)


def test_predictions_name_real_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    ends = {m["name"] for m in spec["end_to_end"]} | {"run_failure_rate"}
    for workload, entry in SPEC.items():
        for layer_metric, moves in entry["predictions"].items():
            prefix = layer_metric.rstrip("*")
            assert any(n == layer_metric or (prefix != layer_metric and n.startswith(prefix)) for n in names), (
                workload, layer_metric)
            target = moves.split()[0].rstrip(",")
            assert target in ends or target == "unchanged", (workload, moves)


if __name__ == "__main__":
    for test in (
        test_predictions_name_real_metrics,
        test_oracle_flags_broken_outputs,
        test_planted_extra_call_shows_in_call_count,
        test_busy_wait_leaves_burst_unchanged,
        test_busy_wait_is_charged_to_metrics_on_sweep,
    ):
        test()
        print(f"ok  {test.__name__}")
