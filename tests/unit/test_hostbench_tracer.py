"""The benchmark's span tracer: event-tag attribution and clean removal.

``hostbench/tracer.py`` charges host time to simulator layers by wrapping
public methods and the event callbacks dispatched through
``SimulationEngine.schedule_at``.  These checks pin its tag-to-layer table
and that leaving the tracer puts every wrapped function back.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import repro.fleet.fleet as fleet_module
import repro.metrics.slo as slo
from repro.simulation.engine import SimulationEngine

TRACER_PATH = Path(__file__).resolve().parents[2] / "hostbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("hostbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_event_tags_charged_to_layers():
    tracer_module = load_tracer()
    tags = {
        "p0:finish": "machine.finish",
        "kv-transfer:3": "kv.transfer",
        "retry:3": "reliability.retry",
        "fault:machine-fail:cluster-0/p0": "faults.callback",
        "autoscaler": "autoscaler.tick",
    }
    engine = SimulationEngine()
    fired = []
    tracer = tracer_module.Tracer()
    with tracer:
        for index, tag in enumerate([*tags, "fleet-arrival:7", "metrics-tick"]):
            engine.schedule_at(float(index), lambda tag=tag: fired.append(tag), tag=tag)
        engine.run()
    assert len(fired) == len(tags) + 2
    calls = dict(zip(tracer.names, tracer.calls))
    layer_of = dict(zip(tracer.names, tracer.layer_of))
    for name in tags.values():
        assert calls[name] == 1, name
    assert layer_of["machine.finish"] == "core.machine"
    assert layer_of["kv.transfer"] == "core.kv_transfer"
    assert layer_of["reliability.retry"] == "fleet.reliability"
    assert layer_of["faults.callback"] == "faults"
    assert layer_of["autoscaler.tick"] == "core.autoscaler"
    # Unlisted tags get no span of their own: their time is unattributed.
    event_names = {name for _, _, _, name in tracer_module.EVENT_KINDS}
    event_spans = sum(calls[name] for name in event_names)
    assert event_spans == len(tags)
    assert all(layer in tracer_module.LAYERS for layer in layer_of.values() if layer)


def test_exit_restores_wrapped_functions():
    tracer_module = load_tracer()
    schedule_at = SimulationEngine.__dict__["schedule_at"]
    run = SimulationEngine.__dict__["run"]
    evaluate_slo = slo.evaluate_slo
    by_tenant = fleet_module.evaluate_slo_by_tenant
    tracer = tracer_module.Tracer()
    with tracer:
        assert SimulationEngine.__dict__["schedule_at"] is not schedule_at
        assert slo.evaluate_slo is not evaluate_slo
        # A function imported by name is wrapped where it was imported too.
        assert fleet_module.evaluate_slo_by_tenant is not by_tenant
        assert tracer.on
    assert not tracer.on
    assert SimulationEngine.__dict__["schedule_at"] is schedule_at
    assert SimulationEngine.__dict__["run"] is run
    assert slo.evaluate_slo is evaluate_slo
    assert fleet_module.evaluate_slo_by_tenant is by_tenant
    # After exit the engine runs unwrapped: no span is recorded.
    spans = len(tracer.span_start)
    engine = SimulationEngine()
    engine.schedule_at(1.0, lambda: None, tag="p0:finish")
    engine.run()
    assert len(tracer.span_start) == spans
