"""Span tracer for the traced run: times calls into each layer from outside.

Wrappers are installed on the public functions and methods listed in
:data:`SPANS` (and on the event callbacks the engine dispatches, classified
by their ``schedule_at`` tag), and removed again afterwards; no code under
``src/`` changes.  Every wrapped call is a span with a name, start, end,
parent and run id.  Spans are kept in memory and written out by
:meth:`Tracer.write`.  A span's self time is its duration minus the part its
child spans cover; a layer's self time is the sum over its spans.

Spans whose layer is ``None`` (whole simulation runs, the headline sweep)
give structure only: their self time is what no listed layer covers, and is
reported as ``unattributed_s``.

Shard workers are forked while the wrappers are in place; the tracer turns
itself off in a forked child, so worker-side time shows up only as the
coordinator's ``execute_shards`` span.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: ``(layer, span name, "module:qualname")`` -- every call becomes a span.
SPANS: tuple[tuple[str | None, str, str], ...] = (
    ("simulation.engine", "engine.run", "repro.simulation.engine:SimulationEngine.run"),
    ("simulation.engine", "engine.step", "repro.simulation.engine:SimulationEngine.step"),
    ("batching", "batching.plan_iteration", "repro.batching.policies:MixedContinuousBatching.plan_iteration"),
    ("batching", "batching.plan_iteration", "repro.batching.policies:ContinuousBatching.plan_iteration"),
    ("batching", "batching.plan_iteration", "repro.batching.policies:RequestLevelBatching.plan_iteration"),
    ("batching", "rotation.select", "repro.batching.rotation:RotationForest.select"),
    ("batching", "rotation.commit_aging", "repro.batching.rotation:RotationForest.commit_aging"),
    ("batching", "rotation.insert", "repro.batching.rotation:RotationForest.insert"),
    ("models.performance", "perf_model.prompt_latency", "repro.models.performance:AnalyticalPerformanceModel.prompt_latency"),
    ("models.performance", "perf_model.prompt_latency", "repro.models.performance:ProfiledPerformanceModel.prompt_latency"),
    ("models.performance", "perf_model.token_latency_series", "repro.models.performance:PerformanceModel.token_latency_series"),
    ("models.performance", "perf_model.token_latency_series", "repro.models.performance:AnalyticalPerformanceModel.token_latency_series"),
    ("models.performance", "perf_model.token_latency_series", "repro.models.performance:ProfiledPerformanceModel.token_latency_series"),
    ("core.cluster_scheduler", "scheduler.submit", "repro.core.cluster_scheduler:ClusterScheduler.submit"),
    ("core.cluster_scheduler", "scheduler.fail_machine", "repro.core.cluster_scheduler:ClusterScheduler.fail_machine"),
    ("core.cluster_scheduler", "scheduler.cancel_request", "repro.core.cluster_scheduler:ClusterScheduler.cancel_request"),
    ("core.cluster_scheduler", "scheduler.evacuate", "repro.core.cluster_scheduler:ClusterScheduler.evacuate"),
    ("metrics", "metrics.evaluate_slo", "repro.metrics.slo:evaluate_slo"),
    ("metrics", "metrics.evaluate_slo", "repro.metrics.slo:evaluate_slo_by_tenant"),
    ("metrics", "metrics.slo_report", "repro.core.cluster:SimulationResult.slo_report"),
    ("metrics", "metrics.finish", "repro.core.cluster:ClusterSimulation.finish"),
    ("workload", "workload.generate_trace", "repro.workload.generator:generate_trace"),
    ("workload", "workload.build_trace", "repro.workload.scenarios:Scenario.build_trace"),
    ("fleet.router", "router.route", "repro.fleet.router:FleetRouter.route"),
    ("simulation.sharding", "sharding.plan", "repro.simulation.sharding:plan_shards"),
    ("simulation.sharding", "sharding.execute", "repro.simulation.sharding:execute_shards"),
    (None, "run.cluster", "repro.core.cluster:ClusterSimulation.run"),
    (None, "run.fleet", "repro.fleet.fleet:FleetSimulation.run"),
    (None, "run.headline", "repro.experiments.headline:headline_claims"),
)

#: Count-only wrappers, for calls too many for a span each.
COUNTERS: tuple[tuple[str, str], ...] = (
    ("perf_model.token_latency", "repro.models.performance:AnalyticalPerformanceModel.token_latency"),
    ("perf_model.token_latency", "repro.models.performance:ProfiledPerformanceModel.token_latency"),
)

#: Event callbacks scheduled through ``SimulationEngine.schedule_at``,
#: classified by tag: ``(match, tag text, layer, span name)``.
EVENT_KINDS: tuple[tuple[str, str, str, str], ...] = (
    ("suffix", ":start", "core.machine", "machine.start"),
    ("suffix", ":finish", "core.machine", "machine.finish"),
    ("suffix", ":macro", "core.machine", "machine.macro"),
    ("suffix", ":rotate", "core.machine", "machine.rotate"),
    ("prefix", "kv-transfer:", "core.kv_transfer", "kv.transfer"),
    ("prefix", "ttft-deadline:", "fleet.reliability", "reliability.deadline"),
    ("prefix", "e2e-deadline:", "fleet.reliability", "reliability.deadline"),
    ("prefix", "hedge:", "fleet.reliability", "reliability.hedge"),
    ("prefix", "retry:", "fleet.reliability", "reliability.retry"),
    ("prefix", "fault:", "faults", "faults.callback"),
    ("prefix", "failure:", "faults", "faults.callback"),
    ("prefix", "fleet-provisioner", "fleet.provisioner", "provisioner.tick"),
    ("prefix", "cluster-start:", "fleet.provisioner", "provisioner.cluster_start"),
    ("prefix", "autoscaler", "core.autoscaler", "autoscaler.tick"),
)

#: Every layer a span or event callback is charged to, in first-listed order.
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys([layer for layer, _, _ in SPANS if layer] + [layer for _, _, layer, _ in EVENT_KINDS])
)

_ACTIVE: list["Tracer"] = []


def _off_in_child() -> None:
    for tracer in _ACTIVE:
        tracer.on = False


os.register_at_fork(after_in_child=_off_in_child)


def resolve(target: str):
    """``"module:Qual.name"`` -> ``(owner, attribute)``; the owner is a class or module."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


class Patches:
    """Replaces functions and methods and puts the originals back.

    A module-level function is replaced in its own module and in every loaded
    ``repro`` module that imported it by name, so callers see the wrapper
    whichever way they reached the function.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, target: str, make_wrapper) -> None:
        owner, attribute = resolve(target)
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
            self._set(owner, attribute, make_wrapper(original))
            return
        original = getattr(owner, attribute)
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner, attribute: str, value) -> None:
        self._saved.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []


class Tracer:
    """Records spans while :attr:`on`; tallies calls, self and inclusive time per name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str | None] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_run = array("H")
        self.run_id = 0
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.counts: dict[str, int] = {}
        self.kv_bytes = 0.0
        self.on = False
        self._open: list[int] = []
        self._child: list[float] = []
        self._patches = Patches()

    # -- names --------------------------------------------------------------------

    def name_id(self, layer: str | None, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return nid

    # -- wrappers -----------------------------------------------------------------

    def span(self, fn, nid: int):
        tracer = self
        perf = time.perf_counter
        name, start, end, parent, run = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self.span_run,
        )
        open_, child = self._open, self._child
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = len(start)
            name.append(nid)
            parent.append(open_[-1] if open_ else -1)
            run.append(tracer.run_id)
            end.append(0.0)
            open_.append(index)
            child.append(0.0)
            began = perf()
            start.append(began)
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf()
                end[index] = ended
                open_.pop()
                duration = ended - began
                self_s[nid] += duration - child.pop()
                incl_s[nid] += duration
                calls[nid] += 1
                if child:
                    child[-1] += duration

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, key: str):
        tracer = self
        counts = self.counts
        counts.setdefault(key, 0)

        def counted(*args, **kwargs):
            if tracer.on:
                counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _schedule_at(self, original):
        tracer = self
        kinds = [(match, text, self.name_id(layer, name)) for match, text, layer, name in EVENT_KINDS]
        cache: dict[str, int] = {}

        def classify(tag: str) -> int:
            for match, text, nid in kinds:
                if tag.endswith(text) if match == "suffix" else tag.startswith(text):
                    return nid
            return -1

        def schedule_at(engine, time_s, action, priority=0, tag=""):
            if tracer.on:
                nid = cache.get(tag)
                if nid is None:
                    if len(cache) > 4096:  # per-request tags never repeat
                        cache.clear()
                    nid = cache[tag] = classify(tag)
                if nid >= 0:
                    action = tracer.span(action, nid)
            return original(engine, time_s, action, priority, tag)

        schedule_at.__wrapped__ = original
        return schedule_at

    def _visible_latency(self, original):
        # kv.bytes_moved is computed, not measured: the scheduler asks for the
        # visible latency once per transfer it starts, and the wrapper adds
        # KVTransferModel.kv_bytes of that transfer's prompt.
        tracer = self

        def visible_latency(model, prompt_tokens, *args, **kwargs):
            if tracer.on:
                tracer.kv_bytes += model.kv_bytes(prompt_tokens)
            return original(model, prompt_tokens, *args, **kwargs)

        visible_latency.__wrapped__ = original
        return visible_latency

    # -- install ------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer, name, target in SPANS:
            nid = self.name_id(layer, name)
            self._patches.replace(target, lambda fn, nid=nid: self.span(fn, nid))
        for key, target in COUNTERS:
            self._patches.replace(target, lambda fn, key=key: self.counter(fn, key))
        self._patches.replace("repro.simulation.engine:SimulationEngine.schedule_at", self._schedule_at)
        self._patches.replace("repro.core.kv_transfer:KVTransferModel.visible_latency", self._visible_latency)
        _ACTIVE.append(self)
        self.on = True
        return self

    def __exit__(self, *exc) -> None:
        self.on = False
        _ACTIVE.remove(self)
        self._patches.restore()

    # -- results ------------------------------------------------------------------

    def tally(self) -> dict:
        """Snapshot of the running totals (subtract two to get one phase)."""
        return {
            "calls": list(self.calls),
            "self_s": list(self.self_s),
            "incl_s": list(self.incl_s),
            "counts": dict(self.counts),
            "kv_bytes": self.kv_bytes,
        }

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (``.npz``): one column per field, plus the names.

        ``name`` indexes ``names`` (and ``layers``, ``None`` written as ``""``);
        ``parent`` is the index of the enclosing span, ``-1`` for a root.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array([layer or "" for layer in self.layer_of]),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            run=np.frombuffer(self.span_run, dtype=np.uint16),
        )


def delta(after: dict, before: dict) -> dict:
    """Per-phase difference of two :meth:`Tracer.tally` snapshots."""
    return {
        "calls": [a - b for a, b in zip(after["calls"], before["calls"])],
        "self_s": [a - b for a, b in zip(after["self_s"], before["self_s"])],
        "incl_s": [a - b for a, b in zip(after["incl_s"], before["incl_s"])],
        "counts": {k: v - before["counts"].get(k, 0) for k, v in after["counts"].items()},
        "kv_bytes": after["kv_bytes"] - before["kv_bytes"],
    }
