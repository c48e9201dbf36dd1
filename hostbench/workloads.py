"""The benchmark's four workloads and the correctness oracle behind every run.

A workload is a batch job: ``build(seed)`` makes its inputs (trace generation
and simulator construction, the set-up part) and ``execute(state)`` runs its
simulations back to back (the timed part).  The :class:`RunObserver` sits on
``ClusterSimulation.run`` and ``FleetSimulation.run`` while a workload
executes, so every simulation a workload makes -- including the 63 that
``headline_claims()`` makes internally -- is checked and counted:

* census closure: every request is completed, shed or expired;
* finite outputs: simulated time, first-token and completion times and every
  token timestamp are finite;
* an output digest over every request's outcome and token times, the failure
  message of a run that raised, and the workload's own return value.

A run fails when it raises, breaks census closure or gives a non-finite
output.  Failed runs count in ``run_failure_rate``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.cluster import ClusterSimulation
from repro.core.designs import splitwise_hh
from repro.experiments.fleet_sweep import prepare_fleet_run
from repro.experiments import headline
from repro.fleet.fleet import FleetSimulation
from repro.workload import generator
from repro.workload.scenarios import get_scenario

# Functions are reached through their modules, so wrappers put on the module
# attribute (by the tracer or by a planted test wrapper) see these calls too.
SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())["workloads"]

HOST_CPUS = os.cpu_count() or 1

#: Shard workers of ``fleet-static``: two, never more than the host has CPUs.
FLEET_STATIC_WORKERS = min(2, HOST_CPUS)


class OracleError(RuntimeError):
    """The benchmark's own checking code failed (never a simulator failure)."""


@dataclass
class RunRecord:
    """What the oracle saw of one simulation run."""

    kind: str
    ok: bool
    error: str | None
    problems: list[str]
    wall_s: float
    requests: int
    accounted: int
    events: int
    events_coalesced: int
    events_cancelled: int
    heap_compactions: int
    token_boundaries: int
    token_run_blocks: int
    shed: int = 0
    expired: int = 0
    degraded: int = 0
    hedges: int = 0
    retries: int = 0
    bans: int = 0
    workers: int = 0
    sim_time_s: str | None = None
    digest: str = ""

    @property
    def failed(self) -> bool:
        return not self.ok or bool(self.problems)


def _request_digest(hasher, requests) -> list[str]:
    """Fold every request's outcome into ``hasher``; return oracle problems."""
    problems: list[str] = []
    rows = []
    for request in requests:
        rows.append(
            (
                request.request_id,
                request.phase.value,
                request.first_token_time,
                request.completion_time,
                request.generated_tokens,
                request.restarts,
                request.shed,
                request.expired,
                request.degraded,
            )
        )
        times = request.token_times
        if len(times):
            view = np.frombuffer(times)
            if not np.isfinite(view).all():
                problems.append(f"request {request.request_id}: non-finite token time")
            hasher.update(view.tobytes())
        for value in (request.first_token_time, request.completion_time):
            if value is not None and not math.isfinite(value):
                problems.append(f"request {request.request_id}: non-finite latency")
    hasher.update(repr(rows).encode())
    return problems


class RunObserver:
    """Checks and counts every cluster and fleet simulation run.

    Use as a context manager around a workload's ``execute``; wrappers are
    installed on entry and removed on exit.  The oracle's own host time is
    kept in :attr:`oracle_s` so the caller can take it out of the timed
    region.
    """

    def __init__(self) -> None:
        self.records: list[RunRecord] = []
        self.oracle_s = 0.0
        self._saved: list[tuple[type, str, object]] = []

    def __enter__(self) -> "RunObserver":
        self.records = []
        self.oracle_s = 0.0
        for cls, kind in ((ClusterSimulation, "cluster"), (FleetSimulation, "fleet")):
            original = cls.__dict__["run"]
            self._saved.append((cls, "run", original))
            setattr(cls, "run", self._wrap(original, kind))
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved = []

    def _wrap(self, original, kind: str):
        observer = self

        def run(simulation, trace, *args, **kwargs):
            start = time.perf_counter()
            try:
                result = original(simulation, trace, *args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                observer._checked(kind, simulation, trace, None, exc, end - start)
                raise
            end = time.perf_counter()
            observer._checked(kind, simulation, trace, result, None, end - start)
            return result

        return run

    def _checked(self, kind, simulation, trace, result, error, wall_s) -> None:
        start = time.perf_counter()
        try:
            self._record(kind, simulation, trace, result, error, wall_s)
        except Exception as exc:
            raise OracleError(f"checking a {kind} run failed: {exc!r}") from exc
        self.oracle_s += time.perf_counter() - start

    def _record(self, kind, simulation, trace, result, error, wall_s) -> None:
        info = getattr(simulation, "parallel_info", None) or {}
        if info.get("mode") == "parallel":
            counters = (
                info["events_processed"],
                info["events_coalesced"],
                info["events_cancelled"],
                info["heap_compactions"],
            )
            workers = info["workers"]
        else:
            engine = simulation.engine
            counters = (
                engine.events_processed,
                engine.events_coalesced,
                engine.events_cancelled,
                engine.heap_compactions,
            )
            workers = 0
        if kind == "cluster":
            logs = [simulation.metrics.token_log]
        else:
            logs = [cluster.simulation.metrics.token_log for cluster in simulation.clusters]
        hasher = hashlib.sha256(kind.encode())
        problems: list[str] = []
        record = RunRecord(
            kind=kind,
            ok=error is None,
            error=None if error is None else f"{type(error).__name__}: {error}",
            problems=problems,
            wall_s=wall_s,
            requests=len(trace),
            accounted=0,
            events=counters[0],
            events_coalesced=counters[1],
            events_cancelled=counters[2],
            heap_compactions=counters[3],
            token_boundaries=sum(log.boundaries_recorded() for log in logs),
            token_run_blocks=sum(log.run_blocks_recorded() for log in logs),
            workers=workers,
        )
        if kind == "fleet":
            record.bans = simulation.router.bans_issued
            if simulation.lifecycle is not None:
                lifecycle = simulation.lifecycle.snapshot()
                record.hedges = lifecycle["hedges_launched"]
                record.retries = lifecycle["retries_fired"]
        if result is None:
            hasher.update(record.error.encode())
        else:
            requests = result.requests
            record.accounted = sum(1 for r in requests if r.is_complete or r.shed or r.expired)
            if record.accounted != len(requests):
                problems.append(
                    f"census: {record.accounted} of {len(requests)} requests accounted"
                )
            if not math.isfinite(result.duration_s):
                problems.append("non-finite simulated time")
            record.sim_time_s = repr(result.duration_s)
            hasher.update(record.sim_time_s.encode())
            problems.extend(_request_digest(hasher, requests))
            if kind == "fleet":
                record.shed = sum(1 for r in requests if r.shed)
                record.expired = sum(1 for r in requests if r.expired)
                record.degraded = len(result.degraded_requests)
        record.digest = hasher.hexdigest()
        self.records.append(record)


@dataclass
class Workload:
    """One named workload: how to build its inputs and what the timed region runs."""

    name: str
    spec: dict = field(repr=False)

    @property
    def workers(self) -> int:
        return FLEET_STATIC_WORKERS if self.name == "fleet-static" else 0

    def build(self, seed: int):
        """Generate traces and construct simulators (the set-up part)."""
        inputs = self.spec["inputs"]
        if self.name == "burst-40":
            trace = generator.generate_trace(
                inputs["workload"],
                rate_rps=inputs["rate_rps"],
                duration_s=inputs["duration_s"],
                seed=inputs["trace_seed_offset"] + seed,
            )
            design = splitwise_hh(inputs["prompt_machines"], inputs["token_machines"])
            return [(ClusterSimulation(design), trace, ())]
        if self.name == "sweep-headline":
            return inputs["trace_seed"]
        preset = get_scenario(inputs["preset"])
        if self.name == "fleet-chaos":
            return [
                prepare_fleet_run(
                    preset,
                    clusters=size["clusters"],
                    burst_clusters=size["burst_clusters"],
                    seed=trace_seed,
                    scale=size["scale"],
                    policy=inputs["policy"],
                    chaos=inputs["chaos"],
                )
                for size in inputs["sizes"]
                for trace_seed in size["trace_seeds"]
            ]
        if self.name == "fleet-static":
            return [
                prepare_fleet_run(
                    preset,
                    clusters=inputs["clusters"],
                    burst_clusters=inputs["burst_clusters"],
                    seed=inputs["trace_seed_offset"] + seed,
                    scale=inputs["scale"],
                    policy=inputs["policy"],
                    burst=False,
                    parallel=self.workers,
                )
            ]
        raise ValueError(f"unknown workload {self.name!r}")

    def execute(self, state) -> object:
        """Run the timed region; a run that raises is recorded and the next one goes on."""
        if self.name == "sweep-headline":
            inputs = self.spec["inputs"]
            return headline.headline_claims(
                workload=inputs["workload"],
                scale=inputs["scale"],
                rates=tuple(inputs["rates"]),
                duration_s=inputs["duration_s"],
                seed=state,
            )
        for simulation, trace, failures in state:
            try:
                simulation.run(trace, failures=failures)
            except OracleError:
                raise
            except Exception:  # recorded by the RunObserver as a failed run
                pass
        return None

    def check(self, seed: int, output, records: list[RunRecord]) -> list[str]:
        """Workload-level oracle: pinned reference outputs at their seed."""
        reference = self.spec.get("reference")
        if reference is None or seed != reference["seed"]:
            return []
        got = [record.sim_time_s for record in records]
        if got != [reference["sim_time_s"]]:
            return [f"sim_time_s {got} differs from the pinned {reference['sim_time_s']}"]
        return []

    def probe_yield(self, output, records: list[RunRecord]) -> float:
        """Probes that set a reported sustainable rate / probes run (sweeps only)."""
        if self.name != "sweep-headline" or not records:
            return 0.0
        reported = sum(
            1
            for suite in ("sustainable_rates_iso_power", "sustainable_rates_iso_cost")
            for rate in output[suite].values()
            if rate > 0
        )
        return reported / len(records)


def output_digest(output, records: list[RunRecord]) -> str:
    """Digest of one execution: every run's digest plus the workload's return value."""
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(record.digest.encode())
    hasher.update(repr(output).encode())
    return hasher.hexdigest()


WORKLOADS = {name: Workload(name, spec) for name, spec in SPEC.items()}
