"""Sharded parallel execution of decomposable fleet simulations.

A :class:`~repro.fleet.fleet.FleetSimulation` normally advances every member
cluster on one shared :class:`~repro.simulation.engine.SimulationEngine`.
This module partitions the fleet into *shards* — disjoint cluster groups,
each with its own engine — and runs each shard start to finish in one call
(:func:`run_shard`), optionally on ``multiprocessing`` workers.  The
coordinator routes every arrival up front (the router is the single
cross-shard decision point of a decomposable fleet); each shard schedules
its routed arrivals, drains, and returns completions, per-machine metrics,
and engine counters, which the coordinator merges into one
:class:`~repro.fleet.fleet.FleetResult`.

Decomposability (:func:`plan_shards`) is conservative: a fleet qualifies for
parallel execution only when no component feeds cross-cluster state back
into routing or scheduling mid-run — the ``weighted-rr`` policy (a smooth
weighted round-robin over static machine counts, no completion feedback,
no RNG) with no provisioner, no reliability/admission/lifecycle layers, no
armed fault plane, no observability plane, and no per-cluster autoscalers
(their stop condition couples to the fleet-wide census), on a draining run
with no horizon.  Plain machine failure injections *are* shard-local
(requests restart on the surviving machines of the same cluster) and stay
eligible.  Anything else falls back to the serial engine with the blocking
reasons recorded in the plan — the fallback is the exact serial code path,
so results are trivially byte-identical.

Since shards share no state mid-run, they need no barriers.  Determinism of
the parallel path rests on two facts, each load-bearing:

* Pre-routing order equals serial routing order.  Serial fleets schedule
  arrivals at :data:`~repro.simulation.events.ARRIVAL_EVENT_PRIORITY` in
  trace order, so the heap executes them by ``(arrival_time, trace_index)``;
  the coordinator routes in exactly that sort order, through the *same*
  router instance, so every request lands on the same cluster.  A shard
  schedules its arrivals in that order too, after arming its failures, as
  the serial fleet does, so its engine replays the serial event order
  restricted to its clusters.
* Shard merge is positional: completions are keyed by trace index, machine
  stats by machine name, so the merge is independent of worker count,
  shard assignment, and worker completion order.
"""

from __future__ import annotations

import multiprocessing
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.simulation.engine import SimulationEngine
from repro.simulation.events import ARRIVAL_EVENT_PRIORITY
from repro.simulation.request import Request, RequestPhase

if TYPE_CHECKING:  # pragma: no cover - typing only (fleet layers above simulation)
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext

    from repro.fleet.fleet import FleetSimulation


#: A routed arrival crossing into a shard: ``(trace_index, descriptor,
#: cluster_name)``.  The descriptor carries the arrival time.
ArrivalMessage = tuple[int, Any, str]


@dataclass(frozen=True)
class ShardPlan:
    """Outcome of the decomposability analysis for one fleet run.

    Attributes:
        requested: Worker count the caller asked for (``parallel=N``).
        workers: OS worker processes to launch (0 = every shard runs
            in-process, used for ``N=1``).
        shard_count: Engine shards (min of requested workers and clusters).
        mode: ``"parallel"`` when the fleet decomposes, ``"serial"`` when it
            must fall back to the single shared engine.
        reasons: Human-readable couplings that blocked parallel execution
            (empty when ``mode == "parallel"``).
        assignments: Cluster names per shard (round-robin partition),
            empty on serial fallback.
    """

    requested: int
    workers: int
    shard_count: int
    mode: str
    reasons: tuple[str, ...]
    assignments: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to rebuild its cluster group from scratch.

    Picklable by construction: designs, models, and cluster kwargs are plain
    frozen dataclasses / scalars.  Workers never receive live simulation
    objects — each builds fresh :class:`~repro.core.cluster.ClusterSimulation`
    instances on its own engine, which is what makes shard state trivially
    serializable.
    """

    shard_id: int
    cluster_names: tuple[str, ...]
    design: Any
    model: Any
    cluster_kwargs: tuple[tuple[str, Any], ...]
    #: Failure injections per cluster, aligned with ``cluster_names``.
    failures: tuple[tuple[tuple[float, str], ...], ...]
    sanitize: bool


@dataclass
class ShardResult:
    """A shard's complete output, shipped back after its drain.

    ``request_rows`` hold one tuple per routed request (see
    :func:`request_row`); ``machine_stats`` maps cluster name to that
    cluster's :meth:`~repro.metrics.collectors.MetricsCollector.export_machine_stats`
    payload.  ``end_time`` is the shard engine's clock after the drain,
    which is its last executed event time.
    """

    shard_id: int
    end_time: float
    events_processed: int
    events_cancelled: int
    events_coalesced: int
    heap_compactions: int
    request_rows: list[tuple]
    machine_stats: dict[str, dict[str, dict]]


def plan_shards(
    fleet: "FleetSimulation",
    requested: int,
    drain: bool = True,
    horizon_s: float | None = None,
) -> ShardPlan:
    """Decide whether (and how) a fleet run can execute as parallel shards.

    Args:
        fleet: The fleet about to run.
        requested: Requested worker count (``parallel=N``, must be >= 1).
        drain: The run's ``drain`` flag.
        horizon_s: The run's ``horizon_s`` argument.

    Returns:
        A :class:`ShardPlan`; ``mode == "serial"`` lists every coupling that
        forces the fallback.
    """
    if requested < 1:
        raise ValueError(f"parallel worker count must be >= 1, got {requested}")
    reasons: list[str] = []
    if len(fleet.clusters) < 2:
        reasons.append("fewer than two clusters: nothing to shard")
    policy = fleet.router.policy
    if policy != "weighted-rr":
        reasons.append(
            f"router policy {policy!r} feeds completion/outstanding state back into routing"
        )
    if fleet.router.reliability is not None:
        reasons.append("router reliability tracking consumes cross-cluster error feedback")
    if fleet.provisioner is not None:
        reasons.append("provisioner acts on fleet-wide pressure at its own cadence")
    if fleet.admission is not None:
        reasons.append("admission control sheds on fleet-wide outstanding load")
    if fleet.lifecycle is not None:
        reasons.append("lifecycle layer re-routes retries/hedges across clusters")
    if fleet.faults is not None and fleet.faults.enabled:
        reasons.append("armed fault plane injects correlated cross-cluster outages")
    if fleet.obs is not None:
        reasons.append("observability plane records one fleet-wide timeline")
    if any(cluster.simulation.autoscaler is not None for cluster in fleet.clusters):
        reasons.append("per-cluster autoscaler stop couples to the fleet-wide census")
    if not drain:
        reasons.append("non-draining runs stop all clusters on one shared clock")
    if horizon_s is not None:
        reasons.append("horizon-bounded runs stop all clusters on one shared clock")
    if reasons:
        return ShardPlan(
            requested=requested,
            workers=0,
            shard_count=1,
            mode="serial",
            reasons=tuple(reasons),
            assignments=(),
        )
    names = [cluster.name for cluster in fleet.clusters]
    shard_count = min(requested, len(names))
    assignments = tuple(tuple(names[index::shard_count]) for index in range(shard_count))
    workers = shard_count if requested > 1 else 0
    return ShardPlan(
        requested=requested,
        workers=workers,
        shard_count=shard_count,
        mode="parallel",
        reasons=(),
        assignments=assignments,
    )


# -- request row transfer ---------------------------------------------------------


def request_row(index: int, request: Request) -> tuple:
    """Pack one simulated request into a flat picklable row.

    Columnar token-time segments are materialized into the packed
    ``array('d')`` here, on the worker, so the row carries plain scalars and
    one typed array — no live simulation objects cross the process boundary.
    """
    return (
        index,
        request.phase.value,
        request.prompt_machine,
        request.token_machine,
        request.prompt_start_time,
        request.first_token_time,
        request.completion_time,
        request.generated_tokens,
        request.kv_transfer_start,
        request.kv_transfer_end,
        request.preemptions,
        request.priority_boost,
        request.restarts,
        array("d", request.token_times),
    )


def apply_request_row(request: Request, row: tuple) -> None:
    """Hydrate a coordinator-side request from a worker's :func:`request_row`.

    The coordinator's request was never simulated, so its columnar segment
    fields are still at their defaults; assigning the packed array makes
    ``token_times`` return the worker-observed series bit-for-bit.
    """
    request.phase = RequestPhase(row[1])
    request.prompt_machine = row[2]
    request.token_machine = row[3]
    request.prompt_start_time = row[4]
    request.first_token_time = row[5]
    request.completion_time = row[6]
    request.generated_tokens = row[7]
    request.kv_transfer_start = row[8]
    request.kv_transfer_end = row[9]
    request.preemptions = row[10]
    request.priority_boost = row[11]
    request.restarts = row[12]
    request._token_times = row[13]


# -- running shards ---------------------------------------------------------------


def run_shard(spec: ShardSpec, arrivals: Sequence[ArrivalMessage]) -> ShardResult:
    """Simulate one shard start to finish on a private engine.

    Builds the shard's clusters, arms their failure injections, schedules
    every routed arrival up front (as the serial fleet does), drains the
    engine, and packages the shard's requests, metrics, and counters.

    Args:
        spec: The shard's cluster group and configuration.
        arrivals: The shard's routed arrivals in serial routing order
            (sorted by arrival time, trace order breaking ties).
    """
    from repro.core.cluster import ClusterSimulation

    engine = SimulationEngine(sanitize=spec.sanitize)
    sanitizer = engine.sanitizer
    if sanitizer is not None:
        # Mirror the serial fleet's stream discipline: trace and fault
        # randomness is spent before the event loop runs.
        sanitizer.register_stream("trace", run_phase=False)
        sanitizer.register_stream("fault", run_phase=False)
    simulations: dict[str, ClusterSimulation] = {}
    kwargs = dict(spec.cluster_kwargs)
    for name, failures in zip(spec.cluster_names, spec.failures):
        simulation = ClusterSimulation(
            spec.design,
            model=spec.model,
            engine=engine,
            name=name,
            **kwargs,
        )
        simulation.prepare(failures)
        simulations[name] = simulation
    roster: list[tuple[int, Request]] = []
    for index, descriptor, cluster_name in arrivals:
        request = Request(descriptor=descriptor)
        scheduler = simulations[cluster_name].scheduler
        roster.append((index, request))
        engine.schedule_at(
            request.arrival_time,
            lambda sched=scheduler, req=request: sched.submit(req),
            priority=ARRIVAL_EVENT_PRIORITY,
            tag=f"fleet-arrival:{request.request_id}",
        )
    engine.run()
    return ShardResult(
        shard_id=spec.shard_id,
        end_time=engine.now,
        events_processed=engine.events_processed,
        events_cancelled=engine.events_cancelled,
        events_coalesced=engine.events_coalesced,
        heap_compactions=engine.heap_compactions,
        request_rows=[request_row(index, request) for index, request in roster],
        machine_stats={
            name: simulation.metrics.export_machine_stats()
            for name, simulation in simulations.items()
        },
    )


def spawn_context() -> "BaseContext":
    """Pick the multiprocessing start method for shard workers.

    ``fork`` is preferred (the coordinator has already imported everything,
    so workers start instantly); platforms without it fall back to
    ``spawn``.  Shards are bit-identical under either start method.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context("spawn")


def _shard_worker(
    connection: "Connection", spec: ShardSpec, arrivals: Sequence[ArrivalMessage]
) -> None:
    """Worker-process entry point: run one shard, send back its result or exception."""
    try:
        outcome: ShardResult | BaseException = run_shard(spec, arrivals)
    except BaseException as exc:  # re-raised in the coordinator with its own type
        outcome = exc
    connection.send(outcome)
    connection.close()


def execute_shards(
    specs: Sequence[ShardSpec],
    arrivals: Sequence[Sequence[ArrivalMessage]],
    use_processes: bool,
) -> list[ShardResult]:
    """Run every shard through :func:`run_shard` and collect the results.

    Args:
        specs: One spec per shard.
        arrivals: Per-shard routed arrivals, each in serial routing order.
        use_processes: Start one worker process per shard; ``False`` runs
            the shards one after another in-process.

    Returns:
        Shard results in shard-id order.  A shard that raises re-raises its
        exception, with its original type, in the caller.

    Results are received on the calling thread, not on a helper thread as a
    ``multiprocessing.Pool`` does: unpickling them on a second thread grows a
    second malloc arena, which measured up to 50% more peak memory across
    repeated runs.
    """
    if not use_processes:
        return [run_shard(spec, batch) for spec, batch in zip(specs, arrivals)]
    context = spawn_context()
    processes = []
    receivers = []
    try:
        for spec, batch in zip(specs, arrivals):
            receiver, sender = context.Pipe(duplex=False)
            receivers.append(receiver)
            process = context.Process(
                target=_shard_worker,
                args=(sender, spec, batch),
                name=f"repro-shard-{spec.shard_id}",
                daemon=True,
            )
            process.start()
            processes.append(process)
            sender.close()
        outcomes = [receiver.recv() for receiver in receivers]
    except BaseException:
        for process in processes:
            process.terminate()
        raise
    finally:
        for receiver in receivers:
            receiver.close()
        for process in processes:
            process.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes
