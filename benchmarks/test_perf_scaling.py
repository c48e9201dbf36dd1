"""Simulation-output pins for the scaling scenarios — a timing-free parity test.

Seven fixed scenarios cover the simulator's main regimes: 4-, 16- and
40-machine Splitwise-HH clusters under the short-burst saturation regime of
the paper's robustness study (§VI-G, roughly 5x the sustainable rate), a
day-scale diurnal trace with the pool autoscaler active, a mixed-tenant fleet
behind the slo-feedback router and the cloud-burst provisioner, and a
5-cluster static fleet run both serially and sharded across 4 workers.

Each run must drain every request and end at exactly its pinned simulated
time.  Every serial run must also reproduce its pinned deterministic work
counters (engine events processed/cancelled/coalesced, rotation engagements,
recorded timeline boundaries and fast-forward run blocks), so an algorithmic
change to the hot path fails on any host, and the three burst clusters must
reproduce a digest of every request's token times and outcome.  The serial
and sharded fleet runs must agree on every simulation output.  Host time is
measured by ``hostbench/run.py``, not here.

Run with::

    pytest benchmarks/test_perf_scaling.py -q
"""

from __future__ import annotations

import hashlib

from repro.core.cluster import ClusterSimulation
from repro.core.designs import splitwise_hh
from repro.experiments.fleet_sweep import prepare_fleet_run
from repro.experiments.scenarios import prepare_scenario_run
from repro.workload.generator import generate_trace
from repro.workload.scenarios import get_scenario

#: Final simulated time of each scenario.  This is a pure simulation output:
#: it must be bit-identical on every host and across perf-only refactors, so
#: any drift here means simulation *behavior* changed, not just speed.
EXPECTED_SIM_TIME = {
    "4-machine": "172.7535822080592",
    "16-machine": "167.01584566882394",
    "40-machine": "173.58417218336652",
    # Day-scale diurnal trace with the pool autoscaler active: the reported
    # span ends at the last completion (trailing controller-only ticks are
    # excluded so machine-hour windows stay comparable with static runs).
    "diurnal-autoscale": "254.5188606131304",
    # Two mixed-tenant clusters plus one standby behind the slo-feedback
    # fleet router and the cloud-burst provisioner.
    "fleet-burst": "250.29238581678956",
    # Five static mixed-tenant clusters (40 machines) under weighted-rr
    # routing, serial vs sharded across 4 workers on the identical trace.
    # The two entries pinning the SAME value is itself a parity gate: a
    # sharded run that diverged from serial would trip here.
    "fleet-parallel": "258.6543126857196",
    "fleet-parallel-4w": "258.6543126857196",
}


#: Deterministic work counters of each serial scenario: a change here means
#: the simulator did different work (more events, fewer coalesced
#: iterations, extra rotation engagements), even if the outputs still match.
EXPECTED_WORK = {
    "4-machine": {
        "events_processed": 10606,
        "events_cancelled": 6,
        "events_coalesced": 3559,
        "rotation_runs": 6,
        "boundaries_recorded": 6727,
        "run_blocks_recorded": 189,
    },
    "16-machine": {
        "events_processed": 41770,
        "events_cancelled": 29,
        "events_coalesced": 13603,
        "rotation_runs": 24,
        "boundaries_recorded": 25707,
        "run_blocks_recorded": 789,
    },
    "40-machine": {
        "events_processed": 105986,
        "events_cancelled": 75,
        "events_coalesced": 35200,
        "rotation_runs": 62,
        "boundaries_recorded": 64558,
        "run_blocks_recorded": 1948,
    },
    "diurnal-autoscale": {
        "events_processed": 19351,
        "events_cancelled": 2495,
        "events_coalesced": 55130,
        "rotation_runs": 0,
        "boundaries_recorded": 5641,
        "run_blocks_recorded": 4536,
    },
    "fleet-burst": {
        "events_processed": 21895,
        "events_cancelled": 2793,
        "events_coalesced": 84501,
        "rotation_runs": 0,
        "boundaries_recorded": 6312,
        "run_blocks_recorded": 5218,
    },
    "fleet-parallel": {
        "events_processed": 45112,
        "events_cancelled": 5889,
        "events_coalesced": 104975,
        "rotation_runs": 0,
        "boundaries_recorded": 13413,
        "run_blocks_recorded": 10395,
    },
}

#: sha256 over every request's token times and outcome (see
#: :func:`_output_digest`) for the burst clusters.  ``sim_time_s`` alone only
#: pins the last completion; this catches any token-time divergence.
EXPECTED_DIGEST = {
    "4-machine": "209e7199900274f2b09996ed5d0d81ee116db479b04f2d2e1c3ed72a64d2a7ce",
    "16-machine": "edaae1af631b3b91d8d23c494b9c68f15775a98ded62ae8e85ad26a5d1e96662",
    "40-machine": "17935f0daedf90b30910762023008feecf044133ab09af5dd4d3aed9070d5693",
}


def _burst(num_prompt: int, num_token: int, rate_rps: float, num_requests: int, seed: int):
    """A Poisson burst of ``num_requests`` conversation requests on Splitwise-HH."""
    trace = generate_trace(
        "conversation", rate_rps=rate_rps, duration_s=num_requests / rate_rps, seed=seed
    )
    return ClusterSimulation(splitwise_hh(num_prompt, num_token)), trace, ()


def _static_fleet(parallel: int | None):
    """Five static mixed-tenant clusters under weighted-rr routing."""
    return prepare_fleet_run(
        get_scenario("mixed-tenant"), clusters=5, burst_clusters=0, seed=16, scale=1.6,
        policy="weighted-rr", burst=False, parallel=parallel,
    )


#: Scenario name -> builder of its ``(simulation, trace, failures)``.
SCENARIOS = {
    "4-machine": lambda: _burst(2, 2, rate_rps=50.0, num_requests=2_000, seed=11),
    "16-machine": lambda: _burst(10, 6, rate_rps=200.0, num_requests=8_000, seed=12),
    "40-machine": lambda: _burst(25, 15, rate_rps=500.0, num_requests=20_000, seed=13),
    "diurnal-autoscale": lambda: prepare_scenario_run(
        get_scenario("diurnal"), seed=14, scale=4.0, autoscaled=True
    ),
    "fleet-burst": lambda: prepare_fleet_run(
        get_scenario("mixed-tenant"), clusters=2, burst_clusters=1, seed=15, scale=2.0,
        policy="slo-feedback", burst=True,
    ),
    "fleet-parallel": lambda: _static_fleet(None),
    "fleet-parallel-4w": lambda: _static_fleet(4),
}


_ENGINE_COUNTERS = ("events_processed", "events_cancelled", "events_coalesced")
_WORK_COUNTERS = (*_ENGINE_COUNTERS, "rotation_runs", "boundaries_recorded", "run_blocks_recorded")


def _output_digest(requests) -> str:
    """sha256 of every request's token times, first-token and completion
    times, generated count and final priority boost, in request-id order."""
    hasher = hashlib.sha256()
    for request in sorted(requests, key=lambda r: r.request_id):
        outcome = (
            request.request_id,
            request.first_token_time,
            request.completion_time,
            request.generated_tokens,
            request.priority_boost,
        )
        hasher.update(repr(outcome).encode())
        hasher.update(request.token_times.tobytes())
    return hasher.hexdigest()


def _run(name: str) -> dict:
    """Run one scenario and return its simulation outputs."""
    simulation, trace, failures = SCENARIOS[name]()
    result = simulation.run(trace, failures=failures)
    # Sharded fleet runs execute on worker engines; their merged counters
    # live in parallel_info, and the coordinator engine stays idle.
    info = getattr(simulation, "parallel_info", None)
    if info is not None and info.get("mode") == "parallel":
        counters = {key: info[key] for key in _ENGINE_COUNTERS}
        counters["workers"] = info["workers"]
    else:
        counters = {key: getattr(simulation.engine, key) for key in _ENGINE_COUNTERS}
        counters["workers"] = 0
        machines = simulation.machines
        token_logs = {id(machine.token_log): machine.token_log for machine in machines}.values()
        counters["rotation_runs"] = sum(machine.rotation_runs for machine in machines)
        counters["boundaries_recorded"] = sum(log.boundaries_recorded() for log in token_logs)
        counters["run_blocks_recorded"] = sum(log.run_blocks_recorded() for log in token_logs)
    return {
        "digest": _output_digest(result.requests),
        "requests": len(trace),
        "completed": len(result.completed_requests),
        "tokens_generated": sum(r.generated_tokens for r in result.requests),
        "sim_time_s": result.duration_s,
        **counters,
    }


def test_perf_scaling():
    outputs = {name: _run(name) for name in SCENARIOS}
    for name, out in outputs.items():
        # Every request must drain; a partial completion means the scenario
        # is broken.
        assert out["completed"] == out["requests"], name
        assert repr(out["sim_time_s"]) == EXPECTED_SIM_TIME[name], name
        if name in EXPECTED_WORK:
            work = {key: out[key] for key in _WORK_COUNTERS}
            assert work == EXPECTED_WORK[name], name
        if name in EXPECTED_DIGEST:
            assert out["digest"] == EXPECTED_DIGEST[name], name

    serial, sharded = outputs["fleet-parallel"], outputs["fleet-parallel-4w"]
    assert sharded["workers"] == 4
    for key in ("requests", "completed", *_ENGINE_COUNTERS, "tokens_generated", "sim_time_s"):
        assert serial[key] == sharded[key], (
            f"serial/sharded divergence on {key}: {serial[key]!r} != {sharded[key]!r}"
        )
