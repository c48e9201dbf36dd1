"""Sharded fleet execution is bit-identical to the serial engine.

The shard scheduler (:mod:`repro.simulation.sharding`) partitions a
decomposable fleet into per-cluster-group engine shards, each run start to
finish on its own engine; everything observable about the run must
nevertheless match the serial engine byte for byte.  These tests pin that
contract:

* **Worker-count invariance** — serial, ``parallel=1`` (in-process shard
  execution, exercising the partition logic without OS workers), and
  ``parallel=2/4`` (real ``multiprocessing`` workers) produce identical
  fingerprints: per-request timelines, tenant SLO reports, per-cluster
  routing counts, and the run duration — also when some shards receive no
  arrivals at all.
* **Shard-boundary edge cases** — failure injections landing on different
  shards, at the same or nearby times, neither reorder nor lose anything;
  the census closes exactly.
* **Input validation** — a bad failure injection raises ``ValueError``
  before anything is armed or any worker starts.
* **Coupled-configuration fallback** — fleets whose layers genuinely read
  fleet-wide state (chaos + retries/hedges, the cloud-burst provisioner,
  the observability plane) refuse to shard: ``parallel=N`` falls back to
  the serial engine with the blocking couplings recorded as provenance,
  and the run stays byte-identical to one that never asked for workers.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import splitwise_hh
from repro.experiments.fleet_sweep import fleet_run_summary, prepare_fleet_run
from repro.fleet import FleetSimulation
from repro.models.llm import LLAMA2_70B
from repro.simulation.sharding import ShardSpec, execute_shards
from repro.workload.scenarios import get_scenario
from repro.workload.trace import Trace

CLUSTERS = 4


def _mixed_trace(seed, scale=0.5):
    return get_scenario("mixed-tenant").build_trace(seed=seed, scale=scale)


def _fleet(parallel=None, clusters=CLUSTERS):
    """A decomposable fleet: static weighted-rr, no coupled layers."""
    return FleetSimulation(
        splitwise_hh(2, 1),
        num_clusters=clusters,
        router="weighted-rr",
        parallel=parallel,
    )


def _fingerprint(result):
    """Canonical serialization of everything a fleet run reports."""
    per_request = [
        (
            r.request_id,
            r.tenant,
            r.prompt_machine,
            r.token_machine,
            r.prompt_start_time,
            r.first_token_time,
            r.completion_time,
            tuple(r.token_times),
            r.restarts,
        )
        for r in result.requests
    ]
    # fleet_run_summary embeds the tenant SLO report, per-cluster routing
    # counts, machine-hours, and (when present) provisioner/fault/lifecycle
    # snapshots — the same surface the CLI serializes.
    summary = fleet_run_summary(result)
    return json.dumps(
        {"requests": per_request, "summary": summary, "duration": result.duration_s},
        sort_keys=True,
        default=str,
    )


def _assert_census_closed(result, trace):
    """completed + shed + expired == submitted, with no duplicates.

    Shed/expired requests never reach (or are withdrawn from) a cluster, so
    the routed population must equal exactly the served one.
    """
    assert (
        len(result.completed_requests) + result.requests_shed + result.requests_expired
        == len(trace)
    )
    served = [r for r in result.requests if not r.shed and not r.expired]
    routed_ids = sorted(r.request_id for c in result.clusters for r in c.requests)
    assert routed_ids == sorted(r.request_id for r in served)


class TestWorkerCountInvariance:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=3, deadline=None)
    def test_bit_parity_across_worker_counts(self, seed):
        trace = _mixed_trace(seed)
        serial = _fleet().run(trace)
        reference = _fingerprint(serial)
        _assert_census_closed(serial, trace)
        for workers in (1, 2, 4):
            fleet = _fleet(parallel=workers)
            result = fleet.run(trace)
            assert _fingerprint(result) == reference, f"parallel={workers} diverged"
            info = fleet.parallel_info
            assert info is not None and info["mode"] == "parallel"
            assert info["shards"] == min(workers, CLUSTERS)
            # N=1 runs every shard in-process — no workers.
            assert info["workers"] == (0 if workers == 1 else min(workers, CLUSTERS))
            _assert_census_closed(result, trace)

    def test_shards_without_arrivals_match_serial(self):
        """Two requests on four clusters leave two shards with nothing to do."""
        full = _mixed_trace(5)
        trace = Trace(requests=full.requests[:2], name=full.name)
        serial = _fleet().run(trace)
        fleet = _fleet(parallel=4)
        result = fleet.run(trace)
        assert _fingerprint(result) == _fingerprint(serial)
        assert fleet.parallel_info["shards"] == 4
        assert sum(1 for c in result.clusters if c.requests) == 2
        _assert_census_closed(result, trace)

    def test_parallel_info_is_deterministic_provenance(self):
        """The recorded provenance carries no wall times and no host state."""
        trace = _mixed_trace(3)
        first = _fleet(parallel=2)
        first.run(trace)
        second = _fleet(parallel=2)
        second.run(trace)
        assert first.parallel_info == second.parallel_info


class TestShardExecution:
    def test_worker_exception_keeps_its_type(self):
        """A shard that raises in a worker re-raises in the coordinator as-is."""
        specs = [
            ShardSpec(
                shard_id=index,
                cluster_names=(f"cluster-{index}",),
                design=splitwise_hh(2, 1),
                model=LLAMA2_70B,
                cluster_kwargs=(),
                failures=(((1.0, f"cluster-{index}/no-such-machine"),),),
                sanitize=False,
            )
            for index in range(2)
        ]
        with pytest.raises(ValueError, match="no-such-machine"):
            execute_shards(specs, [[], []], use_processes=True)


class TestShardBoundaryEdgeCases:
    # Round-robin assignment over 4 clusters and 2 shards puts cluster-0/2
    # on shard 0 and cluster-1/3 on shard 1 — the pairs below always span
    # two engines.

    @pytest.mark.parametrize("seed", [1, 13])
    def test_failures_on_different_shards_same_epoch(self, seed):
        """Simultaneous injections on two shards."""
        # Fixed seeds chosen so the injections actually catch requests in
        # flight (restarts > 0) — the parity claim must not be vacuous.
        trace = _mixed_trace(seed, scale=1.0)
        failures = tuple(
            (time_s, f"cluster-{c}/prompt-0")
            for time_s in (5.0, 12.0, 20.0, 40.0)
            for c in (0, 1)
        )
        serial = _fleet().run(trace, failures=failures)
        result = _fleet(parallel=2).run(trace, failures=failures)
        assert _fingerprint(result) == _fingerprint(serial)
        _assert_census_closed(result, trace)
        assert any(r.restarts > 0 for r in result.requests)

    def test_outage_pair_spanning_epoch_boundary(self):
        """Failures at 4.9s and 5.1s, one on each of two shards."""
        trace = _mixed_trace(11)
        failures = (
            (4.9, "cluster-0/prompt-0"),
            (5.1, "cluster-1/prompt-0"),
        )
        serial = _fleet().run(trace, failures=failures)
        result = _fleet(parallel=2).run(trace, failures=failures)
        assert _fingerprint(result) == _fingerprint(serial)
        _assert_census_closed(result, trace)

    def test_failure_exactly_at_barrier_time(self):
        """An injection on one of four shards fires once, on its shard."""
        trace = _mixed_trace(13)
        failures = ((10.0, "cluster-3/token-0"),)
        serial = _fleet().run(trace, failures=failures)
        result = _fleet(parallel=4).run(trace, failures=failures)
        assert _fingerprint(result) == _fingerprint(serial)
        _assert_census_closed(result, trace)


class TestCoupledConfigurationFallback:
    def _storm_pair(self, parallel, **overrides):
        """The same failure-storm fleet run twice: serial vs parallel-requested."""
        results = []
        fleets = []
        for requested in (None, parallel):
            fleet, trace, failures = prepare_fleet_run(
                get_scenario("failure-storm"),
                clusters=2,
                burst_clusters=1,
                seed=5,
                scale=0.2,
                chaos="failure-storm",
                parallel=requested,
                **overrides,
            )
            results.append(fleet.run(trace, failures=failures))
            fleets.append(fleet)
        return fleets, results, trace

    def test_chaos_with_retries_and_hedges_falls_back_bit_identical(self):
        """Cross-shard retry/hedge coupling: the lifecycle layer re-routes
        attempts across clusters, so the run must refuse to shard — and the
        fallback must be byte-identical to a run that never asked."""
        (plain, requested), (serial, parallel), trace = self._storm_pair(
            parallel=4, retry_override=2, hedge_override=True
        )
        assert _fingerprint(parallel) == _fingerprint(serial)
        _assert_census_closed(parallel, trace)
        assert plain.parallel_info is None
        info = requested.parallel_info
        assert info == {
            "requested": 4,
            "mode": "serial",
            "workers": 0,
            "shards": 1,
            "reasons": info["reasons"],
        }
        reasons = " ".join(info["reasons"])
        assert "lifecycle" in reasons
        assert "fault plane" in reasons

    def test_cloud_burst_provisioner_falls_back_bit_identical(self):
        """A cloud-burst activating a standby mid-run reacts to fleet-wide
        pressure — undecomposable; the provisioner timeline must match the
        serial run exactly (it is part of the fingerprint's summary)."""
        results = []
        fleets = []
        for requested in (None, 4):
            fleet, trace, failures = prepare_fleet_run(
                get_scenario("mixed-tenant"),
                clusters=2,
                burst_clusters=1,
                seed=9,
                scale=0.5,
                chaos="none",
                burst=True,
                parallel=requested,
            )
            results.append(fleet.run(trace, failures=failures))
            fleets.append(fleet)
        serial, parallel = results
        assert _fingerprint(parallel) == _fingerprint(serial)
        _assert_census_closed(parallel, trace)
        assert parallel.provisioner is not None
        reasons = " ".join(fleets[1].parallel_info["reasons"])
        assert "provisioner" in reasons

    def test_observed_run_falls_back_with_identical_span_census(self):
        from repro.obs import ObservabilityConfig

        trace = _mixed_trace(4)
        observed = _fleet()
        plain_plane = observed.observe(ObservabilityConfig(interval_s=0.5))
        plain_result = observed.run(trace)

        requested = _fleet(parallel=2)
        parallel_plane = requested.observe(ObservabilityConfig(interval_s=0.5))
        parallel_result = requested.run(trace)

        assert _fingerprint(parallel_result) == _fingerprint(plain_result)
        reasons = " ".join(requested.parallel_info["reasons"])
        assert "observability" in reasons
        assert parallel_plane.census() == plain_plane.census()
        assert sum(parallel_plane.census().values()) == len(parallel_result.requests)

    def test_single_cluster_fleet_falls_back(self):
        trace = _mixed_trace(2, scale=0.3)
        fleet = _fleet(parallel=2, clusters=1)
        fleet.run(trace)
        reasons = " ".join(fleet.parallel_info["reasons"])
        assert "fewer than two clusters" in reasons

    def test_feedback_router_policy_falls_back(self):
        trace = _mixed_trace(2, scale=0.3)
        fleet = FleetSimulation(
            splitwise_hh(2, 1), num_clusters=2, router="slo-feedback", parallel=2
        )
        serial = FleetSimulation(splitwise_hh(2, 1), num_clusters=2, router="slo-feedback")
        assert _fingerprint(fleet.run(trace)) == _fingerprint(serial.run(trace))
        reasons = " ".join(fleet.parallel_info["reasons"])
        assert "slo-feedback" in reasons
