"""Unit tests for the steady-state rotation stepper (`repro.batching.rotation`).

The stepper must reproduce the flat ``(-priority_boost, arrival, id)`` order
exactly through any sequence of selections, services, aging passes,
admissions, and flattenings — the machine-level parity tests in
``tests/property/test_accounting_invariants.py`` and
``tests/unit/test_machine.py::TestRotationParityProperty`` exercise it
end-to-end; these tests pin the structural invariants directly.
"""

from __future__ import annotations

import random
from array import array

from repro.batching.policies import priority_key
from repro.batching.rotation import RotationForest
from repro.simulation.request import Request, RequestPhase
from repro.workload.trace import RequestDescriptor

BIG_BUDGET = 10**9


def _request(request_id: int, arrival: float, boost: float = 0.0, prompt: int = 100, output: int = 50) -> Request:
    request = Request(
        descriptor=RequestDescriptor(
            request_id=request_id, arrival_time_s=arrival, prompt_tokens=prompt, output_tokens=output
        )
    )
    request.priority_boost = boost
    return request


def _ordered_pool(count: int, rng: random.Random, outputs: tuple[int, int] = (5, 60)) -> list[Request]:
    pool = [
        _request(i, arrival=rng.random() * 10.0, boost=float(rng.randrange(4)), output=rng.randrange(*outputs))
        for i in range(count)
    ]
    pool.sort(key=priority_key)
    return pool


def _state(forest: RotationForest) -> tuple:
    n = forest.size
    columns = tuple(getattr(forest, name)[:n].tolist() for name in ("key", "ctx", "wptr", "end", "mark"))
    return (n, forest.dead, forest.offset, forest.used, list(forest.members), list(forest.order), columns)


class _FlatReference:
    """The per-iteration semantics on a plain list: select the priority
    prefix, serve it, complete finished members, boost everyone skipped."""

    def __init__(self, pool: list[Request]) -> None:
        self.boost = {r.request_id: r.priority_boost for r in pool}
        self.remaining = {r.request_id: r.output_tokens - r.generated_tokens for r in pool}
        self.requests = {r.request_id: r for r in pool}

    def order(self) -> list[int]:
        return sorted(
            self.boost,
            key=lambda i: (-self.boost[i], self.requests[i].arrival_time, i),
        )

    def admit(self, request: Request, boost: float) -> None:
        self.boost[request.request_id] = boost
        self.remaining[request.request_id] = request.output_tokens - request.generated_tokens
        self.requests[request.request_id] = request

    def step(self, batch: int) -> tuple[list[int], list[tuple[int, float]]]:
        selected = self.order()[:batch]
        completed = []
        for request_id in selected:
            self.remaining[request_id] -= 1
            if self.remaining[request_id] == 0:
                completed.append((request_id, self.boost[request_id]))
        for request_id, _ in completed:
            del self.boost[request_id], self.remaining[request_id]
        chosen = set(selected)
        for request_id in self.boost:
            if request_id not in chosen:
                self.boost[request_id] += 1.0
        return selected, completed


def _step(forest: RotationForest, timeline: array, batch: int, now: float) -> tuple[list[int], list[Request]]:
    """One rotation iteration the way the machine drives it."""
    rows, _ = forest.select(batch, BIG_BUDGET)
    selected = [r.request_id for r in forest.requests(rows)]
    timeline.append(now)
    completed_rows = forest.service(rows, len(timeline) - 1)
    completed = [forest.complete(row, now) for row in completed_rows.tolist()]
    forest.commit_aging(rows, completed_rows)
    return selected, completed


class TestRotationForest:
    def test_flatten_roundtrips_the_view(self):
        rng = random.Random(1)
        pool = _ordered_pool(50, rng)
        forest = RotationForest.from_ordered_view(pool, array("d"))
        assert forest is not None
        assert forest.total_size() == 50
        assert forest.flatten() == pool

    def test_non_integer_boosts_are_rejected(self):
        pool = [_request(0, 1.0, boost=0.5)]
        assert RotationForest.from_ordered_view(pool, array("d")) is None

    def test_selection_is_the_view_prefix(self):
        rng = random.Random(2)
        pool = _ordered_pool(40, rng)
        forest = RotationForest.from_ordered_view(pool, array("d"))
        rows, context = forest.select(16, BIG_BUDGET)
        assert forest.requests(rows) == pool[:16]
        assert context == sum(r.prompt_tokens + r.generated_tokens for r in pool[:16])

    def test_selection_respects_kv_budget(self):
        pool = _ordered_pool(10, random.Random(3))
        forest = RotationForest.from_ordered_view(pool, array("d"))
        before = _state(forest)
        # A budget below the prefix context forces the policy's skip logic,
        # which the stepper cannot reproduce: it must decline and leave its
        # state untouched for the exact fallback path.
        assert forest.select(8, 1) is None
        assert _state(forest) == before
        assert forest.flatten() == pool

    def test_aging_matches_flat_semantics(self):
        """Selection + service + aging over the stepper == the same over a flat list."""
        rng = random.Random(4)
        pool = _ordered_pool(30, rng)
        reference = _FlatReference(pool)
        timeline = array("d")
        forest = RotationForest.from_ordered_view(pool, timeline)
        batch = 8
        for iteration in range(25):
            selected, completed = _step(forest, timeline, batch, now=float(iteration))
            expected_selected, expected_completed = reference.step(batch)
            assert selected == expected_selected
            assert [(r.request_id, r.priority_boost) for r in completed] == expected_completed
        flat = forest.flatten()
        assert [r.request_id for r in flat] == reference.order()
        for request in flat:
            assert request.priority_boost == reference.boost[request.request_id]

    def test_insert_keeps_order(self):
        rng = random.Random(5)
        pool = _ordered_pool(20, rng)
        forest = RotationForest.from_ordered_view(pool, array("d"))
        newcomer = _request(1000, arrival=rng.random() * 10.0, boost=0.0)
        forest.insert(newcomer)
        flat = forest.flatten()
        assert len(flat) == 21
        assert [priority_key(r) for r in flat] == sorted(priority_key(r) for r in flat)

    def test_out_of_order_admissions_mid_rotation(self):
        """Admissions that sort before existing members (earlier arrival, or
        a higher boost) land at their exact flat-view position, also while a
        selection is in flight, and the buffer re-base keeps recording exact."""
        rng = random.Random(6)
        pool = _ordered_pool(24, rng, outputs=(20, 80))
        reference = _FlatReference(pool)
        timeline = array("d")
        forest = RotationForest.from_ordered_view(pool, timeline)
        batch = 6
        next_id = 100
        first_buffer = forest.buf
        for iteration in range(80):
            rows, _ = forest.select(batch, BIG_BUDGET)
            if iteration % 2 == 0:
                # Mid-iteration admission: not part of the in-flight batch.
                newcomer = _request(
                    next_id, arrival=rng.random() * 10.0, boost=float(rng.randrange(6)), output=rng.randrange(1, 90)
                )
                next_id += 1
                forest.insert(newcomer)
            selected = [r.request_id for r in forest.requests(rows)]
            expected_selected, expected_completed = reference.step(batch)
            assert selected == expected_selected
            timeline.append(float(iteration))
            completed_rows = forest.service(rows, len(timeline) - 1)
            completed = [forest.complete(row, float(iteration)) for row in completed_rows.tolist()]
            forest.commit_aging(rows, completed_rows)
            assert [(r.request_id, r.priority_boost) for r in completed] == expected_completed
            if iteration % 2 == 0:
                # The reference admits after its aging pass, at boost + 1
                # (the newcomer was skipped by the iteration it landed in).
                reference.admit(newcomer, newcomer.priority_boost + 1.0)
        assert forest.buf is not first_buffer  # the admissions outgrew the buffer
        flat = forest.flatten()
        assert [r.request_id for r in flat] == reference.order()
        for request in flat:
            assert request.priority_boost == reference.boost[request.request_id]
            # Every recorded token time is the boundary of an iteration the
            # member was served in, and the count matches its progress.
            times = list(request.token_times)
            assert len(times) == request.generated_tokens
            assert times == sorted(times) and set(times) <= set(timeline)

    def test_several_completions_fire_in_priority_order(self):
        """Members finishing at the same boundary complete in priority order,
        wherever their rows sit."""
        rng = random.Random(7)
        pool = [
            _request(i, arrival=rng.random(), boost=float(i % 3), output=1 if i % 2 else 40)
            for i in range(12)
        ]
        pool.sort(key=priority_key)
        timeline = array("d", [0.0])
        forest = RotationForest.from_ordered_view(pool, timeline)
        # An admission that sorts first shifts every rank.
        first = _request(50, arrival=0.0, boost=5.0, output=1)
        forest.insert(first)
        rows, _ = forest.select(10, BIG_BUDGET)
        batch = forest.requests(rows)
        assert batch == sorted([first, *pool], key=priority_key)[:10]
        completed_rows = forest.service(rows, 0)
        completed = [forest.complete(row, 0.0) for row in completed_rows.tolist()]
        assert completed == [r for r in batch if r.output_tokens == 1]
        assert len(completed) > 1
        for request in completed:
            assert request.phase is RequestPhase.COMPLETED
            assert request.completion_time == 0.0
            assert request.generated_tokens == 1
            assert list(request.token_times) == [0.0]
        forest.commit_aging(rows, completed_rows)
        assert forest.total_size() == 13 - len(completed)
        assert not {id(r) for r in completed} & {id(r) for r in forest.flatten()}
