"""Steady-state decode rotation: an oversubscribed token pool as numpy slot arrays.

When a machine's token pool holds more requests than fit one decode batch,
the batching policy selects the first ``max_batch_size`` requests in priority
order ``(-priority_boost, arrival_time, request_id)`` and the aging pass
boosts everyone left out (§IV-B), producing a fair round-robin rotation.
Doing that per member in Python costs O(pool) interpreter work per iteration,
which made saturated drains the hottest loop in the simulator.

:class:`RotationForest` holds the pool as one row per member in parallel
numpy arrays, so one iteration is a fixed handful of vectorized operations:

* ``key`` — an int64 composite priority key, ``high * STEP + rank``.  The
  high part is the member's boost relative to a stepper-wide ``offset``
  (negated, so smaller keys run first: effective boost ``offset - high``);
  ``rank`` is the member's position in ``(arrival_time, request_id)`` order
  among everyone admitted to the stepper.  **Selection** is one
  ``np.argpartition`` over the keys (then an argsort of the batch, for
  priority order).  **Aging** — everyone not selected gains +1 — is
  ``offset += 1`` plus ``key[selected] += STEP``: O(batch).  An admission
  takes its rank by bisection into the sorted ``(arrival, id)`` list; when
  it does not sort last, the members ranked after it shift up by one.
* ``ctx`` — the member's KV context (prompt + generated tokens), so the
  batch context the latency model reads is an exact integer sum.
* ``wptr``/``end`` — every member owns a region of the stepper's service
  index buffer ``buf``, sized to its outstanding tokens.  **Recording** a
  boundary scatters the boundary's timeline position into the regions of
  the batch (``buf[wptr[sel]] = index; wptr[sel] += 1``), and a member
  **completes** when its write pointer reaches its region's end.
* ``mark`` — where the region's not-yet-sealed part starts.

Request objects are not touched while they rotate.  A member's service
indices are copied into its token segments as one gather segment (see
:mod:`repro.metrics.token_log`), and
its ``generated_tokens``, phase and float ``priority_boost`` are settled,
when it leaves the stepper (:meth:`complete`, :meth:`flatten` on exit) or
when a reader needs settled state mid-rotation (:meth:`flatten` for the
accounting cross-check; a full buffer is re-based the same way).

Completed rows are tombstoned with a maximal key (they can never be
selected while the pool outnumbers the batch) and compacted away at an
aging commit once they are a quarter of the rows, so row indices held by an
in-flight selection stay valid until its iteration ends.
"""

from __future__ import annotations

from array import array
from bisect import bisect
from itertools import compress
from typing import Iterable

import numpy as np

from repro.simulation.request import Request, RequestPhase

#: Key stride of one boost level; ranks occupy the low 32 bits.
STEP = 1 << 32
_RANK_MASK = STEP - 1

#: Key of a tombstoned (completed) row: sorts after every live member.
_DEAD = np.iinfo(np.int64).max

_NO_ROWS = np.empty(0, dtype=np.int64)

_COMPLETED = RequestPhase.COMPLETED
_TOKEN_RUNNING = RequestPhase.TOKEN_RUNNING


class RotationForest:
    """Priority-ordered token pool with vectorized selection, service and aging.

    Args:
        timeline: The machine's boundary-timestamp block; the service index
            buffer holds positions into it.
        capacity: Initial row capacity (grown by doubling; at least 1).
    """

    __slots__ = (
        "timeline",
        "members",
        "size",
        "dead",
        "offset",
        "key",
        "ctx",
        "wptr",
        "end",
        "mark",
        "buf",
        "used",
        "order",
    )

    def __init__(self, timeline: array, capacity: int) -> None:
        self.timeline = timeline
        self.members: list = []
        self.size = 0  # rows in use, tombstones included
        self.dead = 0
        self.offset = 0
        self.key = np.empty(capacity, dtype=np.int64)
        self.ctx = np.empty(capacity, dtype=np.int64)
        self.wptr = np.empty(capacity, dtype=np.int64)
        self.end = np.empty(capacity, dtype=np.int64)
        self.mark = np.empty(capacity, dtype=np.int64)
        self.buf = _NO_ROWS
        self.used = 0
        #: ``(arrival_time, request_id)`` of everyone admitted, sorted: a
        #: member's rank is its position here.
        self.order: list[tuple[float, int]] = []

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_ordered_view(cls, view: Iterable, timeline: array) -> "RotationForest | None":
        """Build a stepper from a ``(-boost, arrival, id)``-ordered pool view.

        Returns ``None`` if any boost is not integer-valued (aging only ever
        adds 1.0, so non-integer boosts mean an external writer is involved
        and the flat representation must be kept).  Members are settled at
        entry (every stepper exit settles them), so plain attribute reads are
        exact here.
        """
        members = list(view)
        boosts = [request.priority_boost for request in members]
        if not all(float(boost).is_integer() for boost in boosts):
            return None
        n = len(members)
        forest = cls(timeline, max(2 * n, 16))
        forest.members = members
        forest.size = n
        sort_keys = [(request.arrival_time, request.request_id) for request in members]
        forest.order = sorted(sort_keys)
        rank = {sort_key: position for position, sort_key in enumerate(forest.order)}
        forest.ctx[:n] = [request.prompt_tokens + request.generated_tokens for request in members]
        remaining = np.array(
            [request.output_tokens - request.generated_tokens for request in members], dtype=np.int64
        )
        forest._assign_regions(remaining, 0)
        forest.key[:n] = np.array(boosts, dtype=np.int64) * -STEP + [rank[k] for k in sort_keys]
        return forest

    def _assign_regions(self, remaining: np.ndarray, reserve: int) -> None:
        """Give rows ``[0, len(remaining))`` fresh buffer regions in a new buffer
        with room for ``reserve`` more tokens (and as much again to grow)."""
        n = len(remaining)
        ends = np.cumsum(remaining)
        used = int(ends[-1]) if n else 0
        self.buf = np.empty(2 * (used + reserve) + 64, dtype=np.int64)
        self.used = used
        self.end[:n] = ends
        self.wptr[:n] = ends - remaining
        self.mark[:n] = self.wptr[:n]

    # -- selection ------------------------------------------------------------------

    def select(self, limit: int, kv_budget: int) -> tuple[np.ndarray, int] | None:
        """The rows of the first ``limit`` members in priority order, and their
        total context.

        Returns ``None``, changing nothing, when that context exceeds
        ``kv_budget``: the policy would skip a member there, so the caller
        falls back to the exact policy path for that iteration.  The pool
        must hold more live members than ``limit`` (the rotation regime), so
        tombstoned rows are never selected.
        """
        if limit <= 0:
            return _NO_ROWS, 0
        key = self.key[: self.size]
        batch = key.argpartition(limit - 1)[:limit]
        rows = batch[key[batch].argsort()]
        context = int(self.ctx[rows].sum())
        if context > kv_budget:
            return None
        return rows, context

    def requests(self, rows: np.ndarray) -> list:
        """The members at ``rows``, in that order."""
        members = self.members
        return [members[row] for row in rows.tolist()]

    # -- service --------------------------------------------------------------------

    def service(self, rows: np.ndarray, index: int) -> np.ndarray:
        """Record one token for every member at ``rows`` at timeline position
        ``index``; return the rows that completed, in ``rows`` order."""
        wptr = self.wptr
        written = wptr[rows]
        self.buf[written] = index
        written += 1
        wptr[rows] = written
        self.ctx[rows] += 1
        return rows[written == self.end[rows]]

    def complete(self, row: int, now: float) -> Request:
        """Settle the completed member at ``row`` (the aging commit removes it)."""
        request = self._seal(row)
        request.phase = _COMPLETED
        request.completion_time = now
        request.priority_boost = float(self.offset - int(self.key[row]) // STEP)
        return request

    def _seal(self, row: int) -> Request:
        """Write the member's unsealed services as a gather segment and catch its
        generated count and phase up."""
        request = self.members[row]
        start = int(self.mark[row])
        stop = int(self.wptr[row])
        if stop > start:
            request._close_tail()
            segments = request._token_segments
            if segments is None:
                segments = request._token_segments = []
            # An owned copy: the buffer is freed when the stepper exits
            # instead of living on, slack included, in finished requests.
            segments.append((self.timeline, self.buf[start:stop].copy(), 0, stop - start))
            request.generated_tokens += stop - start
            request.phase = _TOKEN_RUNNING
            self.mark[row] = stop
        return request

    # -- aging ----------------------------------------------------------------------

    def commit_aging(self, rows: np.ndarray, completed: np.ndarray) -> None:
        """Apply one aging pass after the iteration that served ``rows``.

        Everyone not selected gains +1 boost, done relatively: the offset
        rises by one and the selected rows step one level down, keeping their
        effective boost.  The ``completed`` rows leave the pool.
        """
        self.offset += 1
        self.key[rows] += STEP
        if len(completed):
            self.key[completed] = _DEAD
            self.dead += len(completed)
            if 4 * self.dead > self.size:
                self._compact()

    def _compact(self) -> None:
        """Drop tombstoned rows (between iterations only: rows renumber)."""
        n = self.size
        live = self.key[:n] != _DEAD
        m = n - self.dead
        for column in (self.key, self.ctx, self.wptr, self.end, self.mark):
            column[:m] = column[:n][live]
        self.members = list(compress(self.members, live.tolist()))
        self.size = m
        self.dead = 0

    # -- membership -----------------------------------------------------------------

    def insert(self, request: Request) -> None:
        """Add a newly admitted member at its current (integer) boost.

        The newcomer is settled (it was just admitted), so plain attribute
        reads are exact.  Rows of an in-flight selection keep their indices.
        """
        n = self.size
        if n == len(self.key):
            self._grow_rows()
        remaining = request.output_tokens - request.generated_tokens
        if self.used + remaining > len(self.buf):
            self._rebase(remaining)
        start = self.used
        self.used = start + remaining
        sort_key = (request.arrival_time, request.request_id)
        order = self.order
        rank = bisect(order, sort_key)
        if rank < len(order):
            key = self.key[:n]
            shift = (key & _RANK_MASK) >= rank
            shift &= key != _DEAD
            key += shift
        order.insert(rank, sort_key)
        self.members.append(request)
        self.key[n] = (self.offset - int(request.priority_boost)) * STEP + rank
        self.ctx[n] = request.prompt_tokens + request.generated_tokens
        self.wptr[n] = self.mark[n] = start
        self.end[n] = start + remaining
        self.size = n + 1

    def _grow_rows(self) -> None:
        for name in ("key", "ctx", "wptr", "end", "mark"):
            column = getattr(self, name)
            grown = np.empty(2 * len(column), dtype=column.dtype)
            grown[: len(column)] = column
            setattr(self, name, grown)

    def _rebase(self, reserve: int) -> None:
        """Move every live member's outstanding region into a fresh buffer.

        Sealed first, so nothing is left in the old buffer; rows are not
        renumbered (tombstones, being complete, get empty regions).
        """
        self._seal_live()
        n = self.size
        self._assign_regions(self.end[:n] - self.wptr[:n], reserve)

    # -- materialization ------------------------------------------------------------

    def _seal_live(self) -> list:
        """Seal every live member; return the live rows in priority order."""
        n = self.size
        order = np.argsort(self.key[:n])[: n - self.dead].tolist()
        for row in order:
            self._seal(row)
        return order

    def flatten(self) -> list:
        """The pool in exact flat-view order, settled, with float boosts written back.

        Safe at any instant (rows are not renumbered, so an in-flight
        selection stays valid); the machine calls it on exit and for the
        accounting cross-check.
        """
        order = self._seal_live()
        members = self.members
        offset = self.offset
        highs = (self.key[order] // STEP).tolist()
        flat = []
        for row, high in zip(order, highs):
            request = members[row]
            request.priority_boost = float(offset - high)
            flat.append(request)
        return flat

    def total_size(self) -> int:
        """Live member count (for cross-checks)."""
        return self.size - self.dead
