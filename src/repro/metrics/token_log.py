"""Columnar service log for per-token telemetry.

The paper's cluster-scale evaluations (Table VI SLOs, the power/throughput
sweeps) only ever consume *aggregate* token-latency distributions, yet the
simulator used to record telemetry row-by-row: one Python-level
``array.append`` per generated token per request, ~4.5M appends per perf
scenario.  The :class:`TokenLog` turns that recording columnar:

* every machine owns one **timeline block** — a packed ``array('d')`` of the
  iteration-boundary timestamps at which it generated tokens, appended once
  per iteration instead of once per (iteration x batched request);
* requests do not copy timestamps at all.  They hold *segments*: compact
  references into the blocks describing which boundaries produced their
  tokens.  A segment is appended once per coalesced decode run or rotation
  service run, not once per token;
* ``Request.token_times`` inverts the segments into the legacy packed array
  lazily, on first observation, reproducing the per-token recording
  **bit-for-bit** (segments store references to the exact floats the event
  clock produced — nothing is recomputed).

Segment encoding (plain tuples, discriminated by arity):

``(time,)``
    A single scalar timestamp (manual ``generate_token`` calls, prompt-phase
    first tokens recorded before any block exists).
``(block, start, stop)``
    A contiguous slice ``block[start:stop]`` — decode fast-forward runs
    reference their precomputed boundary series directly, and per-iteration
    stepping coalesces consecutive services on one machine into one slice.
``(block, indices, start, stop)``
    A gather: ``block[indices[start:stop]]`` with ``indices`` an int64
    buffer of boundary positions — the rotation stepper's service-index
    buffer (see :mod:`repro.batching.rotation`), where each member owns a
    region, so a request serviced fifty times while it rotated costs one
    4-tuple, written when it leaves the stepper.

Materialization is numpy-backed: blocks are viewed zero-copy with
``np.frombuffer`` and slices/gathers are copied out with C-level memory
moves.  The views are transient — they must not outlive the materialization
call, because an exported buffer would block further appends to the block.
"""

from __future__ import annotations

from array import array
from typing import Iterable

import numpy as np

__all__ = ["TokenLog", "materialize_into", "segment_token_count"]


def segment_token_count(segment: tuple) -> int:
    """Number of token timestamps a segment describes."""
    arity = len(segment)
    if arity == 3:
        return segment[2] - segment[1]
    if arity == 4:
        return segment[3] - segment[2]
    return 1


def materialize_into(times: array, segments: Iterable[tuple]) -> None:
    """Append the timestamps described by ``segments`` onto ``times`` in order.

    Bit-for-bit faithful: every value written is a memory copy of a float the
    simulator's event clock produced — slices and gathers move bytes, never
    recompute.  numpy buffer views created here are transient (dropped before
    returning) so the source blocks stay appendable.
    """
    for segment in segments:
        arity = len(segment)
        if arity == 3:
            block, start, stop = segment
            if stop > start:
                times.frombytes(memoryview(block).cast("B")[8 * start : 8 * stop])
        elif arity == 4:
            block, indices, start, stop = segment
            if stop > start:
                gathered = np.frombuffer(block)[np.frombuffer(indices, dtype=np.int64)[start:stop]]
                times.frombytes(gathered.tobytes())
        else:
            times.append(segment[0])


class TokenLog:
    """Registry of per-machine timeline blocks plus recording statistics.

    One log is owned by each :class:`~repro.metrics.collectors.MetricsCollector`
    (i.e. one per cluster, shared by a fleet's member clusters exactly as the
    collector is).  Machines obtain their timeline block once at construction;
    the block object itself is what request segments reference, so
    materialization never goes through the log.
    """

    __slots__ = ("_timelines", "_extra_blocks")

    def __init__(self) -> None:
        self._timelines: dict[str, array] = {}
        self._extra_blocks = 0

    def timeline(self, machine: str) -> array:
        """The machine's boundary-timestamp block (created on first use)."""
        block = self._timelines.get(machine)
        if block is None:
            block = self._timelines[machine] = array("d")
        return block

    def note_run_block(self, block: array) -> array:
        """Register an externally built block (a fast-forward boundary series).

        The log only counts it — segments reference the block object directly.
        """
        self._extra_blocks += 1
        return block

    def machines(self) -> list[str]:
        """Machines that requested a timeline, sorted."""
        return sorted(self._timelines)

    def boundaries_recorded(self) -> int:
        """Total iteration boundaries recorded across all machine timelines."""
        return sum(len(block) for block in self._timelines.values())

    def run_blocks_recorded(self) -> int:
        """Fast-forward boundary blocks registered via :meth:`note_run_block`."""
        return self._extra_blocks

    def as_dict(self) -> dict:
        """JSON-friendly recording statistics (introspection, docs, tests)."""
        return {
            "machines": len(self._timelines),
            "boundaries_recorded": self.boundaries_recorded(),
            "run_blocks_recorded": self._extra_blocks,
        }
