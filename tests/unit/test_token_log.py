"""Unit tests for the columnar token log and its request-side lazy views."""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.metrics.token_log import TokenLog, materialize_into, segment_token_count
from repro.simulation.request import Request
from repro.workload.trace import RequestDescriptor


def _request(request_id: int = 0, output_tokens: int = 5) -> Request:
    return Request(
        descriptor=RequestDescriptor(
            request_id=request_id, arrival_time_s=0.0, prompt_tokens=10, output_tokens=output_tokens
        )
    )


class TestMaterialize:
    def test_scalar_segments(self):
        times = array("d")
        materialize_into(times, [(0.5,), (0.75,)])
        assert list(times) == [0.5, 0.75]

    def test_contiguous_slice_segment(self):
        block = array("d", [0.1, 0.2, 0.3, 0.4])
        times = array("d")
        materialize_into(times, [(block, 1, 3)])
        assert list(times) == [0.2, 0.3]

    def test_gather_segment(self):
        block = array("d", [0.1, 0.2, 0.3, 0.4, 0.5])
        indices = array("q", [0, 2, 4])
        times = array("d")
        materialize_into(times, [(block, indices, 1, 3)])
        assert list(times) == [0.3, 0.5]

    def test_mixed_segments_in_order(self):
        block = array("d", [1.0, 2.0, 3.0])
        indices = array("q", [0, 2])
        times = array("d", [0.5])
        materialize_into(times, [(block, 0, 1), (block, indices, 1, 2), (2.5,)])
        assert list(times) == [0.5, 1.0, 3.0, 2.5]

    def test_values_are_bit_exact_copies(self):
        # Awkward floats survive the round trip exactly (memory moves only).
        values = [0.1 + 0.2, 1e-308, 1.7976931348623157e308, -0.0]
        block = array("d", values)
        times = array("d")
        materialize_into(times, [(block, 0, len(values))])
        assert times.tobytes() == block.tobytes()

    def test_segment_token_count(self):
        block = array("d", [1.0, 2.0])
        indices = array("q", [0, 1])
        assert segment_token_count((1.5,)) == 1
        assert segment_token_count((block, 0, 2)) == 2
        assert segment_token_count((block, indices, 1, 2)) == 1


class TestTokenLog:
    def test_timeline_blocks_are_per_machine_and_stable(self):
        log = TokenLog()
        first = log.timeline("m0")
        again = log.timeline("m0")
        other = log.timeline("m1")
        assert first is again
        assert first is not other
        assert log.machines() == ["m0", "m1"]

    def test_statistics(self):
        log = TokenLog()
        log.timeline("m0").append(1.0)
        log.timeline("m0").append(2.0)
        log.note_run_block(array("d", [3.0, 4.0, 5.0]))
        stats = log.as_dict()
        assert stats["machines"] == 1
        assert stats["boundaries_recorded"] == 2
        assert stats["run_blocks_recorded"] == 1


class TestRequestLazyViews:
    def test_token_times_materializes_tail_segment(self):
        request = _request()
        block = array("d", [0.1, 0.2, 0.3])
        request._tail_block = block
        request._tail_start = 0
        request._tail_count = 3
        request.generated_tokens = 3
        assert list(request.token_times) == [0.1, 0.2, 0.3]
        # Flushing is idempotent and the backing array is live.
        assert list(request.token_times) == [0.1, 0.2, 0.3]

    def test_token_times_materializes_index_column(self):
        request = _request()
        timeline = array("d", [0.1, 0.2, 0.3, 0.4])
        # An open tail first, then a gather segment over a numpy index buffer
        # (the rotation stepper's layout): the tail is sealed ahead of it.
        request._tail_block = timeline
        request._tail_start = 0
        request._tail_count = 1
        request._token_segments = None
        request._close_tail()
        request._token_segments.append((timeline, np.array([7, 1, 3, 9], dtype=np.int64), 1, 3))
        assert list(request.token_times) == [0.1, 0.2, 0.4]

    def test_token_intervals_vectorized_matches_scalar(self):
        request = _request(output_tokens=4)
        for time in (0.1, 0.2, 0.35, 0.45):
            request.generate_token(time)
        times = list(request.token_times)
        expected = [times[i] - times[i - 1] for i in range(1, len(times))]
        assert request.token_intervals == expected
        assert isinstance(request.token_intervals_np, np.ndarray)
        assert request.token_intervals_np.tolist() == expected

    def test_reset_for_restart_clears_columnar_state(self):
        request = _request()
        timeline = array("d", [0.5, 0.6])
        request._token_segments = [(timeline, array("q", [0]), 0, 1)]
        request._tail_block = timeline
        request._tail_start = 1
        request._tail_count = 1
        request.generated_tokens = 2
        request.reset_for_restart()
        assert request.generated_tokens == 0
        assert list(request.token_times) == []
        assert request._tail_block is None
        assert request.restarts == 1

    def test_direct_append_keeps_working(self):
        # Some tests drive requests manually and append to the live array.
        request = _request()
        request.token_times.append(0.25)
        assert list(request.token_times) == [0.25]

    def test_completed_request_cannot_generate(self):
        request = _request(output_tokens=1)
        request.finish_prompt(0.2)
        assert request.is_complete
        with pytest.raises(RuntimeError):
            request.generate_token(0.3)
