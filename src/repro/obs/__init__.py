"""Opt-in observability plane: spans, metrics, and traces.

See ``docs/observability.md``.  Nothing in this package is imported by the
simulation layers unless a run opts in via ``FleetSimulation.observe`` —
observability off means observability unpaid.
"""

from repro.obs.metrics import (
    DEFAULT_TICK_INTERVAL_S,
    Histogram,
    MetricsRegistry,
    MetricsTicker,
    metric_key,
)
from repro.obs.perfetto import build_trace, export_trace, span_census, validate_trace
from repro.obs.plane import ObservabilityConfig, ObservabilityPlane
from repro.obs.spans import Span, SpanRecorder

__all__ = [
    "DEFAULT_TICK_INTERVAL_S",
    "Histogram",
    "MetricsRegistry",
    "MetricsTicker",
    "ObservabilityConfig",
    "ObservabilityPlane",
    "Span",
    "SpanRecorder",
    "build_trace",
    "export_trace",
    "metric_key",
    "span_census",
    "validate_trace",
]
