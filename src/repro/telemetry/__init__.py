"""Telemetry: structured tracing, metrics registry, trace exporters.

The observability counterpart of the event-tier fast path (DESIGN.md
§8) and the artifact store: every layer of the stack — sim kernel,
carousel, Controller, PNAs, Backend, experiment runner — emits typed,
sim-clock-stamped events into a :class:`~repro.telemetry.trace.Tracer`
and counts into a :class:`~repro.telemetry.metrics.MetricsRegistry`,
**only** when tracing is enabled: the disabled path is a single
truthiness check per call site (see DESIGN.md §9 for the overhead
protocol).

End-to-end: ``python -m repro <experiment> --trace[=categories]``
activates a tracer around every grid point; the artifact store then
persists ``trace.jsonl`` and ``metrics.json`` next to ``records.json``,
byte-identical for any ``--jobs`` value.  Inspect with::

    python -m repro.telemetry.export artifacts/a3/trace.jsonl
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    series_key,
)
from repro.telemetry.trace import (
    CATEGORIES,
    DEFAULT_CATEGORIES,
    TraceChannel,
    Tracer,
    active,
    channel,
    current,
    parse_categories,
)
# Exporters live in repro.telemetry.export — deliberately NOT imported
# here so ``python -m repro.telemetry.export`` runs without the
# found-in-sys.modules runpy warning.

__all__ = [
    "CATEGORIES", "DEFAULT_CATEGORIES", "Tracer", "TraceChannel",
    "parse_categories", "current", "channel",
    "active",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "merge_snapshots", "series_key",
]
