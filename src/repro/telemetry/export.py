"""Trace exporters: JSONL, Chrome ``trace_event`` format, human summary.

The on-disk interchange format is JSONL — one compact, key-sorted JSON
object per event::

    {"args":{"instance":"oddci-1"},"cat":"control","name":"wakeup","t":0.0}

Key-sorted compact serialisation makes equal event lists serialise to
equal bytes, which is what the runner's ``--jobs`` trace-parity test
asserts.  :func:`read_jsonl` inverts :func:`dumps_jsonl` exactly, and
:func:`chrome_trace` converts an event list to the Chrome/Perfetto
``trace_event`` JSON (open ``chrome://tracing`` or https://ui.perfetto.dev
and load the file).  Runner ``point_start`` markers partition the
timeline: each grid point becomes its own ``pid`` row group so the
per-point sim clocks (which all start near zero) do not overlap.

Run as a module for a quick look at a persisted trace::

    python -m repro.telemetry.export artifacts/a3/trace.jsonl
    python -m repro.telemetry.export trace.jsonl --chrome /tmp/chrome.json
"""

from __future__ import annotations

import json
from collections import Counter as _TallyCounter
from typing import Any, Dict, Iterable, List, Optional, TextIO

from repro.errors import ConfigurationError
from repro.telemetry.trace import CATEGORIES, TraceEvent

__all__ = [
    "event_to_obj",
    "obj_to_event",
    "dumps_jsonl",
    "read_jsonl",
    "chrome_trace",
    "write_chrome",
    "summarize",
    "main",
]


def event_to_obj(event: TraceEvent) -> Dict[str, Any]:
    time, category, name, fields = event
    return {"t": time, "cat": category, "name": name,
            "args": fields or {}}


def obj_to_event(obj: Dict[str, Any]) -> TraceEvent:
    try:
        return (obj["t"], obj["cat"], obj["name"], obj["args"] or None)
    except (KeyError, TypeError):
        raise ConfigurationError(f"malformed trace line: {obj!r}") from None


def dumps_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialise events as JSONL (one compact, key-sorted object/line)."""
    lines = [json.dumps(event_to_obj(ev), sort_keys=True,
                        separators=(",", ":"))
             for ev in events]
    return "\n".join(lines) + ("\n" if lines else "")


def read_jsonl(source: Iterable[str]) -> List[TraceEvent]:
    """Parse JSONL back to event tuples (inverse of :func:`dumps_jsonl`).

    ``source`` is any iterable of lines — an open file, or
    ``text.splitlines()``.
    """
    events: List[TraceEvent] = []
    for line in source:
        line = line.strip()
        if line:
            events.append(obj_to_event(json.loads(line)))
    return events


def chrome_trace(events: Iterable[TraceEvent]) -> Dict[str, Any]:
    """Convert events to the Chrome ``trace_event`` format.

    Every event becomes an instant (``ph="i"``, thread scope) with the
    sim time mapped to microseconds.  Categories map to ``tid`` rows;
    runner ``point_start`` markers advance the ``pid`` so each grid
    point gets its own process group in the viewer.
    """
    tids = {category: i for i, category in enumerate(CATEGORIES)}
    trace_events: List[Dict[str, Any]] = []
    pid = 0
    for time, category, name, fields in events:
        if category == "runner" and name == "point_start":
            pid += 1
        trace_events.append({
            "name": name,
            "cat": category,
            "ph": "i",
            "s": "t",
            "ts": time * 1e6,
            "pid": pid,
            "tid": tids.get(category, len(CATEGORIES)),
            "args": fields or {},
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome(events: Iterable[TraceEvent], fh: TextIO) -> None:
    json.dump(chrome_trace(events), fh, sort_keys=True)
    fh.write("\n")


def summarize(events: List[TraceEvent],
              metrics: Optional[Dict[str, Any]] = None,
              *, top: int = 12) -> str:
    """Human-readable digest of a trace (and optional metrics snapshot)."""
    out: List[str] = []
    if not events:
        out.append("trace: no events")
    else:
        times = [ev[0] for ev in events]
        out.append(f"trace: {len(events)} events, "
                   f"sim time {min(times):.6g}..{max(times):.6g}s")
        per_cat = _TallyCounter(ev[1] for ev in events)
        for category in CATEGORIES:
            if category in per_cat:
                out.append(f"  {category:<9} {per_cat[category]:>8}")
        tally = _TallyCounter((ev[1], ev[2]) for ev in events)
        out.append(f"top events (of {len(tally)} kinds):")
        for (category, name), n in tally.most_common(top):
            out.append(f"  {n:>8}  {category}/{name}")
    if metrics:
        counters = metrics.get("counters", {})
        gauges = metrics.get("gauges", {})
        histograms = metrics.get("histograms", {})
        out.append(f"metrics: {len(counters)} counters, {len(gauges)} "
                   f"gauges, {len(histograms)} histograms")
        for key, value in sorted(counters.items()):
            out.append(f"  {key} = {value}")
        for key, value in sorted(gauges.items()):
            out.append(f"  {key} = {value:g}")
        for key, snap in sorted(histograms.items()):
            mean = snap["total"] / snap["count"] if snap["count"] else 0.0
            out.append(f"  {key}: count={snap['count']} mean={mean:g}")
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.telemetry.export <trace.jsonl> [--chrome OUT]``"""
    import argparse
    import pathlib

    parser = argparse.ArgumentParser(
        prog="repro.telemetry.export",
        description="Summarise a trace.jsonl (optionally convert to "
                    "Chrome trace_event JSON)")
    parser.add_argument("trace", help="path to a trace.jsonl artifact")
    parser.add_argument("--chrome", metavar="OUT", default=None,
                        help="also write Chrome trace_event JSON to OUT")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="metrics.json to include in the summary "
                             "(defaults to the sibling metrics.json "
                             "when present)")
    args = parser.parse_args(argv)
    trace_path = pathlib.Path(args.trace)
    with trace_path.open() as fh:
        events = read_jsonl(fh)
    metrics = None
    metrics_path = (pathlib.Path(args.metrics) if args.metrics
                    else trace_path.with_name("metrics.json"))
    if metrics_path.exists():
        metrics = json.loads(metrics_path.read_text())
    print(summarize(events, metrics))
    if args.chrome:
        with open(args.chrome, "w") as fh:
            write_chrome(events, fh)
        print(f"[chrome trace written to {args.chrome}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
