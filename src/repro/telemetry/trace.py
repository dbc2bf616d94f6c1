"""Sim-clock-stamped structured tracing with per-category enablement.

A :class:`Tracer` collects typed trace events — plain ``(time,
category, name, fields)`` tuples — from every layer of the stack.
Categories (:data:`CATEGORIES`) map one-to-one onto layers:

========== ====================================================
category   events
========== ====================================================
kernel     DES event dispatch, fast-path calendar hits, timer-wheel
           flushes (opt-in: per-dispatch volume)
net        link/broadcast message drops — lost unicast transfers,
           down-link refusals, broadcast-outage losses (opt-in:
           per-message volume under heavy loss)
carousel   cycle boundaries, fast-forward park/wake/replay, per-file
           ``transmit_at`` grid anchors, interruption gaps
control    Controller wakeup/reset publishes, heartbeat batch
           consolidation, maintenance rounds, rebalances
pna        PNA state transitions (accept/idle/online/offline)
backend    Backend task lifecycle (dispatch/complete/requeue)
fault      fault-plan injections and restores, recovery milestones
           (checkpoint/restore, MTTR, deferred control traffic)
serve      service-tier request lifecycle (arrival, admission,
           rejection, pool hit/miss, ready, completion)
vector     vector-tier job lifecycle (submit, recruit, outage
           windows, census epochs, finish) — array-reduction
           summaries, never per-node volume
runner     experiment-runner markers (run/point boundaries)
========== ====================================================

Hot-path contract
-----------------
Instrumented components resolve their channel **once** at construction
time::

    self._trace = trace.channel("pna")    # None when tracing is off

and guard every emit with a single truthiness check::

    t = self._trace
    if t is not None:
        t.emit(self.sim.now, "accept", instance=instance_id)

With no tracer installed — the default — ``channel()`` returns ``None``
and the per-event cost is one attribute load plus one ``is not None``
test.  The kernel microbench guards this at <= ~3% overhead
(``benchmarks/test_telemetry_overhead.py``).

Determinism
-----------
Event timestamps are simulated time and every field a call site emits
is plain deterministic data (ids, names, counts) — never wall-clock
times or object reprs.  A traced run therefore produces byte-identical
``trace.jsonl`` for any ``--jobs`` value, the same contract records
obey.  The optional ring buffer (``ring=N``) keeps the newest N events
and counts the discarded ones, which is equally deterministic.

Installation is process-global (:func:`install` / :func:`uninstall` or
the :func:`active` context manager): the runner activates a fresh
tracer around each grid point, so every component built inside the
point picks the channels up without any constructor plumbing.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "CATEGORIES",
    "DEFAULT_CATEGORIES",
    "TraceEvent",
    "TraceChannel",
    "Tracer",
    "parse_categories",
    "install",
    "uninstall",
    "current",
    "channel",
    "metrics_registry",
    "active",
]

#: Every known trace category, in canonical order.
CATEGORIES: Tuple[str, ...] = (
    "kernel", "net", "carousel", "control", "pna", "backend", "fault",
    "serve", "vector", "runner")

#: Enabled by a bare ``--trace``: everything except the per-dispatch
#: ``kernel`` firehose and the per-message ``net`` drop log (opt in
#: with ``--trace=all`` or an explicit list).
DEFAULT_CATEGORIES: Tuple[str, ...] = (
    "carousel", "control", "pna", "backend", "fault", "serve", "vector",
    "runner")

#: One trace event: (sim_time, category, name, fields-or-None).
TraceEvent = Tuple[float, str, str, Optional[Dict[str, Any]]]


def parse_categories(
    spec: Union[None, str, Iterable[str]]) -> Tuple[str, ...]:
    """Resolve a ``--trace[=...]`` spec to a canonical category tuple.

    ``None`` / ``"default"`` → :data:`DEFAULT_CATEGORIES`; ``"all"`` →
    :data:`CATEGORIES`; otherwise a comma-separated string (or iterable)
    of category names, validated and returned in canonical order.
    """
    if spec is None or spec == "default":
        return DEFAULT_CATEGORIES
    if spec == "all":
        return CATEGORIES
    if isinstance(spec, str):
        names = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        names = list(spec)
    unknown = [n for n in names if n not in CATEGORIES]
    if unknown or not names:
        raise ConfigurationError(
            f"unknown trace categories {unknown or spec!r}; "
            f"choose from {', '.join(CATEGORIES)} (or 'all'/'default')")
    chosen = set(names)
    return tuple(c for c in CATEGORIES if c in chosen)


class TraceChannel:
    """One category's emit surface, plus shortcuts into the registry.

    A channel only exists for *enabled* categories — call sites that
    hold ``None`` instead are tracing-disabled and skip all work.
    """

    __slots__ = ("category", "tracer", "_append")

    def __init__(self, tracer: "Tracer", category: str) -> None:
        self.category = category
        self.tracer = tracer
        self._append = tracer._append

    def emit(self, time: float, name: str, **fields: Any) -> None:
        """Record one event.  ``fields`` must be JSON-plain deterministic
        values (strings, numbers, bools) — never object reprs or wall
        times, which would break the ``--jobs`` byte-parity contract."""
        self._append((time, self.category, name, fields or None))

    # -- registry shortcuts (construction-time, not hot) ---------------
    def counter(self, name: str, **labels: Any) -> Counter:
        return self.tracer.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.tracer.metrics.gauge(name, **labels)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        return self.tracer.metrics.histogram(name, buckets, **labels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TraceChannel {self.category!r}>"


class Tracer:
    """Collects trace events and owns a :class:`MetricsRegistry`.

    Parameters
    ----------
    categories:
        Enabled categories (a spec accepted by :func:`parse_categories`).
    ring:
        Optional ring-buffer cap: keep only the newest ``ring`` events,
        counting the discarded ones in :attr:`dropped`.  ``None`` means
        unbounded.
    metrics:
        Optional externally owned registry (defaults to a fresh one).
    """

    def __init__(
        self,
        categories: Union[None, str, Iterable[str]] = None,
        *,
        ring: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if ring is not None and ring <= 0:
            raise ConfigurationError(f"ring must be > 0 or None, got {ring}")
        self.categories = parse_categories(categories)
        self.ring = ring
        self.metrics = metrics or MetricsRegistry()
        self.emitted = 0
        self._events: Any = deque(maxlen=ring) if ring else []
        self._channels: Dict[str, TraceChannel] = {
            c: TraceChannel(self, c) for c in self.categories}

    def _append(self, event: TraceEvent) -> None:
        self.emitted += 1
        self._events.append(event)

    # -- inspection ------------------------------------------------------
    def channel(self, category: str) -> Optional[TraceChannel]:
        """The category's channel, or ``None`` when it is disabled."""
        return self._channels.get(category)

    @property
    def dropped(self) -> int:
        """Events discarded by the ring buffer."""
        return self.emitted - len(self._events)

    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first (a fresh list)."""
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        # An empty tracer is still a tracer: ``if tracer:`` must not
        # read as "no tracer" just because nothing was emitted yet.
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Tracer cats={','.join(self.categories)} "
                f"events={len(self._events)} dropped={self.dropped}>")


#: The process-global tracer components consult at construction time.
_CURRENT: Optional[Tracer] = None


def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the ambient tracer for newly built components."""
    global _CURRENT
    if not isinstance(tracer, Tracer):
        raise ConfigurationError(f"expected a Tracer, got {tracer!r}")
    _CURRENT = tracer
    return tracer


def uninstall() -> None:
    """Remove the ambient tracer (components built later are untraced)."""
    global _CURRENT
    _CURRENT = None


def current() -> Optional[Tracer]:
    return _CURRENT


def channel(category: str) -> Optional[TraceChannel]:
    """The ambient tracer's channel for ``category``, or ``None``.

    This is the hook every instrumented constructor calls; with no
    tracer installed it is two loads and a ``None`` return.
    """
    tracer = _CURRENT
    if tracer is None:
        return None
    return tracer._channels.get(category)


def metrics_registry() -> Optional[MetricsRegistry]:
    """The ambient tracer's metrics registry, or ``None``.

    Metrics and trace events gate independently: a component whose
    *category* is disabled still contributes metrics when a tracer is
    installed.  Constructors resolve their metric objects through this
    hook and guard each bump on the object (``if self._m_x is not
    None``), never on the channel."""
    tracer = _CURRENT
    return None if tracer is None else tracer.metrics


@contextmanager
def active(tracer: Tracer):
    """Install ``tracer`` for the duration of a ``with`` block.

    Restores the previously installed tracer (if any) on exit, so
    nested activations compose.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer
    try:
        yield tracer
    finally:
        _CURRENT = previous
