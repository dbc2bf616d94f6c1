"""SLO accounting for the service tier.

The recorder is the tier's single source of truth for service-level
numbers: exact sample lists (no streaming sketches — experiment scale
keeps them small) with percentiles computed at summary time, plus
counters classified by the *structured* ``reason`` field the
request-path errors carry (:class:`~repro.errors.AdmissionError` and
friends), never by parsing message strings.

Definitions
-----------
time-to-ready (ttr)
    Seconds from request arrival to the census first reaching the
    tolerance band (warm hits settle at 0.0 by construction).
rejection rate
    ``rejected / issued`` over every terminal classification: quota,
    queue, provisioning timeout, controller down.
lost requests
    ``issued - settled``.  The tier's liveness contract is that this
    is **zero** under every fault plan — a crashed controller degrades
    p99 and rejections, never strands a request.
fairness
    Jain's index over per-tenant completed counts:
    ``(sum x)^2 / (n * sum x^2)`` — 1.0 when all tenants complete
    equally, ``1/n`` when one tenant takes everything.

When a tracer is installed the recorder mirrors its terminal counts
onto the ambient :class:`~repro.telemetry.metrics.MetricsRegistry`
(``serve.*``), gated on the metric objects per the telemetry contract.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.telemetry import trace

__all__ = ["SLORecorder", "jain_fairness", "percentile"]


def percentile(samples: List[float], q: float) -> float:
    """Exact ``q``-th percentile (0-100) of ``samples``; 0.0 if empty."""
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def jain_fairness(shares: List[float]) -> float:
    """Jain's fairness index of ``shares``; 1.0 for empty/degenerate."""
    if not shares:
        return 1.0
    total = float(sum(shares))
    squares = float(sum(x * x for x in shares))
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(shares) * squares)


class SLORecorder:
    """Counts and samples for one service-tier run."""

    def __init__(self) -> None:
        self.issued = 0
        self.admitted = 0
        self.settled = 0
        self.completed = 0
        self.noops = 0
        self.rejected: Dict[str, int] = {}
        self.ttr_samples: List[float] = []
        self.ttr_warm: List[float] = []
        self.ttr_cold: List[float] = []
        self.queue_wait_samples: List[float] = []
        self.completed_by_tenant: Dict[str, int] = {}
        registry = trace.metrics_registry()
        if registry is None:
            self._m_requests = self._m_rejected = self._m_ttr = None
        else:
            self._m_requests = registry.counter("serve.requests")
            self._m_rejected = registry.counter("serve.rejected")
            self._m_ttr = registry.histogram("serve.time_to_ready_s")

    # -- recording -------------------------------------------------------
    def note_issued(self) -> None:
        self.issued += 1
        if self._m_requests is not None:
            self._m_requests.inc()

    def note_admitted(self, queue_wait_s: float = 0.0) -> None:
        self.admitted += 1
        self.queue_wait_samples.append(queue_wait_s)

    def note_ready(self, ttr_s: float, *, warm: bool) -> None:
        self.ttr_samples.append(ttr_s)
        (self.ttr_warm if warm else self.ttr_cold).append(ttr_s)
        if self._m_ttr is not None:
            self._m_ttr.observe(ttr_s)

    def note_completed(self, tenant: str) -> None:
        self.completed += 1
        self.completed_by_tenant[tenant] = (
            self.completed_by_tenant.get(tenant, 0) + 1)
        self.settled += 1

    def note_noop(self) -> None:
        self.noops += 1
        self.settled += 1

    def note_rejected(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        self.settled += 1
        if self._m_rejected is not None:
            self._m_rejected.inc()

    # -- reporting -------------------------------------------------------
    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    @property
    def lost(self) -> int:
        return self.issued - self.settled

    def summary(self) -> dict:
        """Plain, deterministic record for artifacts/experiments."""
        issued = self.issued
        return {
            "issued": issued,
            "admitted": self.admitted,
            "completed": self.completed,
            "noops": self.noops,
            "rejected": dict(sorted(self.rejected.items())),
            "rejected_total": self.rejected_total,
            "rejection_rate": round(
                self.rejected_total / issued, 6) if issued else 0.0,
            "lost": self.lost,
            "ttr_p50_s": round(percentile(self.ttr_samples, 50), 6),
            "ttr_p99_s": round(percentile(self.ttr_samples, 99), 6),
            "ttr_warm_p50_s": round(percentile(self.ttr_warm, 50), 6),
            "ttr_cold_p50_s": round(percentile(self.ttr_cold, 50), 6),
            "queue_wait_p99_s": round(
                percentile(self.queue_wait_samples, 99), 6),
            "fairness": round(jain_fairness(
                [count for _t, count in
                 sorted(self.completed_by_tenant.items())]), 6),
        }
