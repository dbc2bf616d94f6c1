"""Admission control: token-bucket rate limiting and per-tenant quotas.

The gateway sits between the open-loop arrival process and the
Provider.  Every request passes three gates, in order:

1. **Quota** (creates only): per-tenant concurrent-instance cap and
   node-hour budget → :class:`~repro.errors.QuotaExceededError`.
2. **Rate** : a global token bucket (``admission_rate`` tokens/s, burst
   ``burst``).  A request that finds a token dispatches synchronously.
3. **Queue**: token-less requests wait in a bounded FIFO.  A full queue
   — or a deterministic token-availability time beyond
   ``max_queue_wait_s`` — rejects with :class:`~repro.errors.
   AdmissionError` (``reason="queue_full"`` / ``"queue_timeout"``).

The bucket refills *lazily* (tokens accrue as a pure function of
elapsed sim time), and each enqueue schedules its own drain at the
instant its token matures, so admission decisions and dispatch order
are exact functions of the arrival schedule — no polling, no jitter.

Quota accounting is reserve/charge: a create reserves its tenant's
concurrency slot at admission (queued work counts against the cap, so
a tenant cannot over-admit through the queue) and the service tier
calls :meth:`ServiceGateway.finish` on terminal settlement to release
the slot and charge node-hours.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    QuotaExceededError,
)
from repro.serve.arrivals import ServiceRequest
from repro.sim.core import Simulator
from repro.telemetry import trace

__all__ = ["GatewayConfig", "TokenBucket", "TenantAccount",
           "ServiceGateway"]

#: Token-count comparison slack.  A drain scheduled at a token's exact
#: maturity can find ``tokens = 0.999...9`` after the lazy refill
#: (float summation error); without tolerance the retry maturity is so
#: close that ``now + needed/rate`` rounds to ``now`` — a same-instant
#: reschedule loop that freezes the simulation.
EPS = 1e-9


@dataclass(frozen=True)
class GatewayConfig:
    """Admission-control knobs.  ``0`` always means *unlimited*.

    Attributes
    ----------
    admission_rate:
        Token-bucket refill rate (requests/second); 0 disables rate
        limiting entirely (every request dispatches on arrival).
    burst:
        Bucket capacity (tokens).  Defaults to ``max(1, rate)``-ish via
        validation: must be >= 1 when rate limiting is on.
    queue_cap:
        Waiting-room size; a request arriving to a full queue is
        rejected (``queue_full``).  0 = unbounded queue.
    max_queue_wait_s:
        Reject instead of enqueueing when the request's token would
        mature later than this (``queue_timeout``).  0 = no bound.
    max_concurrent:
        Per-tenant cap on live-or-queued created instances.  0 = none.
    node_hour_budget:
        Per-tenant node-hour budget; once a tenant's charged usage
        reaches it, further creates are rejected.  0 = none.
    """

    admission_rate: float = 0.0
    burst: int = 1
    queue_cap: int = 0
    max_queue_wait_s: float = 0.0
    max_concurrent: int = 0
    node_hour_budget: float = 0.0

    def __post_init__(self) -> None:
        for name in ("admission_rate", "queue_cap", "max_queue_wait_s",
                     "max_concurrent", "node_hour_budget"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.admission_rate > 0 and self.burst < 1:
            raise ConfigurationError(
                "burst must be >= 1 when admission_rate is set")


class TokenBucket:
    """Lazily refilled token bucket on the simulation clock."""

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate: float, burst: int, now: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = now

    def refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last) * self.rate)
            self._last = now

    def try_take(self, now: float) -> bool:
        self.refill(now)
        if self.tokens >= 1.0 - EPS:
            self.tokens = max(0.0, self.tokens - 1.0)
            return True
        return False

    def maturity_time(self, now: float, position: int) -> float:
        """Instant at which the ``position``-th queued request's token
        matures (position 0 = head of queue), given no later arrivals
        jump the FIFO.  Deterministic: pure arithmetic on sim time."""
        self.refill(now)
        needed = position + 1.0 - self.tokens
        if needed <= EPS:
            return now
        return now + needed / self.rate


@dataclass
class TenantAccount:
    """Per-tenant quota state."""

    concurrent: int = 0
    node_hours: float = 0.0
    admitted: int = 0
    rejected: int = 0


class ServiceGateway:
    """Token-bucket + quota front door for the service tier."""

    def __init__(self, sim: Simulator, config: GatewayConfig) -> None:
        self.sim = sim
        self.config = config
        self.bucket = (TokenBucket(config.admission_rate, config.burst,
                                   sim.now)
                       if config.admission_rate > 0 else None)
        self._queue: Deque = deque()
        self.accounts: Dict[str, TenantAccount] = {}
        self.queued_peak = 0
        self._trace = trace.channel("serve")

    def account(self, tenant: str) -> TenantAccount:
        acct = self.accounts.get(tenant)
        if acct is None:
            acct = self.accounts[tenant] = TenantAccount()
        return acct

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- admission -------------------------------------------------------
    def submit(self, request: ServiceRequest,
               dispatch: Callable[[ServiceRequest], None]) -> None:
        """Admit ``request`` or raise a typed rejection.

        ``dispatch(request)`` runs synchronously when a token is
        available, else from the queue at its deterministic maturity
        time.  Raises :class:`QuotaExceededError` / :class:`
        AdmissionError`; on a raise nothing was reserved.
        """
        cfg = self.config
        acct = self.account(request.tenant)
        if request.kind == "create":
            if cfg.max_concurrent and acct.concurrent >= cfg.max_concurrent:
                acct.rejected += 1
                raise QuotaExceededError(
                    f"tenant {request.tenant} at max_concurrent="
                    f"{cfg.max_concurrent}",
                    tenant=request.tenant, request_id=request.request_id,
                    reason="max_concurrent")
            if (cfg.node_hour_budget
                    and acct.node_hours >= cfg.node_hour_budget):
                acct.rejected += 1
                raise QuotaExceededError(
                    f"tenant {request.tenant} exhausted node-hour budget "
                    f"{cfg.node_hour_budget}",
                    tenant=request.tenant, request_id=request.request_id,
                    reason="node_hours")
        now = self.sim.now
        # A non-empty queue means earlier requests are waiting on
        # tokens; new arrivals must not jump the FIFO by grabbing one.
        if self.bucket is None or (
                not self._queue and self.bucket.try_take(now)):
            self._admit(request, acct)
            dispatch(request)
            return
        # No token: queue or reject.
        if cfg.queue_cap and len(self._queue) >= cfg.queue_cap:
            acct.rejected += 1
            raise AdmissionError(
                f"admission queue full ({cfg.queue_cap})",
                tenant=request.tenant, request_id=request.request_id,
                reason="queue_full")
        matures_at = self.bucket.maturity_time(now, len(self._queue))
        if (cfg.max_queue_wait_s
                and matures_at - now > cfg.max_queue_wait_s):
            acct.rejected += 1
            raise AdmissionError(
                f"token matures {matures_at - now:.1f}s out, beyond "
                f"max_queue_wait_s={cfg.max_queue_wait_s}",
                tenant=request.tenant, request_id=request.request_id,
                reason="queue_timeout")
        self._admit(request, acct)
        self._queue.append((request, dispatch))
        self.queued_peak = max(self.queued_peak, len(self._queue))
        t = self._trace
        if t is not None:
            t.emit(now, "queued", request=request.request_id,
                   tenant=request.tenant, depth=len(self._queue))
        self.sim.call_at(matures_at, self._drain)

    def _admit(self, request: ServiceRequest, acct: TenantAccount) -> None:
        acct.admitted += 1
        if request.kind == "create":
            acct.concurrent += 1

    def _drain(self) -> None:
        """Dispatch queued requests whose tokens have matured.

        Every enqueue schedules a drain at its own maturity time, so a
        drain that finds no token (an earlier drain took it for an
        earlier request) is a harmless no-op — order stays FIFO.  A
        drain that leaves the queue non-empty re-arms itself at the
        head's next maturity, so queued requests can never strand."""
        while self._queue and self.bucket.try_take(self.sim.now):
            request, dispatch = self._queue.popleft()
            dispatch(request)
        if self._queue:
            self.sim.call_at(
                self.bucket.maturity_time(self.sim.now, 0), self._drain)

    # -- settlement ------------------------------------------------------
    def finish(self, tenant: str, node_hours: float = 0.0) -> None:
        """Release a create's concurrency slot and charge usage."""
        acct = self.account(tenant)
        acct.concurrent = max(0, acct.concurrent - 1)
        acct.node_hours += node_hours

    def stats(self) -> dict:
        """Deterministic summary for records/artifacts."""
        return {
            "tenants": {
                name: {"admitted": a.admitted, "rejected": a.rejected,
                       "node_hours": round(a.node_hours, 6)}
                for name, a in sorted(self.accounts.items())},
            "queued_peak": self.queued_peak,
        }
