"""The service tier: open-loop traffic against one OddCI deployment.

:class:`ServiceTier` wires the request pipeline end to end on the DES
kernel::

    arrivals ──> gateway ──> pool ──> Provider/Controller
       │            │          │             │
       └── SLO recorder <── tickets <────────┘

* :meth:`start` materialises the arrival schedule (one draw stream,
  ``"serve.arrivals"``) and plants every arrival on the calendar;
* a **create** passes admission, acquires capacity (warm or cold),
  waits on its :class:`~repro.core.provider.ProvisioningTicket`, holds
  the instance for its drawn hold time, then releases it back to the
  pool and is charged node-hours;
* a **resize**/**destroy** targets its tenant's *oldest* live instance
  (deterministic choice) and no-ops when the tenant has none;
* every failure — quota, queue, provisioning timeout, crashed
  controller — settles the request as a classified rejection and
  tears down any partial state through the explicit cancel path
  (:meth:`Provider.cancel_request`), so ``issued == settled`` holds
  under every fault plan: faults degrade the SLO, they never strand a
  request.

:meth:`run` drives the simulator until the last request settles and
returns the deterministic summary record the experiments serialise.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.errors import (
    AdmissionError,
    ControllerDownError,
    InstanceError,
    ProvisioningError,
)
from repro.core.instance import InstanceRecord, InstanceSpec
from repro.core.provider import ProvisioningTicket
from repro.serve.arrivals import ServiceRequest, TrafficSpec, \
    generate_requests
from repro.serve.gateway import GatewayConfig, ServiceGateway
from repro.serve.pool import InstancePool, PoolConfig
from repro.serve.slo import SLORecorder
from repro.telemetry import trace

__all__ = ["ServiceTier"]


class ServiceTier:
    """Request front end over an :class:`~repro.core.system.OddCISystem`.

    Parameters
    ----------
    system:
        A built single-network deployment exposing ``.sim`` and a
        ``.provider`` with ``request_instance_async`` /
        ``cancel_request`` (bare capacity needs one network).
    traffic / gateway / pool:
        The open-loop mix and the admission/pooling knobs.
    image_bits / heartbeat_interval_s / size_tolerance:
        Spec template for instances the tier (and its pool) creates.
    request_timeout_s:
        Cold-provision deadline; a census that never reaches the band
        settles the request as a ``timeout`` rejection.
    """

    def __init__(
        self,
        system,
        traffic: TrafficSpec,
        *,
        gateway: Optional[GatewayConfig] = None,
        pool: Optional[PoolConfig] = None,
        image_bits: float = 8e6,
        heartbeat_interval_s: float = 10.0,
        size_tolerance: float = 0.25,
        request_timeout_s: float = 120.0,
        poll_interval_s: float = 1.0,
    ) -> None:
        self.system = system
        self.sim = system.sim
        self.provider = system.provider
        self.traffic = traffic
        self.image_bits = image_bits
        self.heartbeat_interval_s = heartbeat_interval_s
        self.size_tolerance = size_tolerance
        self.request_timeout_s = request_timeout_s
        self.slo = SLORecorder()
        self.gateway = ServiceGateway(self.sim, gateway or GatewayConfig())
        pool_cfg = pool if pool is not None else PoolConfig(
            provision_timeout_s=request_timeout_s,
            poll_interval_s=poll_interval_s)
        self.pool = InstancePool(self.sim, self.provider, pool_cfg,
                                 self._spec_for)
        self.done_event = self.sim.event("service-tier-done")
        #: tenant -> ordered {instance_id: (create_request, record,
        #: ready_at)} — the create request owns the instance until its
        #: hold expires or a destroy request reaps it early.
        self._active: Dict[str, "OrderedDict[str, tuple]"] = {}
        self._arrival_times: Dict[str, float] = {}
        self._outstanding = 0
        self._started = False
        self._trace = trace.channel("serve")

    # -- wiring ----------------------------------------------------------
    def _spec_for(self, target_size: int) -> InstanceSpec:
        return InstanceSpec(
            target_size=target_size,
            image_name="service-tier",
            image_bits=self.image_bits,
            heartbeat_interval_s=self.heartbeat_interval_s,
            size_tolerance=self.size_tolerance,
            backend_id="serve")

    def start(self) -> List[ServiceRequest]:
        """Generate the schedule and plant every arrival; idempotent."""
        if self._started:
            raise ProvisioningError("service tier already started")
        self._started = True
        requests = generate_requests(self.traffic,
                                     self.sim.rng("serve.arrivals"))
        self._outstanding = len(requests)
        self.pool.start()
        for request in requests:
            self._arrival_times[request.request_id] = request.arrival_s
            self.sim.call_at(request.arrival_s, self._arrive, request)
        if not requests:
            self.done_event.succeed(None)
        return requests

    def run(self, limit_s: Optional[float] = None) -> dict:
        """Drive the sim until every request settles; return summary.

        The default limit leaves generous slack past the horizon for
        queued admissions, provisioning timeouts and hold expiries to
        play out; a wedged tier (lost requests) hits the limit and
        raises — by design, that is a test failure, not a statistic.
        """
        if not self._started:
            self.start()
        if limit_s is None:
            limit_s = (self.traffic.horizon_s + self.request_timeout_s
                       + 20.0 * self.traffic.hold_s_mean + 3600.0)
        if not self.done_event.triggered:
            self.sim.run_until_event(self.done_event, limit=limit_s)
        self.pool.stop()
        return self.summary()

    # -- request pipeline ------------------------------------------------
    def _arrive(self, request: ServiceRequest) -> None:
        self.slo.note_issued()
        t = self._trace
        if t is not None:
            t.emit(self.sim.now, "arrival", request=request.request_id,
                   tenant=request.tenant, kind=request.kind)
        try:
            self.gateway.submit(request, self._dispatch)
        except AdmissionError as exc:  # covers QuotaExceededError
            self._reject(request, exc.reason or "admission",
                         charged=False)

    def _dispatch(self, request: ServiceRequest) -> None:
        """Runs at admission time (sync, or from the gateway queue)."""
        wait = self.sim.now - self._arrival_times[request.request_id]
        self.slo.note_admitted(queue_wait_s=wait)
        if request.kind == "create":
            self._provision(request)
        elif request.kind == "resize":
            self._resize(request)
        else:
            self._destroy(request)

    def _provision(self, request: ServiceRequest) -> None:
        try:
            ticket, warm = self.pool.acquire(
                request.target_size, tenant=request.tenant,
                request_id=request.request_id)
        except ControllerDownError:
            self._reject(request, "controller_down")
            return
        ticket.event.add_callback(
            lambda ev, r=request, tk=ticket, w=warm:
            self._on_ticket(r, tk, w, ev))

    def _on_ticket(self, request: ServiceRequest,
                   ticket: ProvisioningTicket, warm: bool, event) -> None:
        if not event.ok:
            exc = event.value
            reason = getattr(exc, "reason", "") or "timeout"
            if ticket.instance_id is not None:
                self.provider.cancel_request(ticket.instance_id)
            self._reject(request, reason)
            return
        ttr = self.sim.now - self._arrival_times[request.request_id]
        self.slo.note_ready(ttr, warm=warm)
        t = self._trace
        if t is not None:
            t.emit(self.sim.now, "ready", request=request.request_id,
                   instance=ticket.record.instance_id, warm=warm,
                   ttr_s=round(ttr, 6))
        active = self._active.setdefault(request.tenant, OrderedDict())
        active[ticket.record.instance_id] = (
            request, ticket.record, self.sim.now)
        self.sim.call_at(self.sim.now + request.hold_s, self._expire,
                         request, ticket.record.instance_id)

    def _expire(self, request: ServiceRequest, instance_id: str) -> None:
        active = self._active.get(request.tenant)
        if active is None or instance_id not in active:
            return  # already reaped by an explicit destroy request
        _req, record, ready_at = active.pop(instance_id)
        self._complete_create(request, record, ready_at)

    def _complete_create(self, request: ServiceRequest,
                         record: InstanceRecord,
                         ready_at: float) -> None:
        """Settle a create whose instance is done (expiry or destroy)."""
        held = max(0.0, self.sim.now - ready_at)
        node_hours = record.spec.target_size * held / 3600.0
        self.pool.release(record)
        self.gateway.finish(request.tenant, node_hours)
        self.slo.note_completed(request.tenant)
        t = self._trace
        if t is not None:
            t.emit(self.sim.now, "complete", request=request.request_id,
                   tenant=request.tenant,
                   node_hours=round(node_hours, 6))
        self._settle_one()

    def _oldest_active(self, tenant: str) -> Optional[str]:
        active = self._active.get(tenant)
        if not active:
            return None
        return next(iter(active))

    def _resize(self, request: ServiceRequest) -> None:
        instance_id = self._oldest_active(request.tenant)
        if instance_id is None:
            self.slo.note_noop()
            self._settle_one()
            return
        try:
            self.provider.resize(instance_id, request.target_size)
        except (InstanceError, ControllerDownError) as exc:
            reason = ("controller_down"
                      if isinstance(exc, ControllerDownError)
                      else "resize_failed")
            self.slo.note_rejected(reason)
            self._settle_one()
            return
        self.slo.note_completed(request.tenant)
        self._settle_one()

    def _destroy(self, request: ServiceRequest) -> None:
        instance_id = self._oldest_active(request.tenant)
        if instance_id is None:
            self.slo.note_noop()
            self._settle_one()
            return
        # The owning create completes early (its hold-expiry callback
        # finds the entry gone and goes quiet); the destroy itself then
        # settles as a completed request.
        create_req, record, ready_at = self._active[
            request.tenant].pop(instance_id)
        self._complete_create(create_req, record, ready_at)
        self.slo.note_completed(request.tenant)
        self._settle_one()

    # -- settlement ------------------------------------------------------
    def _reject(self, request: ServiceRequest, reason: str,
                *, charged: bool = True) -> None:
        """Terminal rejection: classify, release quota, settle."""
        if charged and request.kind == "create":
            self.gateway.finish(request.tenant, 0.0)
        self.slo.note_rejected(reason)
        t = self._trace
        if t is not None:
            t.emit(self.sim.now, "rejected", request=request.request_id,
                   tenant=request.tenant, reason=reason)
        self._settle_one()

    def _settle_one(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0 and not self.done_event.triggered:
            self.done_event.succeed(None)

    # -- reporting -------------------------------------------------------
    def summary(self) -> dict:
        """Deterministic run record: SLO + pool + gateway."""
        out = self.slo.summary()
        out["pool"] = self.pool.stats()
        out["gateway"] = self.gateway.stats()
        return out
