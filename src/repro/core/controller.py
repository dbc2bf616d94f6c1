"""Controller: instance provisioning, heartbeat consolidation, upkeep.

The Controller (paper Section 3.1) sets the infrastructure up as
instructed by the Provider: it formats and signs control messages
(wakeup/reset) and publishes them through a *control plane* — the
broadcast-medium abstraction with a generic implementation here
(:class:`DirectControlPlane`) and a DSM-CC carousel implementation in
:mod:`repro.dtv_oddci`.

It consolidates heartbeats into a PNA registry and per-instance
membership, and runs a maintenance loop that:

* re-broadcasts wakeups (with a policy-chosen probability) to recompose
  instances that lost members to churn;
* trims oversized instances by replying ``reset`` to heartbeats;
* expires members whose heartbeats stopped;
* dismantles instances whose lifetime elapsed.

Crash & recovery (DESIGN.md §10)
--------------------------------
The Controller can :meth:`~Controller.crash` — its volatile census
(registry, per-instance membership, pending trims) is lost and the
component leaves the network — and later :meth:`~Controller.restore`
from the checkpoint taken at crash time.  A checkpoint holds only
*durable* state: the instance table (ids, specs, statuses, send
counters), never the census, which is deliberately reconciled from
post-restart heartbeats (the paper's consolidation already rebuilds
membership from scratch every grace window, so recovery is the normal
path, just from an empty registry).  While the broadcast control plane
is unavailable, wakeups and resets are *deferred* — counted, traced
and retried by the next maintenance round — instead of vanishing into
a dead channel.  Mean time to recovery is measured from the first
unresolved disruption (:meth:`~Controller.note_disruption`) to the
first maintenance round where every live instance is back within its
tolerance band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import (
    ControllerDownError,
    InstanceError,
    OddCIError,
    ProvisioningError,
)
from repro.core.census import (
    HEARTBEAT_GRACE,
    STATE_BUSY,
    STATE_IDLE,
    ColumnarCensusStore,
)
from repro.core.instance import (
    InstanceRecord,
    InstanceSpec,
    InstanceStatus,
    new_instance_id,
)
from repro.core.messages import (
    CONTROL_PAYLOAD_BITS,
    HeartbeatPayload,
    HeartbeatReply,
    PNAState,
    ResetPayload,
    WakeupPayload,
    sign_control,
)
from repro.core.network import Router
from repro.core.policies import DeficitProportional, ProbabilityPolicy
from repro.net.broadcast import BroadcastChannel
from repro.net.crypto import KeyRegistry
from repro.net.link import all_distinct, as_index
from repro.net.message import Message
from repro.sim.core import Simulator
from repro.sim.monitor import Counter, TimeSeries
from repro.sim.process import Interrupt
from repro.telemetry.trace import channel as _telemetry_channel
from repro.telemetry.trace import metrics_registry as _telemetry_metrics

__all__ = ["ControlPlane", "DirectControlPlane", "Controller",
           "ControllerCheckpoint"]


class ControlPlane:
    """Broadcast-medium abstraction the Controller publishes through."""

    #: the DSM-CC carousel a carousel-borne plane publishes on (the
    #: one carousel faults target); ``None`` on a raw broadcast channel
    carousel = None

    @property
    def available(self) -> bool:
        """Can a publish reach receivers right now?

        ``False`` puts the Controller in degraded mode: control traffic
        is deferred and retried by the maintenance loop instead of
        being transmitted into a dead medium."""
        return True

    def publish_wakeup(self, payload: WakeupPayload,
                       signature: bytes) -> None:
        raise NotImplementedError

    def publish_reset(self, payload: ResetPayload,
                      signature: bytes) -> None:
        raise NotImplementedError


class DirectControlPlane(ControlPlane):
    """Generic OddCI plane: one broadcast message carries everything.

    The wakeup message's wire size includes the application image, so
    every subscribed PNA receives the image simultaneously, ``(I + ε)/β``
    after transmission starts (Section 3 model).  PNAs and fleets
    attach themselves via :meth:`attach`.
    """

    def __init__(self, channel: BroadcastChannel,
                 sender: str = "controller") -> None:
        self.channel = channel
        self.sender = sender

    @property
    def available(self) -> bool:
        return self.channel.up

    def attach(self, receiver) -> int:
        """Subscribe a PNA, or a :class:`~repro.core.pna.PNABlock` as
        one listener (its members hear each message in member order);
        returns the unsubscribe token."""
        def listener(msg: Message) -> None:
            receiver.deliver_control(*msg.payload)

        return self.channel.subscribe(listener)

    def publish_wakeup(self, payload: WakeupPayload,
                       signature: bytes) -> None:
        self.channel.transmit(Message(
            sender=self.sender, payload=(payload, signature),
            payload_bits=payload.image_bits + CONTROL_PAYLOAD_BITS))

    def publish_reset(self, payload: ResetPayload,
                      signature: bytes) -> None:
        self.channel.transmit(Message(
            sender=self.sender, payload=(payload, signature),
            payload_bits=CONTROL_PAYLOAD_BITS))


@dataclass(frozen=True)
class ControllerCheckpoint:
    """Durable Controller state captured at crash (or on demand).

    One row per instance: ``(instance_id, spec, status_value,
    created_at, wakeups_sent, trims_sent, resets_sent)``.  The census
    (registry, members, pending trims) is volatile by design and is
    reconciled from post-restart heartbeats instead of being persisted.

    ``blacklist`` holds quarantined node ids (DESIGN.md §15): unlike
    the census it *is* durable — a sabotaging node must not re-enter
    the infrastructure just because the Controller rebooted.  Absent on
    checkpoints from older builds; restore treats it as empty then.
    """

    time: float
    instances: Tuple[Tuple[str, InstanceSpec, str, float, int, int, int], ...]
    blacklist: Tuple[str, ...] = ()


class Controller:
    """The broadcast-side brain of an OddCI deployment."""

    def __init__(
        self,
        sim: Simulator,
        router: Router,
        control_plane: ControlPlane,
        key_registry: KeyRegistry,
        *,
        controller_id: str = "controller",
        probability_policy: Optional[ProbabilityPolicy] = None,
        maintenance_interval_s: float = 60.0,
        census: Optional[ColumnarCensusStore] = None,
        network: str = "",
    ) -> None:
        if maintenance_interval_s <= 0:
            raise OddCIError("maintenance_interval_s must be > 0")
        self.sim = sim
        self.router = router
        self.control_plane = control_plane
        self.controller_id = controller_id
        self.key = key_registry.issue(controller_id)
        self.probability_policy = probability_policy or DeficitProportional()
        self.maintenance_interval_s = maintenance_interval_s
        #: broadcast-network label of a named network.  Empty on the
        #: unnamed network of a one-network deployment: metric names and
        #: trace events then carry no label.
        self.network = network

        #: the census engine: registry + per-instance membership in one
        #: store (columnar unless a store such as the dict-backed test
        #: oracle is passed in), sharing the router's node-id interning
        #: table so heartbeat cohorts consolidate by index.
        if census is None:
            census = ColumnarCensusStore(router.interner)
        elif census.interner is not router.interner:
            raise OddCIError("census store must share the router's interner")
        self.census = census
        self.instances: Dict[str, InstanceRecord] = {}
        self._pending_trims: Dict[str, int] = {}
        self._pending_resets: Set[str] = set()
        #: quarantined node ids (DESIGN.md §15): consolidation refuses
        #: their heartbeats, so they can never re-enter the census.
        #: Durable across crash/restore — see ControllerCheckpoint.
        self._blacklist: Set[str] = set()
        self.counters = Counter()
        self.size_history: Dict[str, TimeSeries] = {}

        # Crash/recovery state (DESIGN.md §10).
        self.alive = True
        self.mttr_history: List[float] = []
        self._checkpoint: Optional[ControllerCheckpoint] = None
        self._crashed_at: Optional[float] = None
        #: the router registration a crash took down, which restore
        #: puts back (a wrapper such as DigestingController's included)
        self._registration: tuple = (None, None)
        self._recovering_since: Optional[float] = None
        self._disruption_manifested = False
        self._healthy_rounds = 0
        self._corrupt_signatures = False

        # Telemetry.  Trace events gate on the channel (``None`` when
        # the category is off); metrics gate on the metric objects,
        # resolved from the ambient tracer's registry, so a
        # metrics-enabled/trace-disabled run still counts everything.
        # The ``census.*`` family counts per-payload consolidation
        # outcomes and is delivery-shape independent: batch and
        # per-payload heartbeat delivery must produce identical census
        # metrics (tested).  ``delivery.*`` describes the batching
        # itself and is excluded from parity.
        self._trace = _telemetry_channel("control")
        #: extra kwargs stamped onto every trace event.  Empty dict on a
        #: single-network Controller, so emitted events carry exactly
        #: the historical field set (byte-parity with golden traces).
        self._net_kw: Dict[str, str] = (
            {"network": network} if network else {})

        def _mname(name: str) -> str:
            # Per-network metric label, e.g. ``census.heartbeats[dtv]``.
            return f"{name}[{network}]" if network else name

        metrics = _telemetry_metrics()
        if metrics is None:
            self._m_heartbeats = None
            self._m_stale = None
            self._m_trim = None
            self._m_batches = None
            self._m_batch_size = None
            self._m_mttr = None
            self._m_deferred = None
            self._m_registry = None
            self._m_idle = None
            self._m_alive = None
            self._m_quarantined = None
        else:
            self._m_heartbeats = metrics.counter(_mname("census.heartbeats"))
            self._m_stale = metrics.counter(_mname("census.stale_resets"))
            self._m_trim = metrics.counter(_mname("census.trim_resets"))
            self._m_batches = metrics.counter(_mname("delivery.batches"))
            self._m_batch_size = metrics.histogram(
                _mname("delivery.batch_size"))
            self._m_mttr = metrics.histogram(_mname("recovery.mttr_s"))
            self._m_deferred = metrics.counter(
                _mname("recovery.wakeups_deferred"))
            # Census gauges, refreshed from array reductions at every
            # maintenance round.
            self._m_registry = metrics.gauge(_mname("census.registry_size"))
            self._m_idle = metrics.gauge(_mname("census.idle"))
            self._m_alive = metrics.gauge(_mname("census.alive"))
            self._m_quarantined = metrics.counter(
                _mname("census.quarantined"))

        router.register_component(controller_id, self._receive_payload,
                                  receive_cohort=self._receive_cohort)
        self._maintenance_proc = sim.process(self._maintenance_loop())

    def _require_alive(self) -> None:
        if not self.alive:
            raise ControllerDownError(
                f"controller {self.controller_id!r} is down")

    # -- provider-facing API ---------------------------------------------------
    def create_instance(self, spec: InstanceSpec,
                        instance_id: Optional[str] = None) -> InstanceRecord:
        """Trigger the wakeup process for a new instance."""
        self._require_alive()
        instance_id = instance_id or new_instance_id()
        if instance_id in self.instances:
            raise ProvisioningError(f"instance {instance_id!r} already exists")
        record = InstanceRecord(instance_id, spec, self.sim.now,
                                census=self.census)
        self.instances[instance_id] = record
        self.size_history[instance_id] = TimeSeries(f"size:{instance_id}")
        self._send_wakeup(record)
        return record

    def resize_instance(self, instance_id: str, new_target: int) -> None:
        """Adjust an instance's target size (grow or shrink)."""
        self._require_alive()
        record = self._live_instance(instance_id)
        if new_target <= 0:
            raise InstanceError(f"new_target must be > 0, got {new_target}")
        import dataclasses

        record.spec = dataclasses.replace(record.spec,
                                          target_size=new_target)
        self.counters.incr("resizes")
        self._rebalance(record)

    def destroy_instance(self, instance_id: str) -> None:
        """Dismantle an instance: broadcast a reset for it.

        With the control plane unavailable the reset is deferred: the
        instance still flips to DISMANTLING immediately (stale
        heartbeats get per-PNA resets) and the broadcast goes out at
        the first maintenance round that finds the plane back up."""
        self._require_alive()
        record = self._live_instance(instance_id)
        record.status = InstanceStatus.DISMANTLING
        if not self.control_plane.available:
            self._pending_resets.add(instance_id)
            self.counters.incr("resets_deferred")
            trace = self._trace
            if trace is not None:
                trace.emit(self.sim.now, "reset_deferred",
                           instance=instance_id, **self._net_kw)
            return
        self._publish_reset(record)

    def _publish_reset(self, record: InstanceRecord) -> None:
        payload = ResetPayload(instance_id=record.instance_id)
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "reset_publish",
                       instance=record.instance_id, size=record.size,
                       **self._net_kw)
        self.control_plane.publish_reset(payload, self._sign(payload))
        record.resets_sent += 1
        self.counters.incr("resets_broadcast")

    def instance(self, instance_id: str) -> InstanceRecord:
        try:
            return self.instances[instance_id]
        except KeyError:
            raise InstanceError(f"unknown instance {instance_id!r}") from None

    def _live_instance(self, instance_id: str) -> InstanceRecord:
        record = self.instance(instance_id)
        if record.status in (InstanceStatus.DISMANTLING,
                             InstanceStatus.DESTROYED):
            raise InstanceError(
                f"instance {instance_id!r} is {record.status.value}")
        return record

    # -- consolidated knowledge ---------------------------------------------------
    def idle_estimate(self) -> int:
        """Idle PNAs heard from within the grace window.

        A census reduction: one vectorised pass over the state/seen
        columns on the columnar store."""
        return self.census.idle_estimate(self.sim.now - self._grace_window())

    def alive_estimate(self) -> int:
        return self.census.alive_estimate(self.sim.now - self._grace_window())

    def _grace_window(self) -> float:
        intervals = [r.spec.heartbeat_interval_s
                     for r in self.instances.values()] or [60.0]
        return HEARTBEAT_GRACE * max(intervals)

    # -- quarantine (DESIGN.md §15) ----------------------------------------
    @property
    def blacklist(self) -> frozenset:
        """Quarantined node ids (read-only view)."""
        return frozenset(self._blacklist)

    def quarantine_node(self, pna_id: str, reason: str = "") -> bool:
        """Evict ``pna_id`` from the infrastructure permanently.

        Called by a Backend's :class:`~repro.certify.ResultCertifier`
        when a node crosses the quarantine threshold.  The node is
        dropped from every instance membership immediately (the census
        registry entry ages out — consolidation refuses blacklisted
        heartbeats from now on) and its DVE is torn down with a direct
        reset.  Idempotent: returns ``False`` when the node was already
        blacklisted (another job's certifier got there first).

        Works while crashed too — the blacklist is durable state and a
        running Backend may convict a node during a Controller outage;
        only the census eviction and reset are skipped then (there is
        no census, and the restart reconciliation honours the list).
        """
        if pna_id in self._blacklist:
            return False
        self._blacklist.add(pna_id)
        self.counters.incr("quarantines")
        if self._m_quarantined is not None:
            self._m_quarantined.value += 1
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "quarantine", pna=pna_id,
                       reason=reason, **self._net_kw)
        if self.alive:
            interner = self.census.interner
            if pna_id in interner:
                self.census.drop_from_all(interner.index_of(pna_id))
            self._reply_reset(pna_id)
        return True

    # -- signing ---------------------------------------------------------------
    @property
    def corrupting_signatures(self) -> bool:
        """True while the fault injector is corrupting control tags."""
        return self._corrupt_signatures

    def corrupt_signatures(self, corrupt: bool) -> None:
        """Toggle signature corruption (``signature_corruption`` fault).

        While enabled every published control message carries a tag
        with its first byte flipped, so PNAs must reject it through
        :func:`~repro.core.messages.verify_control`."""
        self._corrupt_signatures = bool(corrupt)

    def _sign(self, payload) -> bytes:
        tag = sign_control(self.key, payload)
        if self._corrupt_signatures:
            self.counters.incr("signatures_corrupted")
            return bytes([tag[0] ^ 0xFF]) + tag[1:]
        return tag

    # -- wakeup / recomposition -----------------------------------------------------
    def _send_wakeup(self, record: InstanceRecord) -> None:
        if not self.control_plane.available:
            # Degraded mode: the broadcast medium is down.  Defer — the
            # next maintenance round re-evaluates the deficit and
            # retries once the plane is back.
            self.counters.incr("wakeups_deferred")
            if self._m_deferred is not None:
                self._m_deferred.value += 1
            trace = self._trace
            if trace is not None:
                trace.emit(self.sim.now, "wakeup_deferred",
                           instance=record.instance_id,
                           deficit=record.deficit, **self._net_kw)
            return
        deficit = max(record.deficit, 1)
        probability = self.probability_policy.probability(
            deficit, self.idle_estimate())
        payload = WakeupPayload(
            instance_id=record.instance_id,
            image_name=record.spec.image_name,
            image_bits=record.spec.image_bits,
            probability=probability,
            requirements=record.spec.requirements,
            heartbeat_interval_s=record.spec.heartbeat_interval_s,
            backend_id=record.spec.backend_id,
        )
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "wakeup_publish",
                       instance=record.instance_id, deficit=deficit,
                       probability=probability, **self._net_kw)
        self.control_plane.publish_wakeup(payload, self._sign(payload))
        record.wakeups_sent += 1
        self.counters.incr("wakeups_broadcast")

    # -- heartbeat handling -----------------------------------------------------------
    def _receive_payload(self, payload) -> None:
        if not isinstance(payload, HeartbeatPayload):
            raise OddCIError(f"controller got unexpected payload {payload!r}")
        self.counters.incr("heartbeats")
        if self._m_heartbeats is not None:
            self._m_heartbeats.value += 1
        self._consolidate(payload)

    def _batch_bumps(self, n: int) -> None:
        """Counter/metric/trace bookkeeping for one heartbeat batch."""
        self.counters.incr("heartbeats", n)
        if self._m_heartbeats is not None:
            self._m_heartbeats.value += n
            self._m_batches.value += 1
            self._m_batch_size.observe(n)
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "heartbeat_batch", size=n, **self._net_kw)

    def _receive_batch(self, payloads: list) -> None:
        """Bulk entry point for same-instant heartbeat cohorts.

        Consolidation per payload is unchanged (order = cohort member
        order = the order per-PNA messages used to arrive in); only the
        per-message wrapping and counter bumps are amortised.
        """
        self._batch_bumps(len(payloads))
        consolidate = self._consolidate
        for payload in payloads:
            consolidate(payload)

    #: below this cohort size the classification + array-build overhead
    #: beats the vectorisation win; the cohort path defers to the
    #: per-payload loop.  A Controller on the dict-backed test oracle
    #: sets it to infinity, so it folds every heartbeat one by one.
    _COHORT_MIN = 16

    def _receive_cohort(self, idxs: np.ndarray, states: np.ndarray,
                        insts: np.ndarray) -> None:
        """Columnar entry point: a cohort as (node index, state code,
        instance code) columns (see :meth:`Router.send_heartbeats`).

        One vectorised classification splits the cohort into (a) idle
        heartbeats, (b) per-instance groups whose consolidation is pure
        membership refresh (live instance, no pending trims) and (c) a
        *slow tail*, kept in original order, of everything with side
        effects — blacklisted nodes, stale/unknown instances (reset
        replies) and pending-trim instances (trim countdowns).  Groups
        (a)+(b) land as columnar writes; only (c) is materialised as
        payloads and replayed through :meth:`_consolidate`, so
        reset-reply event ordering and trim-exhaustion semantics are
        exactly the sequential ones.  Because every node appears at
        most once per cohort (a repeated node falls back to the
        per-payload path wholesale), the columnar regrouping is
        order-equivalent to the sequential fold.
        """
        census = self.census
        router = self.router
        n = len(idxs)
        ix = as_index(idxs)
        if n < self._COHORT_MIN or (type(ix) is not slice
                                    and not all_distinct(idxs)):
            self._receive_batch(router.heartbeat_payloads(idxs, states,
                                                          insts))
            return
        slow = np.zeros(n, dtype=bool)
        if self._blacklist:
            # Quarantined: the slow tail's _consolidate refuses them (a
            # columnar touch would resurrect the census entry).
            index_of = census.interner.index_of
            banned = [index_of(p) for p in self._blacklist]
            slow |= np.isin(idxs, [i for i in banned if i is not None])
        idle = states == STATE_IDLE
        busy = ~idle & ~slow
        idle &= ~slow
        # Busy members group by instance, in order of first appearance;
        # an instance's classification is constant within the pass
        # (records and trim counts only change in the slow replay).
        groups = []
        codes = insts[busy]
        if codes.size:
            if bool((codes == codes[0]).all()):
                distinct = [int(codes[0])]
            else:
                distinct, firsts = np.unique(codes, return_index=True)
                distinct = distinct[np.argsort(firsts)].tolist()
            instances = self.instances
            pending = self._pending_trims
            for code in distinct:
                instance_id = router.instance_of(code)
                members = busy if len(distinct) == 1 \
                    else busy & (insts == code)
                record = instances.get(instance_id)
                if (record is None
                        or record.status in (InstanceStatus.DISMANTLING,
                                             InstanceStatus.DESTROYED)
                        or pending.get(instance_id, 0) > 0):
                    slow |= members
                else:
                    groups.append((instance_id, record, members))
        self._batch_bumps(n)
        now = self.sim.now
        if idle.any():
            arr = idxs[idle]
            census.touch_group(ix if idle.all() else as_index(arr),
                               STATE_IDLE, None, now)
            census.drop_many_from_all(arr)
        for instance_id, record, members in groups:
            arr = ix if members.all() else as_index(idxs[members])
            census.touch_group(arr, STATE_BUSY, instance_id, now)
            census.mark_members(record.census_handle, arr, now)
        if slow.any():
            consolidate = self._consolidate
            for payload in router.heartbeat_payloads(
                    idxs[slow], states[slow], insts[slow]):
                consolidate(payload)

    def _consolidate(self, payload: HeartbeatPayload) -> None:
        if self._blacklist and payload.pna_id in self._blacklist:
            # Quarantined node: never re-enters the census.  A busy
            # claim gets a direct reset so its DVE is torn down; idle
            # chatter is simply ignored until the PNA gives up.
            self.counters.incr("blacklisted_heartbeats")
            if payload.state is PNAState.BUSY:
                self._reply_reset(payload.pna_id)
            return
        now = self.sim.now
        census = self.census
        idx = census.interner.intern(payload.pna_id)
        census.touch(idx, payload.state, payload.instance_id, now)

        if payload.state is PNAState.IDLE:
            # An idle PNA may have silently left an instance earlier —
            # the reverse membership index makes this O(1) for the
            # common case of a node that belongs to nothing.
            census.drop_from_all(idx)
            return

        instance_id = payload.instance_id
        record = self.instances.get(instance_id)
        if record is None or record.status in (InstanceStatus.DISMANTLING,
                                               InstanceStatus.DESTROYED):
            # Busy for a dead/unknown instance: order a reset.
            if self._m_stale is not None:
                self._m_stale.value += 1
            self._reply_reset(payload.pna_id)
            return
        trims = self._pending_trims.get(instance_id, 0)
        if trims > 0:
            self._pending_trims[instance_id] = trims - 1
            census.drop_member(record.census_handle, idx)
            record.trims_sent += 1
            if self._m_trim is not None:
                self._m_trim.value += 1
            self._reply_reset(payload.pna_id)
            return
        census.mark_member(record.census_handle, idx, now)

    def _reply_reset(self, pna_id: str) -> None:
        if not self.router.has_pna(pna_id):
            return
        self.router.send_to_pna(
            self.controller_id, pna_id,
            HeartbeatReply(pna_id=pna_id, reset=True),
            CONTROL_PAYLOAD_BITS)
        self.counters.incr("trim_replies")

    # -- maintenance -----------------------------------------------------------------
    def _maintenance_loop(self):
        try:
            while True:
                yield self.maintenance_interval_s
                self._maintenance_round()
        except Interrupt:
            pass

    def _maintenance_round(self) -> None:
        if not self.alive:
            # A crash landing on the same instant as a maintenance tick:
            # the interrupt only takes effect at the process's next
            # resume, so the already-dequeued round would otherwise run
            # against the freshly-cleared census and broadcast a bogus
            # deficit wakeup from a dead Controller.
            return
        now = self.sim.now
        trace = self._trace
        if trace is not None:
            trace.emit(now, "maintenance_round",
                       instances=len(self.instances),
                       registry=self.census.registry_size(), **self._net_kw)
        if self._m_registry is not None:
            # Census gauges: pure array reductions on the columnar store.
            horizon = now - self._grace_window()
            self._m_registry.set(self.census.registry_size())
            self._m_idle.set(self.census.idle_estimate(horizon))
            self._m_alive.set(self.census.alive_estimate(horizon))
        for record in list(self.instances.values()):
            if record.status is InstanceStatus.DESTROYED:
                continue
            cutoff = now - HEARTBEAT_GRACE * record.spec.heartbeat_interval_s
            expired = record.expire_members(cutoff)
            if expired:
                self.counters.incr("members_expired", expired)
            self.size_history[record.instance_id].record(now, record.size)

            if record.status is InstanceStatus.DISMANTLING:
                if (record.instance_id in self._pending_resets
                        and self.control_plane.available):
                    # A reset deferred during a broadcast outage.
                    self._pending_resets.discard(record.instance_id)
                    self._publish_reset(record)
                if record.size == 0:
                    record.status = InstanceStatus.DESTROYED
                    # Memory hygiene for long runs: the store column of
                    # a destroyed (empty) instance is released.
                    record.release_census()
                continue

            if (record.spec.lifetime_s is not None
                    and now - record.created_at >= record.spec.lifetime_s):
                self.destroy_instance(record.instance_id)
                continue

            self._rebalance(record)

        if self._recovering_since is not None:
            self._check_recovered(now)

    #: Healthy maintenance rounds after which an un-manifested
    #: disruption is abandoned (it never dented the census, e.g. a storm
    #: that only hit idle nodes): no MTTR sample is recorded for it.
    _GRACE_ROUNDS = 3

    def _check_recovered(self, now: float) -> None:
        """Close the MTTR window once every live instance is healthy.

        Damage shows up in the census with a lag (membership expires
        only after missed heartbeats), so the window may only close
        after the disruption *manifested* — a round that actually saw a
        live instance below its tolerance floor.  Otherwise the clock
        would close at the first round after injection, reporting a
        zero MTTR for an outage the Controller had not even noticed.
        """
        degraded = False
        for record in self.instances.values():
            if record.status in (InstanceStatus.DISMANTLING,
                                 InstanceStatus.DESTROYED):
                continue
            floor = record.spec.target_size \
                - record.spec.size_tolerance * record.spec.target_size
            if record.size < floor:
                degraded = True
                break
        if degraded:
            self._disruption_manifested = True
            self._healthy_rounds = 0
            return
        if not self._disruption_manifested:
            self._healthy_rounds += 1
            if self._healthy_rounds >= self._GRACE_ROUNDS:
                self._recovering_since = None
                self._healthy_rounds = 0
            return
        mttr = now - self._recovering_since
        self._recovering_since = None
        self._disruption_manifested = False
        self._healthy_rounds = 0
        self.mttr_history.append(mttr)
        self.counters.incr("recoveries")
        if self._m_mttr is not None:
            self._m_mttr.observe(mttr)
        trace = self._trace
        if trace is not None:
            trace.emit(now, "recovered", mttr_s=mttr, **self._net_kw)

    def _rebalance(self, record: InstanceRecord) -> None:
        band = record.spec.size_tolerance * record.spec.target_size
        trace = self._trace
        if trace is not None and record.size != record.spec.target_size:
            trace.emit(self.sim.now, "rebalance",
                       instance=record.instance_id, size=record.size,
                       target=record.spec.target_size, **self._net_kw)
        if record.size < record.spec.target_size - band:
            # Deficit: recompose by re-broadcasting the wakeup.
            if record.status is not InstanceStatus.PROVISIONING:
                record.status = InstanceStatus.DEGRADED
            self._send_wakeup(record)
            self.counters.incr("recompositions")
        elif record.size > record.spec.target_size + band:
            # Excess: trim via heartbeat replies.
            self._pending_trims[record.instance_id] = record.excess
            record.status = InstanceStatus.ACTIVE
        else:
            self._pending_trims.pop(record.instance_id, None)
            record.status = InstanceStatus.ACTIVE

    # -- crash & recovery ------------------------------------------------------
    def note_disruption(self) -> None:
        """Open (or keep open) the recovery clock.

        The fault injector calls this when a fault that degrades
        instances without killing the Controller fires (churn storm,
        partition, carousel gap); :meth:`crash` opens it implicitly.
        The clock closes at the first maintenance round where every
        live instance is back within tolerance — that interval is the
        reported MTTR."""
        if self.alive and self._recovering_since is None:
            self._recovering_since = self.sim.now
            self._disruption_manifested = False
            self._healthy_rounds = 0

    def checkpoint(self) -> ControllerCheckpoint:
        """Snapshot the durable state (see :class:`ControllerCheckpoint`)."""
        rows = tuple(
            (r.instance_id, r.spec, r.status.value, r.created_at,
             r.wakeups_sent, r.trims_sent, r.resets_sent)
            for r in self.instances.values())
        return ControllerCheckpoint(time=self.sim.now, instances=rows,
                                    blacklist=tuple(sorted(self._blacklist)))

    def crash(self) -> None:
        """Kill the Controller: volatile census lost, network presence gone.

        A checkpoint of the durable state is taken first (the paper's
        Controller is a provider-operated server; persisting the small
        instance table is the realistic assumption — persisting the
        ever-changing census is not)."""
        if not self.alive:
            return
        now = self.sim.now
        self._checkpoint = self.checkpoint()
        self._crashed_at = now
        self.alive = False
        self.counters.incr("crashes")
        trace = self._trace
        if trace is not None:
            trace.emit(now, "crash", instances=len(self.instances),
                       registry=self.census.registry_size(), **self._net_kw)
        # Volatile state dies with the process: one store-wide wipe
        # clears the registry and every instance's membership column.
        self.census.clear()
        self._pending_trims.clear()
        self._pending_resets.clear()
        for record in self.instances.values():
            if record.status not in (InstanceStatus.DISMANTLING,
                                     InstanceStatus.DESTROYED):
                # The census reads zero while down — availability
                # integrates this as unavailable time.
                self.size_history[record.instance_id].record(now, 0)
        if self._maintenance_proc.alive:
            self._maintenance_proc.interrupt("controller crashed")
        self._registration = self.router.unregister_component(
            self.controller_id)

    def restore(self, checkpoint: Optional[ControllerCheckpoint] = None
                ) -> None:
        """Restart from ``checkpoint`` (default: the one taken at crash).

        Instance records are rebuilt — identity-preserving, so Provider
        references stay valid — with empty membership; formerly ACTIVE
        instances come back DEGRADED until post-restart heartbeats
        reconcile the census.  DISMANTLING instances get their reset
        re-broadcast (receivers may have missed the original)."""
        if self.alive:
            raise OddCIError(
                f"controller {self.controller_id!r} is not crashed")
        cp = checkpoint if checkpoint is not None else self._checkpoint
        if cp is None:
            raise OddCIError("no checkpoint to restore from")
        now = self.sim.now
        restored: Dict[str, InstanceRecord] = {}
        for (iid, spec, status, created_at, wakeups, trims, resets) in \
                cp.instances:
            record = self.instances.get(iid)
            if record is None:
                record = InstanceRecord(iid, spec, created_at,
                                        census=self.census)
            else:
                # Identity-preserving re-bind: membership restarts empty
                # and reconciles from post-restart heartbeats.
                record.bind_census(self.census)
            record.spec = spec
            record.created_at = created_at
            self.census.clear_members(record.census_handle)
            record.wakeups_sent = wakeups
            record.trims_sent = trims
            record.resets_sent = resets
            record.status = InstanceStatus(status)
            if record.status is InstanceStatus.ACTIVE:
                record.status = InstanceStatus.DEGRADED
            elif record.status is InstanceStatus.DISMANTLING:
                self._pending_resets.add(iid)
            restored[iid] = record
            if iid not in self.size_history:
                self.size_history[iid] = TimeSeries(f"size:{iid}")
        for iid, record in self.instances.items():
            if iid not in restored:
                # Not in the checkpoint: release its store column.
                record.release_census()
        self.instances = restored
        self.census.clear_registry()
        self._pending_trims.clear()
        # Union, not replace: convictions landed while the Controller
        # was down (Backends keep certifying through an outage) must
        # survive the restore.  getattr tolerates pre-§15 checkpoints.
        self._blacklist |= set(getattr(cp, "blacklist", ()))
        self.alive = True
        receive, receive_cohort = self._registration
        self.router.register_component(
            self.controller_id, receive or self._receive_payload,
            receive_cohort=receive_cohort or self._receive_cohort)
        self._maintenance_proc = self.sim.process(self._maintenance_loop())
        # MTTR counts from the moment of the crash, not the restart.  A
        # crash is a manifest disruption by definition (the API was
        # down), so the recovery clock never needs the grace window.
        if self._recovering_since is None and self._crashed_at is not None:
            self._recovering_since = self._crashed_at
        self._disruption_manifested = True
        self._healthy_rounds = 0
        self.counters.incr("restores")
        trace = self._trace
        if trace is not None:
            down = now - self._crashed_at if self._crashed_at is not None \
                else 0.0
            trace.emit(now, "restore", instances=len(restored), down_s=down,
                       **self._net_kw)

    def shutdown(self) -> None:
        """Stop the maintenance loop and unregister."""
        if self._maintenance_proc.alive:
            self._maintenance_proc.interrupt("controller shutdown")
        self.router.unregister_component(self.controller_id)
