"""Processing Node Agent — the per-device component of OddCI.

The PNA (paper Section 3.2, Figure 2) listens to the broadcast channel,
verifies that control messages come from its associated Controller,
keeps an idle/busy state, probabilistically accepts wakeups whose
requirements it satisfies, runs the staged image inside a
:class:`~repro.core.dve.DVE`, answers resets, and sends periodic
heartbeats over its direct channel.

This class is substrate-agnostic; the DTV binding wraps it in an Xlet
(:mod:`repro.dtv_oddci`), the generic binding builds fleets in bulk and
subscribes each to a :class:`~repro.net.broadcast.BroadcastChannel` as
one :class:`PNABlock`.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional

import numpy as np

from repro.errors import OddCIError
from repro.core.census import CODE_STATE, STATE_BUSY, STATE_CODE
from repro.core.dve import CONTROL_PAYLOAD_BITS, DVE
from repro.core.messages import (
    HeartbeatReply,
    PNAState,
    ResetPayload,
    WakeupPayload,
    matches_requirements,
    verify_control,
)
from repro.core.network import PNA_COUNTERS, Router
from repro.core.taskloop import (_BULK_MIN, CohortDVE, CohortTaskEngine,
                                 engine_for, identity_executor)
from repro.net.link import DuplexChannel, column_view
from repro.net.message import Message
from repro.sim.core import Simulator
from repro.sim.wheel import TimerWheel
from repro.telemetry.trace import channel as _telemetry_channel

__all__ = ["PNA", "PNABlock"]


class _HeartbeatCohort:
    """All PNAs of one controller sharing a heartbeat (interval, phase).

    Instead of one timer process per PNA, the cohort subscribes a single
    :class:`~repro.sim.wheel.TimerWheel` tick and sends every member's
    heartbeat through the router's batched uplink path — one calendar
    entry per period per cohort rather than two per period per PNA.

    Correctness of sharing rests on phase keying: members are grouped by
    ``fmod(join_time, interval)``, so every wheel tick is congruent to
    each member's own timetable; a member joining mid-cycle simply skips
    ticks at or before its join time (``joined_at < tick_time`` guard)
    and first beats exactly ``interval`` after joining — identical to a
    private timer.

    A tick is one column pass over the members' node indices (see
    :class:`~repro.core.network.Router`): no per-member object is made.
    """

    __slots__ = ("router", "controller_id", "key", "wheel", "members",
                 "_joined_at", "_token", "_idxs", "_joined")

    def __init__(self, sim: Simulator, router: Router, controller_id: str,
                 interval_s: float, key: tuple) -> None:
        self.router = router
        self.controller_id = controller_id
        self.key = key
        self.wheel = TimerWheel(
            sim, interval_s, name=f"hb:{controller_id}:{interval_s:g}")
        #: pna_id -> node index, and pna_id -> join time; insertion
        #: order = join order, so a cohort beat consolidates in the same
        #: order as the per-PNA timer processes it replaces.
        self.members: Dict[str, int] = {}
        self._joined_at: Dict[str, float] = {}
        self._token: Optional[int] = None
        #: the two maps as columns, rebuilt on the first tick after a
        #: membership change.
        self._idxs: Optional[np.ndarray] = None
        self._joined: Optional[np.ndarray] = None

    @classmethod
    def join(cls, router: Router, controller_id: str, interval_s: float,
             pna_ids: List[str], idxs: Any) -> "_HeartbeatCohort":
        """Add members joining now, in order, to the cohort of their
        (interval, phase), created if needed; returns the cohort.

        Cohorts are shared timetables: every wheel tick of the cohort
        keyed ``(controller, I, fmod(now, I))`` lands exactly ``k * I``
        after this join, so membership is behaviourally identical to a
        private every-``I`` timer process — at a fraction of the
        calendar traffic.
        """
        sim = router.sim
        key = (controller_id, interval_s, math.fmod(sim.now, interval_s))
        cohort = router._cohorts.get(key)
        if cohort is None:
            cohort = router._cohorts[key] = cls(sim, router, controller_id,
                                                interval_s, key)
        if not cohort.members:
            cohort._token = cohort.wheel.subscribe(cohort._tick)
        cohort.members.update(zip(pna_ids, idxs))
        cohort._joined_at.update(zip(pna_ids, repeat(sim.now)))
        cohort._idxs = None
        return cohort

    def remove(self, pna_id: str) -> None:
        self.members.pop(pna_id, None)
        self._joined_at.pop(pna_id, None)
        self._idxs = None
        if not self.members:
            if self._token is not None:
                self.wheel.unsubscribe(self._token)
                self._token = None
            self.router._cohorts.pop(self.key, None)

    def _tick(self, tick_time: float) -> None:
        idxs = self._idxs
        if idxs is None:
            n = len(self.members)
            self._idxs = idxs = np.fromiter(self.members.values(), np.int64,
                                            n)
            self._joined = np.fromiter(self._joined_at.values(), np.float64,
                                       n)
        router = self.router
        due = (column_view(router.pna_online)[idxs] != 0) \
            & (self._joined < tick_time)
        if not due.all():
            idxs = idxs[due]
        if idxs.size:
            column_view(router.heartbeats_sent)[idxs] += 1
            router.send_heartbeats(idxs, self.controller_id,
                                   CONTROL_PAYLOAD_BITS)


#: executor maps reference-PC seconds -> local device seconds.
Executor = Callable[[float], float]

#: shared by every capability-less PNA; treated as read-only.
_EMPTY_CAPS: Mapping[str, Any] = {}


def _own_caps(capabilities: Optional[Mapping[str, Any]]) -> Mapping[str, Any]:
    # Capability-less nodes (the common fleet) share one immutable
    # empty mapping instead of allocating a dict per PNA.
    return dict(capabilities) if capabilities else _EMPTY_CAPS


class PNA:
    """One processing-node agent.

    Parameters
    ----------
    channel:
        The node's direct channel (registered with ``router``).
    controller_key:
        Verification key of the associated Controller; messages signed
        under any other key are dropped.
    capabilities:
        Matched against wakeup requirements.
    executor:
        Device timing model (reference seconds → local seconds).
        Defaults to the identity (a reference-PC node).
    """

    __slots__ = (
        "sim", "pna_id", "router", "controller_key", "_controller_id",
        "capabilities", "executor", "heartbeat_interval_s",
        "dve_poll_interval_s", "_dve", "_hb_cohort", "_trace",
        "census_idx", "adversary",
    )
    # heartbeats_sent and the drop counters (PNA_COUNTERS, observability
    # for the recruitment experiments) are router columns: see the end
    # of the class.

    def __init__(
        self,
        sim: Simulator,
        pna_id: str,
        *,
        router: Router,
        channel: DuplexChannel,
        controller_key: bytes,
        controller_id: str = "controller",
        capabilities: Optional[Mapping[str, Any]] = None,
        executor: Optional[Executor] = None,
        heartbeat_interval_s: float = 60.0,
        dve_poll_interval_s: float = 30.0,
        start_online: bool = True,
    ) -> None:
        if not pna_id:
            raise OddCIError("pna_id must be non-empty")
        if heartbeat_interval_s <= 0:
            raise OddCIError("heartbeat_interval_s must be > 0")
        self._setup(sim, pna_id, router, controller_key, controller_id,
                    _own_caps(capabilities), executor,
                    heartbeat_interval_s, dve_poll_interval_s)
        #: dense interned node index assigned by the router: the row of
        #: this PNA's state, instance, online flag and counters in the
        #: router's columns (the attributes below read through).
        self.census_idx = router.register_pna(
            pna_id, channel, self._on_downlink,
            receive_payload=self._on_downlink_payload)
        if not start_online:  # the router registers a node online
            self.online = False
        self._trace = _telemetry_channel("pna")
        self._join_heartbeat_cohort()

    def _setup(self, sim: Simulator, pna_id: str, router: Router,
               controller_key: bytes, controller_id: str,
               capabilities: Mapping[str, Any], executor: Optional[Executor],
               heartbeat_interval_s: float,
               dve_poll_interval_s: float) -> None:
        self.sim = sim
        self.pna_id = pna_id
        self.router = router
        self.controller_key = controller_key
        self._controller_id = controller_id
        self.capabilities = capabilities
        # The shared identity sentinel (not a per-PNA lambda) lets the
        # cohort engine recognise reference-PC nodes and batch their
        # compute times.
        self.executor = executor or identity_executor
        self.heartbeat_interval_s = heartbeat_interval_s
        self.dve_poll_interval_s = dve_poll_interval_s
        self._dve = None
        self._hb_cohort: Optional[_HeartbeatCohort] = None
        #: Byzantine behaviour profile (repro.certify.adversary), or
        #: ``None`` for an honest node.  Set by the fault injector;
        #: consulted at assignment-accept time by both task paths.
        self.adversary = None

    # -- router-column attributes ---------------------------------------
    @property
    def state(self) -> PNAState:
        return CODE_STATE[self.router.pna_state[self.census_idx]]

    @state.setter
    def state(self, value: PNAState) -> None:
        self.router.pna_state[self.census_idx] = STATE_CODE[value]

    @property
    def instance_id(self) -> Optional[str]:
        router = self.router
        return router.instance_of(router.pna_instance[self.census_idx])

    @instance_id.setter
    def instance_id(self, value: Optional[str]) -> None:
        router = self.router
        router.pna_instance[self.census_idx] = router.instance_code(value)

    @property
    def online(self) -> bool:
        return bool(self.router.pna_online[self.census_idx])

    @online.setter
    def online(self, value: bool) -> None:
        self.router.pna_online[self.census_idx] = 1 if value else 0

    @property
    def channel(self) -> DuplexChannel:
        return self.router.channel_of(self.census_idx)

    @property
    def dve(self) -> Any:
        """The client loop (:class:`DVE`, :class:`CohortDVE`) or ``None``;
        a member recruited in bulk gets its facade on first access."""
        dve = self._dve
        if type(dve) is CohortTaskEngine:
            slot = self.router.dve_slot[self.census_idx]
            dve = self._dve = CohortDVE(
                dve, self, dve.instance_id, dve.backend_id,
                poll_interval_s=self.dve_poll_interval_s,
                request_timeout_s=dve._timeout[slot], slot=slot)
        return dve

    @dve.setter
    def dve(self, value: Any) -> None:
        self._dve = value

    @property
    def controller_id(self) -> str:
        return self._controller_id

    @controller_id.setter
    def controller_id(self, value: str) -> None:
        # Heartbeats are routed per cohort, so retargeting the controller
        # (e.g. pointing the PNA at an aggregator) must re-key the
        # cohort membership.  The timer restarts: the next beat lands a
        # full interval after the change.
        self._controller_id = value
        cohort = getattr(self, "_hb_cohort", None)
        if cohort is not None and cohort.controller_id != value:
            self._restart_heartbeat()

    # -- control-plane entry point ------------------------------------------
    def deliver_control(
        self,
        payload,
        signature: bytes,
        *,
        fetch_image: Optional[Callable[[], Any]] = None,
    ) -> bool:
        """Handle a broadcast control message.

        ``fetch_image`` — when the substrate stages the image lazily
        (DSM-CC carousel), a callable returning an event that settles
        once this node has the image; ``None`` means the image arrived
        with the message (generic broadcast plane).

        Returns ``True`` when the message was authenticated and
        processed, ``False`` when it was refused outright (node
        offline, bad signature).  Retrying substrates — the carousel
        xlet polls the same config file every repetition — use the
        verdict to decide whether a version was really *consumed*: a
        message rejected during a signature-corruption window must be
        retried at the next repetition, not remembered as seen.
        """
        if not self.online:
            return False
        if not verify_control(self.controller_key, payload, signature):
            self.dropped_bad_signature += 1
            return False
        if isinstance(payload, WakeupPayload):
            self._handle_wakeup(payload, fetch_image)
        elif isinstance(payload, ResetPayload):
            self._handle_reset(payload)
        else:
            raise OddCIError(f"unknown control payload {payload!r}")
        return True

    def _handle_wakeup(self, wakeup: WakeupPayload,
                       fetch_image: Optional[Callable[[], Any]]) -> None:
        self.wakeups_seen += 1
        if self.state is PNAState.BUSY:
            self.dropped_busy += 1
            return
        if not matches_requirements(wakeup.requirements, self.capabilities):
            self.dropped_requirements += 1
            return
        # A draw in [0, 1) always accepts when probability >= 1 — skip
        # not just the draw but the per-PNA generator derivation, which
        # would otherwise dominate recruitment at 10^6 nodes.
        if wakeup.probability < 1.0 and self.sim.rng(
                f"pna:{self.pna_id}").random() >= wakeup.probability:
            self.dropped_probability += 1
            return
        self.wakeups_accepted += 1
        # Become busy immediately: a PNA that committed to an instance
        # must not double-accept while staging the image.
        self.state = PNAState.BUSY
        self.instance_id = wakeup.instance_id
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "accept", pna=self.pna_id,
                       instance=wakeup.instance_id)
        if wakeup.heartbeat_interval_s != self.heartbeat_interval_s:
            # Reconfiguration takes effect now, not after the current
            # (possibly long) sleep.
            self.heartbeat_interval_s = wakeup.heartbeat_interval_s
            self._restart_heartbeat()
        if fetch_image is None:
            self._start_dve(wakeup)
        else:
            ev = fetch_image()
            ev.add_callback(
                lambda e, wakeup=wakeup: self._image_staged(wakeup, e))

    def _image_staged(self, wakeup: WakeupPayload, event) -> None:
        if not event.ok or not self.online:
            self._go_idle()
            return
        if self.state is not PNAState.BUSY or (
                self.instance_id != wakeup.instance_id):
            return  # reset raced the image fetch
        self._start_dve(wakeup)

    def _start_dve(self, wakeup: WakeupPayload) -> None:
        adv = self.adversary
        if adv is not None and adv.kind == "heartbeat_spoof":
            # The spoofer claims the instance (state already BUSY, so it
            # occupies a census/membership slot and keeps heartbeating)
            # but never starts a client loop — a zombie contributor.
            return
        engine = engine_for(self.router, wakeup.backend_id,
                            wakeup.instance_id)
        if engine is not None:
            self.dve = CohortDVE(engine, self, wakeup.instance_id,
                                 wakeup.backend_id,
                                 poll_interval_s=self.dve_poll_interval_s)
            return
        # Per-PNA reference path: the fallback when no cohort-capable
        # Backend is registered under this id (test doubles, custom
        # components keep exact per-node semantics), and the
        # differential oracle tests select by patching ``engine_for``.
        self.dve = DVE(self.sim, self, wakeup.instance_id,
                       wakeup.backend_id,
                       poll_interval_s=self.dve_poll_interval_s)

    def _handle_reset(self, reset: ResetPayload) -> None:
        if self.state is PNAState.IDLE:
            return  # idle PNAs simply drop resets
        if reset.instance_id not in (None, "*", self.instance_id):
            return  # reset for a different instance
        self.resets_handled += 1
        self._go_idle()

    def _go_idle(self) -> None:
        trace = self._trace
        if trace is not None and self.state is PNAState.BUSY:
            trace.emit(self.sim.now, "idle", pna=self.pna_id,
                       instance=self.instance_id)
        if self.dve is not None:
            self.dve.destroy()
            self.dve = None
        self.state = PNAState.IDLE
        self.instance_id = None

    # -- direct channel ---------------------------------------------------------
    def _on_downlink(self, msg: Message) -> None:
        """Dispatcher for messages arriving on the node's downlink."""
        self._on_downlink_payload(msg.payload)

    def _on_downlink_payload(self, payload) -> None:
        if not self.online:
            return
        if isinstance(payload, HeartbeatReply):
            if payload.reset and self.state is PNAState.BUSY:
                self.resets_handled += 1
                self._go_idle()
            return
        # Everything else is Backend traffic for the DVE.
        if self.dve is not None:
            self.dve.on_backend_message(payload)

    def _join_heartbeat_cohort(self) -> None:
        self._hb_cohort = _HeartbeatCohort.join(
            self.router, self.controller_id, self.heartbeat_interval_s,
            [self.pna_id], [self.census_idx])

    def _restart_heartbeat(self) -> None:
        """Re-key the cohort membership (new interval applies at once)."""
        if self._hb_cohort is not None:
            self._hb_cohort.remove(self.pna_id)
            self._hb_cohort = None
        self._join_heartbeat_cohort()

    # -- adversarial behaviour (fault injector hooks) ----------------------------
    def set_adversary(self, adversary) -> None:
        """Flip this node Byzantine (:class:`repro.certify.Adversary`).

        A ``heartbeat_spoof`` profile kills the DVE on the spot while
        the node stays BUSY — its heartbeats outlive the dead client
        loop, which is exactly the paper-world failure this models.
        Other profiles only change behaviour at the next
        assignment-accept (in-flight work keeps its honest semantics).
        """
        self.adversary = adversary
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "adversary", pna=self.pna_id,
                       kind=adversary.kind)
        if adversary.kind == "heartbeat_spoof" and self.dve is not None:
            self.dve.destroy()
            self.dve = None  # state stays BUSY: the zombie heartbeats on

    def clear_adversary(self) -> None:
        """Restore honest behaviour (fault window ended)."""
        adversary, self.adversary = self.adversary, None
        if adversary is None:
            return
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "adversary_cleared", pna=self.pna_id,
                       kind=adversary.kind)
        if adversary.kind == "heartbeat_spoof" \
                and self.state is PNAState.BUSY and self.dve is None:
            # Nothing is running behind the BUSY facade; go idle so the
            # next wakeup can recruit this node honestly.
            self._go_idle()

    # -- owner actions (power) ---------------------------------------------------
    def shutdown(self, *, manage_channel: bool = True) -> None:
        """The owner switches the device off: the DVE vanishes silently
        (the Controller learns through missing heartbeats).

        ``manage_channel=False`` leaves the direct channel alone — used
        when an outer substrate (a set-top box) owns the channel state.
        """
        if not self.online:
            return
        self.online = False
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "offline", pna=self.pna_id)
        self._go_idle()
        if manage_channel:
            self.channel.set_up(False)

    def restart(self, *, manage_channel: bool = True) -> None:
        """Power the device back on (idle, listening again)."""
        if self.online:
            return
        self.online = True
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "online", pna=self.pna_id)
        if manage_channel:
            self.channel.set_up(True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<PNA {self.pna_id} {self.state.value} "
                f"instance={self.instance_id!r} online={self.online}>")


def _router_column(name: str) -> property:
    """A PNA attribute kept in router column ``name``, at the PNA's row."""
    return property(
        lambda pna: getattr(pna.router, name)[pna.census_idx],
        lambda pna, value: getattr(pna.router, name).__setitem__(
            pna.census_idx, value))


for _name in PNA_COUNTERS:
    setattr(PNA, _name, _router_column(_name))

_adversary = attrgetter("adversary")


class PNABlock(NamedTuple):
    """PNAs that hear the broadcast channel as one listener.

    The paper's Controller never addresses a PNA: it broadcasts one
    signed wakeup and each PNA decides locally whether to join.
    :meth:`deliver_control` takes those decisions for every member as
    column passes, equal to :meth:`PNA.deliver_control` on each member
    in order; :meth:`build` registers a whole fleet in bulk.
    """

    pnas: List[PNA]
    #: the members' node indices
    rows: np.ndarray

    @classmethod
    def build(cls, sim: Simulator, router: Router, pna_ids: List[str], *,
              channel_name: str, first_channel: int, rate_bps: float,
              latency_s: float, loss: float, controller_key: bytes,
              controller_id: str,
              capabilities: Optional[Mapping[str, Any]] = None,
              executor: Optional[Executor] = None,
              heartbeat_interval_s: float = 60.0,
              dve_poll_interval_s: float = 30.0) -> "PNABlock":
        """One :class:`PNA` per id, as the constructor would build them
        in order (node ``k``'s channel is named
        ``channel_name.format(first_channel + k)``), registered in bulk:
        node rows, link-table rows and the heartbeat cohort are column
        writes, and each channel is built on first use."""
        if heartbeat_interval_s <= 0:
            raise OddCIError("heartbeat_interval_s must be > 0")
        if dve_poll_interval_s <= 0:
            raise OddCIError("dve_poll_interval_s must be > 0")
        pnas = [PNA.__new__(PNA) for _ in pna_ids]
        lo = router.register_pnas(
            pna_ids, pnas, rate_bps=rate_bps, latency_s=latency_s,
            loss=loss, channel_name=channel_name, first_channel=first_channel)
        rows = range(lo, lo + len(pnas))
        cohort = _HeartbeatCohort.join(router, controller_id,
                                       heartbeat_interval_s, pna_ids, rows)
        caps, trace = _own_caps(capabilities), _telemetry_channel("pna")
        for pna, pna_id, row in zip(pnas, pna_ids, rows):
            pna._setup(sim, pna_id, router, controller_key, controller_id,
                       caps, executor, heartbeat_interval_s,
                       dve_poll_interval_s)
            pna.census_idx, pna._hb_cohort, pna._trace = row, cohort, trace
        return cls(pnas, np.arange(lo, lo + len(pnas)))

    def deliver_control(self, payload, signature: bytes) -> None:
        """:meth:`PNA.deliver_control` on every member, in order; a
        wakeup to at least ``_BULK_MIN`` untraced members, none with a
        behaviour profile or a heartbeat interval the wakeup changes,
        runs as column passes (:meth:`_wakeup`)."""
        pnas = self.pnas
        if isinstance(payload, WakeupPayload) and len(pnas) >= _BULK_MIN \
                and not any(map(attrgetter("_trace"), pnas)) \
                and not any(map(_adversary, pnas)) and all(
                    pna.heartbeat_interval_s == payload.heartbeat_interval_s
                    for pna in pnas):
            self._wakeup(payload, signature)
            return
        for pna in pnas:
            pna.deliver_control(payload, signature)

    def _wakeup(self, wakeup: WakeupPayload, signature: bytes) -> None:
        """The checks of :meth:`PNA._handle_wakeup` as masks over the
        node columns: the signature once per distinct key, requirements
        once per distinct capabilities object, probability draws from
        each member's own stream."""
        pnas, rows = self.pnas, self.rows
        router, n = pnas[0].router, len(pnas)
        live = column_view(router.pna_online)[rows] != 0
        keys = list(map(attrgetter("controller_key"), pnas))
        verdict = {key: verify_control(key, wakeup, signature)
                   for key in set(keys)}
        signed = np.full(n, verdict[keys[0]]) if len(verdict) == 1 \
            else np.fromiter(map(verdict.get, keys), bool, n)
        _bump(router.dropped_bad_signature, rows[live & ~signed])
        join = live & signed
        _bump(router.wakeups_seen, rows[join])
        busy = join & (column_view(router.pna_state)[rows] == STATE_BUSY)
        _bump(router.dropped_busy, rows[busy])
        join &= ~busy
        if wakeup.requirements:
            caps = list(map(attrgetter("capabilities"), pnas))
            fits = {id(c): matches_requirements(wakeup.requirements, c)
                    for c in caps}
            unfit = join & ~np.fromiter(map(fits.get, map(id, caps)), bool, n)
            _bump(router.dropped_requirements, rows[unfit])
            join &= ~unfit
        if wakeup.probability < 1.0:
            rng = pnas[0].sim.rng
            drawn = np.flatnonzero(join)
            refused = drawn[[
                rng(f"pna:{pnas[k].pna_id}").random() >= wakeup.probability
                for k in drawn.tolist()]]
            _bump(router.dropped_probability, rows[refused])
            join[refused] = False
        if not join.any():
            return
        joined = rows[join]
        _bump(router.wakeups_accepted, joined)
        column_view(router.pna_state)[joined] = STATE_BUSY
        column_view(router.pna_instance)[joined] = \
            router.instance_code(wakeup.instance_id)
        members = [pnas[k] for k in np.flatnonzero(join).tolist()]
        engine = engine_for(router, wakeup.backend_id, wakeup.instance_id)
        if engine is None:
            for pna in members:
                pna._start_dve(wakeup)
            return
        polls = np.fromiter(map(attrgetter("dve_poll_interval_s"), members),
                            np.float64, len(members))
        first = engine.join_many(members, joined,
                                 np.maximum(4.0 * polls, 60.0))
        column_view(router.dve_slot)[joined] = np.arange(first,
                                                         first + len(members))
        for pna in members:
            pna._dve = engine


def _bump(column: Any, rows: np.ndarray) -> None:
    """Add one to ``column`` at each of the distinct ``rows``."""
    column_view(column)[rows] += 1
