"""Processing Node Agent — the per-device component of OddCI.

The PNA (paper Section 3.2, Figure 2) listens to the broadcast channel,
verifies that control messages come from its associated Controller,
keeps an idle/busy state, probabilistically accepts wakeups whose
requirements it satisfies, runs the staged image inside a DVE (a
:class:`~repro.core.taskloop.CohortDVE` slot of the job's task engine),
answers resets, and sends periodic heartbeats over its direct channel.

This class is substrate-agnostic.  Fleets are built in bulk as
:class:`PNABlock` row ranges whose PNAs are views built on first
access: the generic binding subscribes each block to a
:class:`~repro.net.broadcast.BroadcastChannel` as one listener, the DTV
binding (:mod:`repro.dtv_oddci`) wraps each view in its box's Xlet.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from itertools import chain
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional)

import numpy as np

from repro.errors import OddCIError
from repro.core.census import CODE_STATE, STATE_BUSY, STATE_CODE
from repro.core.messages import (
    CONTROL_PAYLOAD_BITS,
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
from repro.net.link import DuplexChannel, as_index, column_view
from repro.sim.core import Simulator
from repro.sim.wheel import TimerWheel
from repro.telemetry.trace import channel as _telemetry_channel

__all__ = ["PNA", "PNABlock", "Fleet"]


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

    Members are node-index ranges ``[lo, hi, joined_at]`` in join order
    (a member that leaves splits its range): a tick is a column pass per
    range and consolidates in the order of the per-PNA timers it replaces.
    """

    __slots__ = ("router", "controller_id", "key", "wheel", "_ranges",
                 "_token")

    def __init__(self, sim: Simulator, router: Router, controller_id: str,
                 interval_s: float, key: tuple) -> None:
        self.router = router
        self.controller_id = controller_id
        self.key = key
        self.wheel = TimerWheel(
            sim, interval_s, name=f"hb:{controller_id}:{interval_s:g}")
        self._ranges: List[list] = []
        self._token: Optional[int] = None

    @classmethod
    def join(cls, router: Router, controller_id: str, interval_s: float,
             lo: int, hi: int) -> "_HeartbeatCohort":
        """Add node rows ``[lo, hi)``, joining now, to the cohort of
        their (interval, phase), created if needed; returns the cohort.

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
        ranges = cohort._ranges
        if not ranges:
            cohort._token = cohort.wheel.subscribe(cohort._tick)
        if ranges and ranges[-1][1:] == [lo, sim.now]:
            ranges[-1][1] = hi  # continues the last range
        else:
            ranges.append([lo, hi, sim.now])
        return cohort

    @property
    def members(self) -> Dict[str, int]:
        """pna_id -> node index of every member, in join order (built on
        each call; the tick reads the ranges)."""
        id_of = self.router.interner.id_of
        return {id_of(row): row for lo, hi, _ in self._ranges
                for row in range(lo, hi)}

    def remove(self, row: int) -> None:
        ranges = self._ranges
        for k, (lo, hi, joined) in enumerate(ranges):
            if lo <= row < hi:
                ranges[k:k + 1] = [part for part in (
                    [lo, row, joined], [row + 1, hi, joined])
                    if part[0] < part[1]]
                break
        if not ranges:
            if self._token is not None:
                self.wheel.unsubscribe(self._token)
                self._token = None
            self.router._cohorts.pop(self.key, None)

    def _tick(self, tick_time: float) -> None:
        router = self.router
        online = column_view(router.pna_online)
        due = [np.flatnonzero(online[lo:hi]) + lo
               for lo, hi, joined in self._ranges if joined < tick_time]
        if not due:
            return
        idxs = due[0] if len(due) == 1 else np.concatenate(due)
        if idxs.size:
            column_view(router.column("heartbeats_sent"))[
                as_index(idxs)] += 1
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

    A hand-built PNA registers its own row with the router; a member of
    a :class:`PNABlock` is a view of the block's row, built on first
    access.  Either way its mutable state (state, instance, online
    flag, counters, behaviour profile, task-engine binding) is the
    router's, at row :attr:`census_idx`.

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
        "dve_poll_interval_s", "_own_dve", "_hb_cohort", "_trace",
        "census_idx",
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
        self.census_idx = router.register_pna(pna_id, channel,
                                              self._on_downlink_payload)
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
        self._own_dve = None
        self._hb_cohort: Optional[_HeartbeatCohort] = None

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
        return router.instance_of(
            router.column("pna_instance")[self.census_idx])

    @instance_id.setter
    def instance_id(self, value: Optional[str]) -> None:
        router = self.router
        router.column("pna_instance")[self.census_idx] = \
            router.instance_code(value)

    @property
    def online(self) -> bool:
        return bool(self.router.pna_online[self.census_idx])

    @online.setter
    def online(self, value: bool) -> None:
        self.router.pna_online[self.census_idx] = 1 if value else 0

    @property
    def adversary(self) -> Any:
        """Byzantine behaviour profile (repro.certify.adversary), or
        ``None`` for an honest node.  Set by the fault injector;
        consulted at assignment-accept time by both task paths."""
        return self.router.adversaries.get(self.census_idx)

    @adversary.setter
    def adversary(self, value: Any) -> None:
        if value is None:
            self.router.adversaries.pop(self.census_idx, None)
        else:
            self.router.adversaries[self.census_idx] = value

    @property
    def channel(self) -> DuplexChannel:
        return self.router.channel_of(self.census_idx)

    @property
    def _dve(self) -> Any:
        """The node's own client loop, else the task engine its row
        joined in bulk, else ``None``."""
        dve = self._own_dve
        if dve is None:
            router = self.router
            code = router.column("dve_engine")[self.census_idx]
            if code:
                return router._engines[code]
        return dve

    @property
    def dve(self) -> Any:
        """The client loop (:class:`CohortDVE`) or ``None``; a member
        recruited in bulk gets its facade on first access."""
        dve = self._dve
        if type(dve) is CohortTaskEngine:
            slot = self.router.column("dve_slot")[self.census_idx]
            dve = self.dve = CohortDVE(
                dve, self, dve.instance_id, dve.backend_id,
                poll_interval_s=self.dve_poll_interval_s,
                request_timeout_s=dve.timeout_of(slot), slot=slot)
        return dve

    @dve.setter
    def dve(self, value: Any) -> None:
        self._own_dve = value
        self.router.column("dve_engine")[self.census_idx] = 0

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
        if engine is not None:  # else no task server: no client loop
            self.dve = CohortDVE(engine, self, wakeup.instance_id,
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
    def _on_downlink_payload(self, payload) -> None:
        """Receiver of the payloads arriving on the node's downlink."""
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
        row = self.census_idx
        self._hb_cohort = _HeartbeatCohort.join(
            self.router, self.controller_id, self.heartbeat_interval_s,
            row, row + 1)

    def _restart_heartbeat(self) -> None:
        """Re-key the cohort membership (new interval applies at once)."""
        if self._hb_cohort is not None:
            self._hb_cohort.remove(self.census_idx)
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
        lambda pna: pna.router.column(name)[pna.census_idx],
        lambda pna, value: pna.router.column(name).__setitem__(
            pna.census_idx, value))


for _name in PNA_COUNTERS:
    setattr(PNA, _name, _router_column(_name))


class PNABlock(Sequence):
    """A fleet built in bulk: PNAs ``{prefix}{first + k}`` for ``k < n``
    on node rows ``[lo, hi)``, hearing the broadcast as one listener.

    Their mutable state lives in the router's columns and what they
    share (key, controller, capabilities, executor, intervals, tracer)
    once here; node ``k``'s channel, ``channel_name.format(first +
    k)``, is built on first use.  Member ``k`` is a :class:`PNA` view
    built the first time something indexes or iterates the block or
    delivers to its row, and cached; only a view can carry a per-node
    override (an adversary, a changed interval or key, a retargeted
    controller).  :meth:`deliver_control` takes the members' wakeup
    decisions as column passes, equal to :meth:`PNA.deliver_control` on
    each member in order.
    """

    __slots__ = ("sim", "router", "lo", "hi", "prefix", "first",
                 "controller_key", "controller_id", "capabilities",
                 "executor", "heartbeat_interval_s", "dve_poll_interval_s",
                 "_trace", "_cohort", "_views")

    def __init__(self, sim: Simulator, router: Router, prefix: str,
                 first: int, n: int, *, channel_name: str, rate_bps: float,
                 latency_s: float, loss: float, controller_key: bytes,
                 controller_id: str,
                 capabilities: Optional[Mapping[str, Any]] = None,
                 executor: Optional[Executor] = None,
                 heartbeat_interval_s: float = 60.0,
                 dve_poll_interval_s: float = 30.0) -> None:
        if heartbeat_interval_s <= 0:
            raise OddCIError("heartbeat_interval_s must be > 0")
        if dve_poll_interval_s <= 0:
            raise OddCIError("dve_poll_interval_s must be > 0")
        self.sim, self.router, self.prefix, self.first = \
            sim, router, prefix, first
        self.controller_key, self.controller_id = controller_key, controller_id
        self.capabilities = _own_caps(capabilities)
        self.executor = executor or identity_executor
        self.heartbeat_interval_s = heartbeat_interval_s
        self.dve_poll_interval_s = dve_poll_interval_s
        self._trace = _telemetry_channel("pna")
        self._views: Dict[int, PNA] = {}
        self.lo = router.register_pnas(
            self, prefix, first, n, rate_bps=rate_bps, latency_s=latency_s,
            loss=loss, channel_name=channel_name)
        self.hi = self.lo + n
        self._cohort = _HeartbeatCohort.join(
            router, controller_id, heartbeat_interval_s, self.lo, self.hi)

    @property
    def pnas(self) -> "PNABlock":
        return self

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        return self.view(self.lo + _position(k, len(self)))

    def __iter__(self) -> Iterator[PNA]:
        return map(self.view, range(self.lo, self.hi))

    def view(self, row: int) -> PNA:
        """The :class:`PNA` of node row ``row``, built on first access."""
        pna = self._views.get(row)
        if pna is None:
            pna = self._views[row] = PNA.__new__(PNA)
            pna._setup(self.sim, f"{self.prefix}{self.first + row - self.lo}",
                       self.router, self.controller_key, self.controller_id,
                       self.capabilities, self.executor,
                       self.heartbeat_interval_s, self.dve_poll_interval_s)
            pna.census_idx, pna._hb_cohort, pna._trace = \
                row, self._cohort, self._trace
        return pna

    def deliver_control(self, payload, signature: bytes) -> None:
        """:meth:`PNA.deliver_control` on every member, in order; a
        wakeup keeping the block's heartbeat interval, to ``_BULK_MIN``
        or more untraced members, no view with an adversary or values of
        its own but the key, runs as column passes (:meth:`_wakeup`)."""
        if isinstance(payload, WakeupPayload) and len(self) >= _BULK_MIN \
                and self._trace is None \
                and self.heartbeat_interval_s == payload.heartbeat_interval_s \
                and not any(pna.adversary is not None or (
                    pna.heartbeat_interval_s, pna.capabilities, pna.executor,
                    pna.dve_poll_interval_s) != (
                    self.heartbeat_interval_s, self.capabilities,
                    self.executor, self.dve_poll_interval_s)
                    for pna in self._views.values()):
            self._wakeup(payload, signature)
            return
        for pna in self:
            pna.deliver_control(payload, signature)

    def _wakeup(self, wakeup: WakeupPayload, signature: bytes) -> None:
        """The checks of :meth:`PNA._handle_wakeup` as masks over the
        block's rows: the signature once per distinct key (a view may
        hold its own), the requirements once, probability draws from
        each member's own stream."""
        router, lo, hi = self.router, self.lo, self.hi
        live = column_view(router.pna_online)[lo:hi] != 0
        verdict = {self.controller_key: verify_control(
            self.controller_key, wakeup, signature)}
        signed = np.full(hi - lo, verdict[self.controller_key])
        for row, pna in self._views.items():
            key = pna.controller_key
            if key not in verdict:
                verdict[key] = verify_control(key, wakeup, signature)
            signed[row - lo] = verdict[key]
        _bump(router, "dropped_bad_signature", lo, hi, live & ~signed)
        join = live & signed
        _bump(router, "wakeups_seen", lo, hi, join)
        busy = join & (column_view(router.pna_state)[lo:hi] == STATE_BUSY)
        _bump(router, "dropped_busy", lo, hi, busy)
        join &= ~busy
        if wakeup.requirements and not matches_requirements(
                wakeup.requirements, self.capabilities):
            _bump(router, "dropped_requirements", lo, hi, join)
            return
        if wakeup.probability < 1.0:
            rng, prefix, first = self.sim.rng, self.prefix, self.first
            drawn = np.flatnonzero(join)
            refused = drawn[[
                rng(f"pna:{prefix}{first + k}").random() >= wakeup.probability
                for k in drawn.tolist()]]
            _bump(router, "dropped_probability", lo, hi, refused)
            join[refused] = False
        members = np.flatnonzero(join)
        if not members.size:
            return
        _bump(router, "wakeups_accepted", lo, hi, join)
        column_view(router.pna_state)[lo:hi][join] = STATE_BUSY
        column_view(router.column("pna_instance"))[lo:hi][join] = \
            router.instance_code(wakeup.instance_id)
        engine = engine_for(router, wakeup.backend_id, wakeup.instance_id)
        if engine is None:
            return  # no task server: the members start no client loop
        first = engine.join_many(
            members + lo, self.executor,
            max(4.0 * self.dve_poll_interval_s, 60.0))
        column_view(router.column("dve_slot"))[lo:hi][join] = np.arange(
            first, first + members.size)
        column_view(router.column("dve_engine"))[lo:hi][join] = \
            engine.code
        for row, pna in self._views.items():
            if join[row - lo]:
                pna._own_dve = None  # the engine binding replaces it


def _bump(router: Router, name: str, lo: int, hi: int,
          members: np.ndarray) -> None:
    """Add one to router column ``name`` at the rows ``lo + k`` that
    ``members`` selects (a mask over ``[lo, hi)`` or distinct offsets);
    the column grows only when there is something to add."""
    if members.size and (members.dtype != bool or members.any()):
        column_view(router.column(name))[lo:hi][members] += 1


def _position(k: int, n: int) -> int:
    if not -n <= k < n:
        raise IndexError("PNA index out of range")
    return k % n


class Fleet(Sequence):
    """A deployment's PNAs in build order: :class:`PNABlock` parts and
    hand-built PNAs (a part of one each)."""

    __slots__ = ("parts", "_ends")

    def __init__(self, parts: Iterable[Sequence[PNA]] = ()) -> None:
        self.parts: List[Sequence[PNA]] = []
        self._ends: List[int] = []
        for part in parts:
            self.extend(part)

    def extend(self, part: Sequence[PNA]) -> None:
        self.parts.append(part)
        self._ends.append(len(self) + len(part))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = _position(k, len(self))
        i = bisect_right(self._ends, k)
        return self.parts[i][k - (self._ends[i - 1] if i else 0)]

    def __iter__(self) -> Iterator[PNA]:
        return chain.from_iterable(self.parts)

    def __add__(self, other: Iterable[PNA]) -> List[PNA]:
        return list(self) + list(other)

    def rows(self) -> np.ndarray:
        """Every member's node index, in order."""
        return np.concatenate([np.empty(0, np.int64)] + [
            np.arange(part.lo, part.hi) if isinstance(part, PNABlock)
            else [pna.census_idx for pna in part] for part in self.parts])
