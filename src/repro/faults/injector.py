"""Turns a :class:`~repro.faults.plan.FaultPlan` into DES-kernel events.

The injector is deliberately duck-typed: it manipulates whatever the
host system hands it through :class:`FaultTargets` (controllers with
``crash()``/``restore()``, callables yielding backends and nodes,
broadcast channels with ``set_up()``, an optional carousel with
``interrupt_for()``) and never imports the core package, so both the
generic :class:`~repro.core.system.OddCISystem` and the DTV-bound
systems wire it the same way.

Determinism
-----------
All randomness — jittered fire times, victim selection for partitions
and churn storms — comes from the dedicated ``sim.rng("faults")``
stream.  Jitters are resolved once, at construction, in plan order;
victim draws happen at fire time, and fire order is itself
deterministic (kernel time plus schedule order), so the whole chaos
timeline replays byte-identically for any ``--jobs`` count.  Systems
built *without* a plan never touch the stream, so enabling faults
cannot perturb an unrelated run's RNG state — and an **empty** plan
schedules nothing and draws nothing, keeping its artifacts
byte-identical to a run with faults disabled.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.certify.adversary import Adversary
from repro.errors import FaultPlanError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.telemetry import trace as telemetry

__all__ = ["FaultTargets", "FaultInjector"]


class FaultTargets:
    """What the injector is allowed to break.

    ``controllers`` and ``broadcasts`` list every controller and
    broadcast channel (one each on a single network, one per shard in a
    federation).  ``backends``, ``nodes`` and ``links`` are zero-argument
    callables resolved at fire time, because fleets grow after
    construction (``add_receivers``, ``submit_job``).  ``links`` defaults
    to the node uplinks."""

    def __init__(self, *, controllers: Sequence = (),
                 backends: Optional[Callable[[], Sequence]] = None,
                 broadcasts: Sequence = (), carousel=None,
                 nodes: Optional[Callable[[], Sequence]] = None,
                 links: Optional[Callable[[], Sequence]] = None) -> None:
        self.controllers = list(controllers)
        self.broadcasts = list(broadcasts)
        self.backends = backends if backends is not None else (lambda: [])
        self.carousel = carousel
        self.nodes = nodes if nodes is not None else (lambda: [])
        self.links = links if links is not None else self._node_links

    def _node_links(self) -> List:
        return [node.channel for node in self.nodes()
                if getattr(node, "channel", None) is not None]


#: targets attribute(s) an event kind needs (a non-empty list, or a
#: carousel); checked at construction so an unsupported plan fails fast
#: instead of mid-run.
_REQUIREMENTS = {
    "controller_crash": ("controllers",),
    "signature_corruption": ("controllers",),
    "broadcast_outage": ("broadcasts",),
    # carousel_interrupt degrades to a broadcast outage when the host
    # system has no carousel, so either target satisfies it.
    "carousel_interrupt": ("carousel", "broadcasts"),
    # backend/node/link kinds resolve their victims lazily via
    # callables that are always present.
    "backend_crash": (),
    "link_down": (),
    "link_flap": (),
    "churn_storm": (),
    # adversary kinds flip node behaviour; victims resolve lazily like
    # churn storms do.
    "saboteur": (),
    "free_rider": (),
    "straggler": (),
    "heartbeat_spoof": (),
}


class FaultInjector:
    """Schedules a plan's events on the kernel and fires them.

    Construction must happen before sim time reaches the earliest
    (jittered) event; systems build their injector in ``__init__``, at
    ``sim.now == 0``, which always satisfies this."""

    def __init__(self, sim, plan: FaultPlan, targets: FaultTargets) -> None:
        self.sim = sim
        self.plan = plan
        self.targets = targets
        self.fired: List[tuple] = []
        # Trace events gate on the channel; metrics gate on the metric
        # objects (ambient registry), so metrics-on/trace-off runs still
        # count injections.
        self._trace = telemetry.channel("fault")
        registry = telemetry.metrics_registry()
        self._m_injected = registry.counter("fault.injected") \
            if registry is not None else None
        self._m_restored = registry.counter("fault.restored") \
            if registry is not None else None
        rng = sim.rng("faults") if plan.events else None
        self._schedule(plan, rng)

    # -- scheduling --------------------------------------------------------

    def _schedule(self, plan: FaultPlan, rng) -> None:
        for ev in plan.events:
            needs = _REQUIREMENTS[ev.kind]
            if needs and not any(getattr(self.targets, attr)
                                 for attr in needs):
                raise FaultPlanError(
                    f"fault {ev.describe()!r} needs "
                    f"{' or '.join(needs)}, none available")
            time = ev.time
            if ev.jitter_s > 0.0:
                time = time + ev.jitter_s * float(rng.random())
            if time < self.sim.now:
                raise FaultPlanError(
                    f"fault {ev.describe()!r} fires at t={time:g}, before "
                    f"injector construction at t={self.sim.now:g}")
            self.sim.call_at(time, self._fire, ev)

    # -- firing ------------------------------------------------------------

    def _fire(self, ev: FaultEvent) -> None:
        self.fired.append((self.sim.now, ev.kind))
        if self._m_injected is not None:
            self._m_injected.inc()
        t = self._trace
        if t is not None:
            t.emit(self.sim.now, "inject", kind=ev.kind,
                   duration_s=ev.duration_s, magnitude=ev.magnitude,
                   target=ev.target)
        getattr(self, f"_fire_{ev.kind}")(ev)

    def _restored(self, kind: str, **fields) -> None:
        if self._m_restored is not None:
            self._m_restored.inc()
        t = self._trace
        if t is not None:
            t.emit(self.sim.now, "restore", kind=kind, **fields)

    def _note_disruption(self) -> None:
        for controller in self.targets.controllers:
            controller.note_disruption()

    def _pick_controllers(self, target: str) -> List:
        """Controllers selected by an event's ``target``: the shard's
        ``controller_id``, its network label, or — empty target — every
        controller (the single-network behaviour)."""
        controllers = self.targets.controllers
        if not target:
            return list(controllers)
        return [c for c in controllers
                if c.controller_id == target
                or getattr(c, "network", "") == target]

    # Each _fire_<kind> applies the fault and schedules its restore.

    def _fire_controller_crash(self, ev: FaultEvent) -> None:
        victims = [c for c in self._pick_controllers(ev.target) if c.alive]
        if not victims:
            return
        for controller in victims:
            controller.crash()
        if ev.duration_s > 0.0:
            ids = tuple(c.controller_id for c in victims)
            self.sim.call_at(self.sim.now + ev.duration_s,
                             self._restore_controllers, ids)

    def _restore_controllers(self, ids) -> None:
        restored = False
        for controller in self.targets.controllers:
            if controller.controller_id in ids and not controller.alive:
                controller.restore()
                restored = True
        if restored:
            self._restored("controller_crash")

    def _fire_backend_crash(self, ev: FaultEvent) -> None:
        victims = [b for b in self.targets.backends()
                   if (not ev.target or b.backend_id == ev.target) and b.alive]
        for backend in victims:
            backend.crash()
        if ev.duration_s > 0.0 and victims:
            ids = tuple(b.backend_id for b in victims)
            self.sim.call_at(self.sim.now + ev.duration_s,
                             self._restore_backends, ids)

    def _restore_backends(self, ids) -> None:
        for backend in self.targets.backends():
            if backend.backend_id in ids and not backend.alive:
                backend.restore()
        self._restored("backend_crash", count=len(ids))

    def _pick_links(self, ev: FaultEvent, rng) -> List:
        links = list(self.targets.links())
        if ev.target:
            links = [ln for ln in links if ln.name == ev.target]
        if not links:
            return []
        if 0.0 < ev.magnitude < 1.0 and ev.kind == "link_down":
            k = max(1, int(round(ev.magnitude * len(links))))
            idx = sorted(int(i) for i in
                         rng.choice(len(links), size=k, replace=False))
            links = [links[i] for i in idx]
        return links

    def _fire_link_down(self, ev: FaultEvent) -> None:
        rng = self.sim.rng("faults")
        victims = self._pick_links(ev, rng)
        for link in victims:
            link.set_up(False)
        self._note_disruption()
        if ev.duration_s > 0.0 and victims:
            names = tuple(ln.name for ln in victims)
            self.sim.call_at(self.sim.now + ev.duration_s,
                             self._restore_links, names)

    def _restore_links(self, names) -> None:
        for link in self.targets.links():
            if link.name in names and not link.up:
                link.set_up(True)
        self._restored("link_down", count=len(names))

    def _fire_link_flap(self, ev: FaultEvent) -> None:
        # magnitude = number of down/up cycles; each phase duration_s long.
        flaps = max(1, int(ev.magnitude))
        phase = ev.duration_s if ev.duration_s > 0.0 else 1.0
        rng = self.sim.rng("faults")
        victims = self._pick_links(ev, rng)
        names = tuple(ln.name for ln in victims)
        for link in victims:
            link.set_up(False)
        self._note_disruption()
        for i in range(flaps):
            up_at = self.sim.now + (2 * i + 1) * phase
            self.sim.call_at(up_at, self._restore_links, names)
            if i + 1 < flaps:
                self.sim.call_at(self.sim.now + (2 * i + 2) * phase,
                                 self._flap_down, names)

    def _flap_down(self, names) -> None:
        for link in self.targets.links():
            if link.name in names and link.up:
                link.set_up(False)

    def _pick_broadcasts(self, target: str) -> List:
        """Broadcast channels matching ``target`` (a channel name or a
        network label, which maps to ``<label>.broadcast``).  No match —
        or no target — selects every channel, so plans written for the
        single-network wiring (where ``target`` never meant anything
        here) keep their behaviour."""
        channels = self.targets.broadcasts
        if target:
            matched = [b for b in channels
                       if getattr(b, "name", None) in (
                           target, f"{target}.broadcast")]
            if matched:
                return matched
        return list(channels)

    def _fire_broadcast_outage(self, ev: FaultEvent) -> None:
        victims = self._pick_broadcasts(ev.target)
        for broadcast in victims:
            broadcast.set_up(False)
        self._note_disruption()
        if ev.duration_s > 0.0 and victims:
            names = tuple(getattr(b, "name", "") for b in victims)
            self.sim.call_at(self.sim.now + ev.duration_s,
                             self._restore_broadcast, names)

    def _restore_broadcast(self, names) -> None:
        restored = False
        for broadcast in self.targets.broadcasts:
            if getattr(broadcast, "name", "") in names and not broadcast.up:
                broadcast.set_up(True)
                restored = True
        if restored:
            self._restored("broadcast_outage")

    def _fire_carousel_interrupt(self, ev: FaultEvent) -> None:
        carousel = self.targets.carousel
        if carousel is None:
            # No carousel on this system: degrade to a broadcast outage
            # so the same plan stays portable across system flavours.
            self._fire_broadcast_outage(ev)
            return
        cycles = max(1, int(ev.magnitude))
        carousel.interrupt_for(cycles)
        self._note_disruption()

    def _fire_signature_corruption(self, ev: FaultEvent) -> None:
        for controller in self._pick_controllers(ev.target):
            controller.corrupt_signatures(True)
        self.sim.call_at(self.sim.now + ev.duration_s,
                         self._restore_signatures)

    def _restore_signatures(self) -> None:
        restored = False
        for controller in self.targets.controllers:
            if controller.corrupting_signatures:
                controller.corrupt_signatures(False)
                restored = True
        if restored:
            self._restored("signature_corruption")

    def _fire_churn_storm(self, ev: FaultEvent) -> None:
        nodes = list(self.targets.nodes())
        online = [n for n in nodes if n.online]
        if not online:
            return
        rng = self.sim.rng("faults")
        k = max(1, int(round(ev.magnitude * len(online))))
        k = min(k, len(online))
        idx = sorted(int(i) for i in
                     rng.choice(len(online), size=k, replace=False))
        victims = [online[i] for i in idx]
        for node in victims:
            node.shutdown()
        self._note_disruption()
        if ev.duration_s > 0.0:
            ids = tuple(n.pna_id for n in victims)
            self.sim.call_at(self.sim.now + ev.duration_s,
                             self._restore_storm, ids)

    # -- adversary kinds (Byzantine behaviour flips) -----------------------

    def _fire_adversary(self, ev: FaultEvent) -> None:
        """Shared victim selection for the Byzantine kinds: the same
        churn-storm idiom (seeded choice over currently-online nodes),
        restricted to nodes not already compromised so stacked plans
        compose instead of silently re-flipping the same victims."""
        nodes = list(self.targets.nodes())
        eligible = [n for n in nodes if n.online
                    and getattr(n, "adversary", None) is None]
        if not eligible:
            return
        rng = self.sim.rng("faults")
        k = max(1, int(round(ev.magnitude * len(eligible))))
        k = min(k, len(eligible))
        idx = sorted(int(i) for i in
                     rng.choice(len(eligible), size=k, replace=False))
        victims = [eligible[i] for i in idx]
        for node in victims:
            node.set_adversary(Adversary(ev.kind, node.pna_id))
        self._note_disruption()
        if ev.duration_s > 0.0:
            ids = tuple(n.pna_id for n in victims)
            self.sim.call_at(self.sim.now + ev.duration_s,
                             self._restore_adversaries, (ev.kind, ids))

    _fire_saboteur = _fire_adversary
    _fire_free_rider = _fire_adversary
    _fire_straggler = _fire_adversary
    _fire_heartbeat_spoof = _fire_adversary

    def _restore_adversaries(self, kind_ids) -> None:
        kind, ids = kind_ids
        wanted = set(ids)
        restored = 0
        for node in self.targets.nodes():
            adv = getattr(node, "adversary", None)
            if node.pna_id in wanted and adv is not None \
                    and adv.kind == kind:
                node.clear_adversary()
                restored += 1
        if restored:
            self._restored(kind, count=restored)

    def _restore_storm(self, ids) -> None:
        restored = 0
        wanted = set(ids)
        for node in self.targets.nodes():
            # Only power nodes back on if per-node churn has not already
            # done so (restart() on an online node would double-register).
            if node.pna_id in wanted and not node.online:
                node.restart()
                restored += 1
        self._restored("churn_storm", count=restored)
