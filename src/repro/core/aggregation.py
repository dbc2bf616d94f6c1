"""Hierarchical heartbeat aggregation — the paper's deferred problem.

Footnote 3 of the paper: "A discussion on possible mechanisms that
avoid the Controller from becoming a bottleneck is out of the scope of
this paper and it will be theme of our future research."  With millions
of PNAs, raw heartbeats overwhelm a single endpoint; the natural fix is
a tree of **aggregators**: each PNA shard reports to an aggregator,
which forwards a fixed-size *digest* (idle/busy counts per instance +
membership deltas) upstream every aggregation period.

This module implements one aggregation level, enough to change the
Controller's inbound message rate from Θ(N/heartbeat_interval) to
Θ(A/aggregation_interval) for A aggregators, while preserving the
information the Controller needs: per-instance live membership and the
idle census.  The A4 ablation quantifies the reduction.

Wiring: PNAs are pointed at an aggregator simply by constructing them
with ``controller_id=aggregator.aggregator_id`` — the agent code is
unchanged, exactly as the architecture intends (the PNA just knows "its
controller's" address).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.errors import OddCIError
from repro.core.messages import (CONTROL_PAYLOAD_BITS, HeartbeatPayload,
                                 PNAState)
from repro.core.network import Router
from repro.net.link import DuplexChannel
from repro.net.message import bits_from_bytes
from repro.sim.core import Simulator
from repro.sim.process import Interrupt

__all__ = ["HeartbeatDigest", "HeartbeatAggregator", "DigestingController"]


@dataclass(frozen=True)
class HeartbeatDigest:
    """Fixed-size summary one aggregator sends upstream per period.

    ``members`` maps instance_id → tuple of busy PNA ids seen this
    period; ``idle_count`` is the shard's fresh idle census.  The wire
    size is charged per member id (8 bytes each) plus a fixed header, so
    digests are *not* free — they are simply far fewer messages.
    """

    aggregator_id: str
    period_start: float
    period_end: float
    idle_count: int
    members: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def wire_bits(self) -> float:
        n_ids = sum(len(v) for v in self.members.values())
        return CONTROL_PAYLOAD_BITS + bits_from_bytes(8 * n_ids)


class HeartbeatAggregator:
    """Collects a shard's heartbeats; forwards periodic digests.

    The aggregator registers under its own component id (PNAs address it
    as their controller) and owns an uplink channel to the real
    Controller.  Reset commands for individual PNAs flow *down* through
    it transparently: the Controller addresses PNAs directly via the
    router (their direct channels are still individually reachable), so
    only the heartbeat/census path is re-shaped.
    """

    def __init__(
        self,
        sim: Simulator,
        router: Router,
        aggregator_id: str,
        controller_id: str,
        *,
        uplink: Optional[DuplexChannel] = None,
        aggregation_interval_s: float = 60.0,
        uplink_rate_bps: float = 10_000_000.0,
    ) -> None:
        if aggregation_interval_s <= 0:
            raise OddCIError("aggregation_interval_s must be > 0")
        self.sim = sim
        self.router = router
        self.aggregator_id = aggregator_id
        self.controller_id = controller_id
        self.aggregation_interval_s = aggregation_interval_s
        self.uplink = uplink or DuplexChannel(
            sim, rate_bps=uplink_rate_bps,
            name=f"{aggregator_id}.uplink")
        # The aggregator is itself a "PNA-like" endpoint to the router so
        # its digests traverse a real channel.  Nothing flows down to the
        # aggregator itself; resets go straight to PNAs.
        router.register_pna(aggregator_id + ".chan", self.uplink,
                            lambda payload: None)
        router.register_component(aggregator_id, self._receive_payload)

        self._idle_fresh: Set[str] = set()
        self._busy_fresh: Dict[str, Set[str]] = {}
        self._period_start = sim.now
        self.heartbeats_received = 0
        self.digests_sent = 0
        self._proc = sim.process(self._digest_loop())

    # -- shard-facing ------------------------------------------------------
    def _receive_payload(self, payload) -> None:
        if not isinstance(payload, HeartbeatPayload):
            raise OddCIError(
                f"aggregator got unexpected payload {payload!r}")
        self.heartbeats_received += 1
        if payload.state is PNAState.IDLE:
            self._idle_fresh.add(payload.pna_id)
            for members in self._busy_fresh.values():
                members.discard(payload.pna_id)
        else:
            self._idle_fresh.discard(payload.pna_id)
            self._busy_fresh.setdefault(
                payload.instance_id, set()).add(payload.pna_id)

    # -- upstream ------------------------------------------------------------
    def _digest_loop(self):
        try:
            while True:
                yield self.aggregation_interval_s
                digest = HeartbeatDigest(
                    aggregator_id=self.aggregator_id,
                    period_start=self._period_start,
                    period_end=self.sim.now,
                    idle_count=len(self._idle_fresh),
                    members={iid: tuple(sorted(m))
                             for iid, m in self._busy_fresh.items() if m},
                )
                self.router.send_from_pna(
                    self.aggregator_id + ".chan", self.controller_id,
                    digest, digest.wire_bits())
                self.digests_sent += 1
                self._period_start = self.sim.now
                self._idle_fresh.clear()
                self._busy_fresh.clear()
        except Interrupt:
            pass

    def shutdown(self) -> None:
        if self._proc.alive:
            self._proc.interrupt("aggregator shutdown")
        self.router.unregister_component(self.aggregator_id)
        self.router.unregister_pna(self.aggregator_id + ".chan")


class DigestingController:
    """Mixin-style receiver that lets a Controller consume digests.

    Wraps an existing :class:`~repro.core.controller.Controller`:
    replaces its router registration with one that accepts *both* raw
    heartbeats (rare, e.g. from legacy PNAs) and aggregator digests,
    translating digests into registry/membership updates.
    """

    def __init__(self, controller) -> None:
        self.controller = controller
        self.digests_received = 0
        router = controller.router
        router.unregister_component(controller.controller_id)
        # Heartbeat cohort batches carry only HeartbeatPayloads, so they
        # can bypass the digest dispatch straight into the controller's
        # columnar cohort path.
        router.register_component(controller.controller_id,
                                  self._receive_payload,
                                  receive_cohort=controller._receive_cohort)
        # The wakeup-probability policy must see the digest-informed idle
        # census, so the wrapped controller's estimator is overridden.
        controller.idle_estimate = self.idle_estimate

    def _receive_payload(self, payload) -> None:
        if isinstance(payload, HeartbeatDigest):
            self._apply_digest(payload)
            return
        # Fall through to the controller's native heartbeat handling.
        self.controller._receive_payload(payload)

    def _apply_digest(self, digest: HeartbeatDigest) -> None:
        self.digests_received += 1
        controller = self.controller
        census = controller.census
        interner = census.interner
        now = controller.sim.now
        controller.counters.incr("digests")
        controller._digest_idle = getattr(controller, "_digest_idle", {})
        controller._digest_idle[digest.aggregator_id] = (
            now, digest.idle_count)
        for instance_id, members in digest.members.items():
            record = controller.instances.get(instance_id)
            for pna_id in members:
                idx = interner.intern(pna_id)
                census.touch(idx, PNAState.BUSY, instance_id, now)
                if record is None or record.status.value in (
                        "dismantling", "destroyed"):
                    controller._reply_reset(pna_id)
                    continue
                trims = controller._pending_trims.get(instance_id, 0)
                if trims > 0:
                    controller._pending_trims[instance_id] = trims - 1
                    census.drop_member(record.census_handle, idx)
                    record.trims_sent += 1
                    controller._reply_reset(pna_id)
                else:
                    census.mark_member(record.census_handle, idx, now)

    def idle_estimate(self) -> int:
        """Aggregated idle census (fresh digests only)."""
        controller = self.controller
        horizon = controller.sim.now - controller._grace_window()
        digests = getattr(controller, "_digest_idle", {})
        from_digests = sum(count for (seen, count) in digests.values()
                           if seen >= horizon)
        # Legacy (un-aggregated) heartbeats still land in the census —
        # one columnar reduction covers them.
        return from_digests + controller.census.idle_estimate(horizon)
