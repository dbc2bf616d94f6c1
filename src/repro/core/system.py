"""The one system builder: a complete OddCI deployment.

:class:`OddCISystem` assembles the simulator-side plumbing — one
router, broadcast channel, control plane and Controller per broadcast
network, a key registry and node-id interner they share, and the
Provider over them — and offers helpers to build PNA fleets.  The DTV
binding, :class:`repro.dtv_oddci.OddCIDTVSystem`, is a subclass that
swaps in its control plane and builds set-top-box fleets.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.core.census import STATE_BUSY, NodeInterner
from repro.core.controller import Controller, DirectControlPlane
from repro.core.network import Router
from repro.core.pna import PNA, Fleet, PNABlock
from repro.core.policies import ProbabilityPolicy
from repro.core.provider import (
    UNBOUNDED,
    ControllerShard,
    NetworkDescriptor,
    Provider,
)
from repro.faults import FaultInjector, FaultTargets, current_plan
from repro.net.broadcast import BroadcastChannel
from repro.net.crypto import KeyRegistry
from repro.sim.core import Simulator

__all__ = ["OddCISystem"]


class OddCISystem:
    """A generic OddCI deployment over raw broadcast channels.

    Without ``networks`` it is one unnamed network of unbounded
    capacity, with the plain component names (``controller``,
    ``oddci.broadcast``, ``pna-<k>``).  With ``networks`` it builds one
    :class:`~repro.core.provider.ControllerShard` per
    :class:`~repro.core.provider.NetworkDescriptor` over a shared
    simulator, key registry and node-id interner, names each network's
    components after it (``controller:<name>``, ``<name>:pna-<k>``),
    and — when an ambient fault plan is active — wires a
    :class:`~repro.faults.FaultInjector` whose targets span every
    network (a crash selector may name one network or its controller
    id; see :mod:`repro.faults.plan`).

    ``router``, ``broadcast``, ``control_plane`` and ``controller`` are
    the first network's; :meth:`add_pnas` builds there and
    :meth:`build_fleets` on every network.  A subclass swaps a
    network's broadcast channel and control plane in
    :meth:`_broadcast_plane`.

    Parameters
    ----------
    networks:
        The broadcast networks; ``None`` for a single one made of the
        parameters below.
    placement:
        How the Provider splits an instance across networks
        (``"cost"`` or ``"spread"``).
    beta_bps:
        Spare broadcast capacity β of the single network.
    delta_bps / delta_latency_s / delta_loss:
        Direct-channel capacity δ per node of the single network.
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        *,
        networks: Optional[Sequence[NetworkDescriptor]] = None,
        placement: str = "cost",
        beta_bps: float = 1_000_000.0,
        delta_bps: float = 150_000.0,
        delta_latency_s: float = 0.05,
        probability_policy: Optional[ProbabilityPolicy] = None,
        maintenance_interval_s: float = 60.0,
        seed: Optional[int] = 0,
        delta_loss: float = 0.0,
    ) -> None:
        if networks is None:
            networks = [NetworkDescriptor(
                beta_bps=beta_bps, delta_bps=float(delta_bps),
                delta_latency_s=float(delta_latency_s),
                delta_loss=float(delta_loss))]
        self.sim = sim or Simulator(seed=seed)
        self.keys = KeyRegistry()
        #: the node-id table every network's router shares.
        self.interner = NodeInterner()
        self.shards: List[ControllerShard] = []
        for descriptor in networks:
            name = descriptor.name
            controller_id = f"controller:{name}" if name else "controller"
            router = Router(self.sim, interner=self.interner)
            broadcast, control_plane = self._broadcast_plane(
                descriptor, controller_id)
            controller = Controller(
                self.sim, router, control_plane,
                self.keys, controller_id=controller_id,
                probability_policy=probability_policy,
                maintenance_interval_s=maintenance_interval_s,
                network=name)
            self.shards.append(
                ControllerShard(descriptor, controller, broadcast))
        self.provider = Provider(self.sim, self.shards, placement=placement)
        first = self.shards[0]
        self.router, self.broadcast = first.router, first.broadcast
        self.controller = first.controller
        self.control_plane = first.controller.control_plane
        self.delta_bps = first.descriptor.delta_bps
        self.delta_latency_s = first.descriptor.delta_latency_s
        self.delta_loss = first.descriptor.delta_loss
        #: every PNA in build order; a bulk block's are views built on
        #: first access (see repro.core.pna.PNABlock)
        self.pnas = Fleet()
        # Ambient fault plan (runner's --faults, or active_plan()): wire
        # the injector against this deployment's components.  None when
        # faults are disabled — zero scheduling, zero RNG draws.
        self.fault_injector: Optional[FaultInjector] = None
        plan = current_plan()
        if plan is not None and plan.events:
            self.fault_injector = FaultInjector(
                self.sim, plan,
                FaultTargets(controllers=[s.controller for s in self.shards],
                             backends=self.provider.backends,
                             broadcasts=[s.broadcast for s in self.shards],
                             carousel=self.control_plane.carousel,
                             nodes=lambda: list(self.pnas)))

    def _broadcast_plane(self, descriptor: NetworkDescriptor,
                         controller_id: str):
        """The broadcast channel and control plane of one network: a
        raw channel of capacity β carrying the whole wakeup."""
        broadcast = BroadcastChannel(
            self.sim, beta_bps=descriptor.beta_bps,
            name=f"{descriptor.name or 'oddci'}.broadcast")
        return broadcast, DirectControlPlane(broadcast, sender=controller_id)

    def shard(self, name: str) -> ControllerShard:
        return self.provider.shards[name]

    def add_pna(self, **kwargs: Any) -> PNA:
        """Create one PNA (see :meth:`add_pnas`)."""
        return self.add_pnas(1, **kwargs)[0]

    def add_pnas(
        self,
        n: int,
        *,
        capabilities: Optional[Mapping[str, Any]] = None,
        executor: Optional[Callable[[float], float]] = None,
        heartbeat_interval_s: float = 60.0,
        dve_poll_interval_s: float = 15.0,
    ) -> PNABlock:
        """Create ``n`` identical PNAs ``pna-{k}`` on the first network,
        each with its own direct channel, attached to the broadcast
        plane as one block (see :class:`~repro.core.pna.PNABlock`)."""
        block = self.shards[0].add_pnas(
            n, capabilities=capabilities, executor=executor,
            heartbeat_interval_s=heartbeat_interval_s,
            dve_poll_interval_s=dve_poll_interval_s)
        self.pnas.extend(block)
        return block

    def build_fleets(self, per_network: Optional[Mapping[str, int]] = None,
                     **fleet_kwargs: Any) -> None:
        """Build each network's fleet — network order, so id ranges come
        out contiguous.  Default: every network at its capacity."""
        for shard in self.shards:
            n = (per_network or {}).get(
                shard.name, shard.descriptor.capacity)
            if n == UNBOUNDED:
                raise ConfigurationError(
                    f"network {shard.name!r} has no capacity bound: "
                    f"give its fleet size")
            if n > 0:
                for block in shard.build_fleet(n, **fleet_kwargs):
                    self.pnas.extend(block)

    # -- quick stats -------------------------------------------------------------
    def busy_count(self, *, online: bool = False) -> int:
        """PNAs that are BUSY (and, with ``online``, powered on): one
        reduction over each network's fleet rows."""
        count = 0
        for shard in self.shards:
            router, rows = shard.router, shard.pnas.rows()
            busy = router.view("pna_state", rows) == STATE_BUSY
            if online:
                busy &= router.view("pna_online", rows) != 0
            count += int(np.count_nonzero(busy))
        return count

    def online_count(self) -> int:
        """PNAs powered on: one reduction over each network's rows."""
        return sum(int(np.count_nonzero(
            shard.router.view("pna_online", shard.pnas.rows())))
            for shard in self.shards)

    def idle_count(self) -> int:
        return len(self.pnas) - self.busy_count()
