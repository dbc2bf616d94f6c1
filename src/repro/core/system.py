"""Convenience facade wiring a complete generic OddCI deployment.

:class:`OddCISystem` assembles the simulator-side plumbing — router, key
registry, broadcast channel, control plane, Controller and Provider —
and offers helpers to build PNA fleets.  Examples and benchmarks build
on this facade; the individual components remain fully usable on their
own (the DTV binding in :mod:`repro.dtv_oddci` wires them differently).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, List, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.core.census import STATE_BUSY
from repro.core.controller import Controller, DirectControlPlane
from repro.core.network import Router
from repro.core.pna import PNA, PNABlock
from repro.core.policies import ProbabilityPolicy
from repro.core.provider import Provider
from repro.faults import FaultInjector, FaultTargets, current_plan
from repro.net.broadcast import BroadcastChannel
from repro.net.crypto import KeyRegistry
from repro.net.link import column_view
from repro.sim.core import Simulator

__all__ = ["OddCISystem"]

_census_idx = attrgetter("census_idx")


class OddCISystem:
    """A generic OddCI deployment over a raw broadcast channel.

    Parameters
    ----------
    beta_bps:
        Spare broadcast capacity β.
    delta_bps:
        Direct-channel capacity δ per node.
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        *,
        beta_bps: float = 1_000_000.0,
        delta_bps: float = 150_000.0,
        delta_latency_s: float = 0.05,
        probability_policy: Optional[ProbabilityPolicy] = None,
        maintenance_interval_s: float = 60.0,
        seed: Optional[int] = 0,
        delta_loss: float = 0.0,
    ) -> None:
        if delta_bps <= 0:
            raise ConfigurationError("delta_bps must be > 0")
        if delta_latency_s < 0:
            raise ConfigurationError("delta_latency_s must be >= 0")
        if not 0.0 <= delta_loss < 1.0:
            raise ConfigurationError("delta_loss must be in [0, 1)")
        self.sim = sim or Simulator(seed=seed)
        self.delta_bps = float(delta_bps)
        self.delta_latency_s = float(delta_latency_s)
        self.delta_loss = float(delta_loss)
        self.router = Router(self.sim)
        self.keys = KeyRegistry()
        self.broadcast = BroadcastChannel(self.sim, beta_bps=beta_bps,
                                          name="oddci.broadcast")
        self.control_plane = DirectControlPlane(self.broadcast)
        self.controller = Controller(
            self.sim, self.router, self.control_plane, self.keys,
            probability_policy=probability_policy,
            maintenance_interval_s=maintenance_interval_s)
        self.provider = Provider(self.sim, self.controller)
        self.pnas: List[PNA] = []
        # Ambient fault plan (runner's --faults, or active_plan()): wire
        # the injector against this deployment's components.  None when
        # faults are disabled — zero scheduling, zero RNG draws.
        self.fault_injector: Optional[FaultInjector] = None
        plan = current_plan()
        if plan is not None and plan.events:
            self.fault_injector = FaultInjector(
                self.sim, plan,
                FaultTargets(controller=self.controller,
                             backends=self.provider.backends,
                             broadcast=self.broadcast,
                             nodes=lambda: list(self.pnas)))

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
    ) -> List[PNA]:
        """Create ``n`` identical PNAs, each with its own direct channel,
        attached to the broadcast plane as one block (see
        :class:`~repro.core.pna.PNABlock`)."""
        if n <= 0:
            raise ConfigurationError(f"n must be > 0, got {n}")
        first = len(self.pnas)
        block = PNABlock.build(
            self.sim, self.router,
            [f"pna-{idx}" for idx in range(first, first + n)],
            controller_key=self.keys.key_of(self.controller.controller_id),
            controller_id=self.controller.controller_id,
            rate_bps=self.delta_bps, latency_s=self.delta_latency_s,
            loss=self.delta_loss, channel_name="pna{}.direct",
            first_channel=first, capabilities=capabilities,
            executor=executor, heartbeat_interval_s=heartbeat_interval_s,
            dve_poll_interval_s=dve_poll_interval_s)
        self.control_plane.attach_many(block)
        self.pnas.extend(block.pnas)
        return block.pnas

    # -- quick stats -------------------------------------------------------------
    def busy_count(self) -> int:
        rows = np.fromiter(map(_census_idx, self.pnas), np.int64,
                           len(self.pnas))
        return int(np.count_nonzero(
            column_view(self.router.pna_state)[rows] == STATE_BUSY))

    def idle_count(self) -> int:
        return len(self.pnas) - self.busy_count()
