"""Federated control plane: one Provider over N broadcast networks.

The paper envisions a single Provider spanning several broadcast
networks — DTV today, cellular and desktop tomorrow (Section 5).  This
module makes the Provider a real *matcher* over heterogeneous networks
instead of a pass-through to one Controller:

* :class:`NetworkDescriptor` — static properties of one broadcast
  network: node capacity, carousel/broadcast rate β, direct-channel
  rate δ, device-class mix and a cost per node-hour.
* :class:`ControllerShard` — one network's control stack: its own
  :class:`~repro.core.network.Router` (sharing the federation's
  :class:`~repro.core.census.NodeInterner`, so the shard owns a dense,
  contiguous node-id range), broadcast channel, control plane and
  :class:`~repro.core.controller.Controller`.
* :class:`FederatedProvider` — splits an instance request across
  shards by capacity/cost (placement policies ``"cost"`` and
  ``"spread"``), re-balances on resize or on network departure, and
  merges status/accounting.  Per-job :class:`~repro.core.backend.
  Backend`\\ s are registered on *every* shard's fabric (multi-router
  task routing) so one bag of tasks serves all networks with merged
  result accounting.
* :class:`FederatedOddCISystem` — facade wiring shards, provider,
  fleets and the fault injector, mirroring
  :class:`~repro.core.system.OddCISystem`.

Id-range sharding
-----------------
All shard routers intern node ids in one shared table.  Fleets are
built shard-by-shard, so each shard's members occupy one contiguous
index range ``[id_lo, id_hi)`` — membership questions like "which shard
owns node 713?" are a range compare, and per-shard census stores stay
dense.  A single-shard federation is byte-identical to the classic
``OddCISystem`` wiring: same component ids are possible, one router,
one interner, no extra RNG draws.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    ConfigurationError,
    ControllerDownError,
    InstanceError,
    ProvisioningError,
    QuarantinedNodeError,
)
from repro.core.backend import Backend, JobReport
from repro.core.census import NodeInterner
from repro.core.controller import Controller, DirectControlPlane
from repro.core.instance import InstanceRecord, InstanceSpec, InstanceStatus
from repro.core.network import Router
from repro.core.pna import PNA, PNABlock
from repro.core.policies import ProbabilityPolicy
from repro.core.provider import ProvisioningTicket, ready_size_for
from repro.faults import FaultInjector, FaultTargets, current_plan
from repro.net.broadcast import BroadcastChannel
from repro.net.crypto import KeyRegistry
from repro.sim.core import Event, Simulator
from repro.workloads.job import Job

__all__ = [
    "NetworkDescriptor",
    "ControllerShard",
    "FederatedSubmission",
    "FederatedCapacity",
    "FederatedProvider",
    "FederatedOddCISystem",
    "split_target",
    "node_hours",
]

#: placement policies the matcher understands.
PLACEMENTS = ("cost", "spread")


@dataclass(frozen=True)
class NetworkDescriptor:
    """Static properties of one broadcast network.

    Attributes
    ----------
    name:
        Network label (``dtv``, ``cell``, ...).  Used for component
        ids (``controller:<name>``), PNA ids (``<name>:pna-<i>``),
        broadcast channel names (``<name>.broadcast``) and telemetry
        labels.
    capacity:
        Maximum nodes this network can contribute to instances.
    beta_bps:
        Spare broadcast (carousel) capacity β.
    delta_bps / delta_latency_s / delta_loss:
        Direct-channel parameters δ for this network's nodes.
    cost_per_node_hour:
        What one recruited node-hour costs the Provider here — the
        ``"cost"`` placement policy fills cheap networks first.
    device_mix:
        Device-class name -> fraction of the fleet (informational +
        capability tagging; fractions need not be exhaustive).
    """

    name: str
    capacity: int
    beta_bps: float = 1_000_000.0
    delta_bps: float = 150_000.0
    delta_latency_s: float = 0.05
    delta_loss: float = 0.0
    cost_per_node_hour: float = 1.0
    device_mix: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("network name must be non-empty")
        if self.capacity <= 0:
            raise ConfigurationError(
                f"capacity must be > 0, got {self.capacity}")
        if self.beta_bps <= 0 or self.delta_bps <= 0:
            raise ConfigurationError("beta_bps and delta_bps must be > 0")
        if self.delta_latency_s < 0:
            raise ConfigurationError("delta_latency_s must be >= 0")
        if not 0.0 <= self.delta_loss < 1.0:
            raise ConfigurationError("delta_loss must be in [0, 1)")
        if self.cost_per_node_hour < 0:
            raise ConfigurationError("cost_per_node_hour must be >= 0")
        for cls, frac in self.device_mix.items():
            if not 0.0 <= float(frac) <= 1.0:
                raise ConfigurationError(
                    f"device_mix[{cls!r}] must be in [0, 1], got {frac}")


class ControllerShard:
    """One broadcast network's control stack inside a federation.

    Owns a Router on the federation's shared interner, a broadcast
    channel, a control plane and a Controller labelled with the
    network name.  Fleet building assigns this shard a contiguous
    node-id range ``[id_lo, id_hi)`` in the shared table.
    """

    def __init__(
        self,
        sim: Simulator,
        descriptor: NetworkDescriptor,
        key_registry: KeyRegistry,
        *,
        interner: Optional[NodeInterner] = None,
        probability_policy: Optional[ProbabilityPolicy] = None,
        maintenance_interval_s: float = 60.0,
    ) -> None:
        self.sim = sim
        self.descriptor = descriptor
        self.name = descriptor.name
        self.keys = key_registry
        self.router = Router(sim, interner=interner)
        self.broadcast = BroadcastChannel(
            sim, beta_bps=descriptor.beta_bps,
            name=f"{descriptor.name}.broadcast")
        self.control_plane = DirectControlPlane(
            self.broadcast, sender=f"controller:{descriptor.name}")
        self.controller = Controller(
            sim, self.router, self.control_plane, key_registry,
            controller_id=f"controller:{descriptor.name}",
            probability_policy=probability_policy,
            maintenance_interval_s=maintenance_interval_s,
            network=descriptor.name)
        self.pnas: List[PNA] = []
        #: contiguous interned-id range owned by this shard's fleet
        #: (empty until the first node registers).
        self.id_lo: Optional[int] = None
        self.id_hi: Optional[int] = None
        #: False while the network has left the federation (broadcast
        #: down, nodes off); the placement matcher skips it.
        self.online = True

    # -- fleet -----------------------------------------------------------
    def build_fleet(
        self,
        n: int,
        *,
        heartbeat_interval_s: float = 60.0,
        dve_poll_interval_s: float = 15.0,
        executor: Optional[Callable[[float], float]] = None,
    ) -> List[PNA]:
        """Create ``n`` nodes on this network (globally-unique PNA ids,
        capability-tagged by device class from the descriptor's mix)."""
        if n <= 0:
            raise ConfigurationError(f"n must be > 0, got {n}")
        if len(self.pnas) + n > self.descriptor.capacity:
            raise ProvisioningError(
                f"network {self.name!r} capacity "
                f"{self.descriptor.capacity} exceeded "
                f"({len(self.pnas)} + {n})")
        built: List[PNA] = []
        for device_class, count in self._device_classes(n):
            first = len(self.pnas)
            block = PNABlock.build(
                self.sim, self.router,
                [f"{self.name}:pna-{idx}"
                 for idx in range(first, first + count)],
                controller_key=self.keys.key_of(
                    self.controller.controller_id),
                controller_id=self.controller.controller_id,
                rate_bps=self.descriptor.delta_bps,
                latency_s=self.descriptor.delta_latency_s,
                loss=self.descriptor.delta_loss,
                channel_name=f"{self.name}.pna{{}}.direct",
                first_channel=first,
                capabilities=({"device_class": device_class}
                              if device_class else None),
                executor=executor,
                heartbeat_interval_s=heartbeat_interval_s,
                dve_poll_interval_s=dve_poll_interval_s)
            self.control_plane.attach_many(block)
            self.pnas.extend(block.pnas)
            built.extend(block.pnas)
            if self.id_lo is None:
                self.id_lo = int(block.rows[0])
            self.id_hi = int(block.rows[-1]) + 1
        return built

    def _device_classes(self, n: int) -> List[Tuple[Optional[str], int]]:
        """Deterministic class assignment matching the descriptor's mix:
        contiguous blocks in declaration order, remainder untagged, as
        ``(class, count)`` runs."""
        runs: List[Tuple[Optional[str], int]] = []
        start = 0
        for cls, frac in self.descriptor.device_mix.items():
            count = min(int(round(float(frac) * n)), n - start)
            if count > 0:
                runs.append((cls, count))
                start += count
        if start < n:
            runs.append((None, n - start))
        return runs

    def owns_index(self, idx: int) -> bool:
        """Does this shard's id range cover interned index ``idx``?"""
        return (self.id_lo is not None
                and self.id_lo <= idx < (self.id_hi or 0))

    @property
    def id_range(self) -> Tuple[int, int]:
        """The shard's ``[lo, hi)`` slice of the shared interner."""
        if self.id_lo is None:
            return (0, 0)
        return (self.id_lo, self.id_hi or self.id_lo)

    # -- membership churn ------------------------------------------------
    def depart(self) -> None:
        """The network leaves the federation mid-job: broadcast plane
        down, every node switched off.  The shard's Controller stays up
        (it is provider-side) and its census drains via missed
        heartbeats; re-entry is :meth:`rejoin`."""
        if not self.online:
            return
        self.online = False
        self.broadcast.set_up(False)
        for pna in self.pnas:
            if pna.online:
                pna.shutdown()

    def rejoin(self) -> None:
        """The network re-enters the federation: broadcast restored,
        nodes powered back on (idle, listening for wakeups)."""
        if self.online:
            return
        self.online = True
        self.broadcast.set_up(True)
        for pna in self.pnas:
            if not pna.online:
                pna.restart()

    @property
    def available(self) -> bool:
        """Eligible for placement: online and its Controller alive."""
        return self.online and self.controller.alive

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ControllerShard {self.name!r} nodes={len(self.pnas)} "
                f"ids={self.id_range} online={self.online}>")


# -- placement matcher ----------------------------------------------------

def split_target(target: int, networks: Sequence[Tuple[str, int, float]],
                 policy: str = "cost") -> Dict[str, int]:
    """Split ``target`` nodes across ``(name, headroom, cost)`` entries.

    ``"cost"`` fills the cheapest networks first (stable on ties:
    declaration order); ``"spread"`` splits proportionally to headroom
    with largest-remainder rounding (deterministic tie-break by
    declaration order).  Raises :class:`ProvisioningError` when the
    combined headroom cannot seat the target.
    """
    if policy not in PLACEMENTS:
        raise ConfigurationError(
            f"unknown placement {policy!r}; choose one of {PLACEMENTS}")
    if target <= 0:
        raise ProvisioningError(f"target must be > 0, got {target}")
    entries = [(name, int(headroom), float(cost))
               for name, headroom, cost in networks if headroom > 0]
    total = sum(h for _, h, _ in entries)
    if total < target:
        raise ProvisioningError(
            f"federation headroom {total} cannot seat target {target}")
    shares: Dict[str, int] = {}
    if policy == "cost":
        remaining = target
        for name, headroom, _cost in sorted(entries, key=lambda e: e[2]):
            take = min(headroom, remaining)
            if take > 0:
                shares[name] = take
                remaining -= take
            if remaining == 0:
                break
        return shares
    # "spread": proportional to headroom, largest-remainder rounding.
    quotas = [(name, headroom, target * headroom / total)
              for name, headroom, _cost in entries]
    base = {name: int(quota) for name, _h, quota in quotas}
    assigned = sum(base.values())
    remainders = sorted(
        ((quota - int(quota), order, name, headroom)
         for order, (name, headroom, quota) in enumerate(quotas)),
        key=lambda e: (-e[0], e[1]))
    for _frac, _order, name, headroom in remainders:
        if assigned >= target:
            break
        if base[name] < headroom:
            base[name] += 1
            assigned += 1
    return {name: share for name, share in base.items() if share > 0}


def node_hours(series, until: float) -> float:
    """Integrate a step-function size series into node-hours."""
    times = list(series.times)
    values = list(series.values)
    if not times:
        return 0.0
    total = 0.0
    prev_t, prev_v = times[0], values[0]
    for i in range(1, len(times)):
        if times[i] > until:
            break
        total += prev_v * (times[i] - prev_t)
        prev_t, prev_v = times[i], values[i]
    if until > prev_t:
        total += prev_v * (until - prev_t)
    return total / 3600.0


@dataclass
class FederatedSubmission:
    """A job split across the federation: one Backend, one instance per
    contributing network."""

    job: Job
    backend: Backend
    base_spec: InstanceSpec
    target_size: int
    #: network name -> that shard's InstanceRecord (including networks
    #: whose share has since been re-balanced to zero).
    records: Dict[str, InstanceRecord] = field(default_factory=dict)
    #: network name -> currently-committed share (zero entries pruned).
    shares: Dict[str, int] = field(default_factory=dict)
    #: every (network, record) this submission ever created, in creation
    #: order — re-balancing can retire and later re-create a network's
    #: instance, and size/cost accounting must span all of them.
    history: List[Tuple[str, InstanceRecord]] = field(default_factory=list)

    @property
    def federation_id(self) -> str:
        return self.backend.backend_id

    @property
    def done_event(self) -> Event:
        return self.backend.done_event

    @property
    def instance_ids(self) -> Dict[str, str]:
        return {name: record.instance_id
                for name, record in self.records.items()}


@dataclass
class FederatedCapacity:
    """Bare capacity (no job) split across the federation.

    The service tier's federated create path: each contributing network
    holds one instance, and the :class:`~repro.core.provider.
    ProvisioningTicket` settles on the *summed* census size, so a
    request is ready once the federation as a whole reaches the
    tolerance band — regardless of which networks supplied the nodes.
    """

    spec: InstanceSpec
    ticket: ProvisioningTicket
    records: Dict[str, InstanceRecord] = field(default_factory=dict)
    shares: Dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return sum(record.size for record in self.records.values())

    @property
    def instance_ids(self) -> Dict[str, str]:
        return {name: record.instance_id
                for name, record in self.records.items()}


class FederatedProvider:
    """One Provider federating N controller shards.

    The placement matcher splits each instance request across networks
    by capacity/cost, re-balances on :meth:`resize` and on topology
    changes (:meth:`rebalance` after a shard departs or rejoins), and
    the per-job Backend routes tasks over every shard's fabric with
    merged result accounting.
    """

    def __init__(self, sim: Simulator, shards: Sequence[ControllerShard],
                 *, placement: str = "cost") -> None:
        if not shards:
            raise ConfigurationError("federation needs at least one shard")
        if placement not in PLACEMENTS:
            raise ConfigurationError(
                f"unknown placement {placement!r}; "
                f"choose one of {PLACEMENTS}")
        names = [s.name for s in shards]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate shard names in {names}")
        self.sim = sim
        self.placement = placement
        self.shards: Dict[str, ControllerShard] = {
            s.name: s for s in shards}
        #: network name -> nodes committed across live submissions.
        self._committed: Dict[str, int] = {name: 0 for name in names}
        self._submissions: Dict[str, FederatedSubmission] = {}

    # -- inspection ------------------------------------------------------
    def backends(self) -> list:
        """Backends of every live submission (fault-injection set)."""
        return [s.backend for s in self._submissions.values()]

    def submissions(self) -> List[FederatedSubmission]:
        return list(self._submissions.values())

    def committed(self, network: str) -> int:
        return self._committed[network]

    def headroom(self, network: str) -> int:
        shard = self.shards[network]
        return max(0, shard.descriptor.capacity
                   - self._committed[network])

    def _placement_entries(self, exclude: Optional[FederatedSubmission]
                           ) -> List[Tuple[str, int, float]]:
        entries = []
        for name, shard in self.shards.items():
            if not shard.available:
                continue
            headroom = shard.descriptor.capacity - self._committed[name]
            if exclude is not None:
                headroom += exclude.shares.get(name, 0)
            entries.append((name, headroom,
                            shard.descriptor.cost_per_node_hour))
        return entries

    # -- job submission --------------------------------------------------
    def submit_job(
        self,
        job: Job,
        target_size: int,
        *,
        heartbeat_interval_s: float = 60.0,
        lifetime_s: Optional[float] = None,
        size_tolerance: float = 0.1,
        lease_factor: Optional[float] = None,
        lease_backoff_base: float = 1.0,
        lease_backoff_jitter: float = 0.0,
        worst_case_slowdown: float = 25.0,
        replicate_tail: bool = False,
        certify_policy=None,
        release_on_completion: bool = True,
    ) -> FederatedSubmission:
        """Run ``job`` on instances split across the federation.

        One Backend serves every network (registered on all shard
        routers); each contributing network gets its own
        :class:`InstanceSpec` sized by the placement matcher.  A
        ``certify_policy`` arms result certification on the shared
        Backend; quarantine evictions fan out to every shard controller
        that recognises the node.
        """
        if target_size <= 0:
            raise ProvisioningError(
                f"target_size must be > 0, got {target_size}")
        shares = split_target(target_size,
                              self._placement_entries(None),
                              self.placement)
        backend_id = f"backend-job{job.job_id}"
        routers = [shard.router for shard in self.shards.values()]
        networks = list(self.shards.keys())
        backend = Backend(self.sim, job, routers,
                          backend_id=backend_id, networks=networks,
                          lease_factor=lease_factor,
                          lease_backoff_base=lease_backoff_base,
                          lease_backoff_jitter=lease_backoff_jitter,
                          worst_case_slowdown=worst_case_slowdown,
                          replicate_tail=replicate_tail,
                          certify_policy=certify_policy)
        if backend.certifier is not None:
            backend.certifier.on_quarantine = self._quarantine_everywhere
        base_spec = InstanceSpec(
            target_size=target_size,
            image_name=job.name or f"job-{job.job_id}",
            image_bits=job.image_bits,
            requirements=job.requirements,
            lifetime_s=lifetime_s,
            heartbeat_interval_s=heartbeat_interval_s,
            size_tolerance=size_tolerance,
            backend_id=backend_id,
        )
        submission = FederatedSubmission(
            job=job, backend=backend, base_spec=base_spec,
            target_size=target_size)
        for name, share in shares.items():
            record = self.shards[name].controller.create_instance(
                dataclasses.replace(base_spec, target_size=share))
            submission.records[name] = record
            submission.history.append((name, record))
            submission.shares[name] = share
            self._committed[name] += share
        self._submissions[submission.federation_id] = submission
        if release_on_completion:
            backend.done_event.add_callback(
                lambda ev, fid=submission.federation_id:
                self._auto_release(fid))
        return submission

    # -- bare capacity ---------------------------------------------------
    def request_capacity_async(
        self,
        spec: InstanceSpec,
        *,
        tenant: str = "",
        request_id: str = "",
        poll_interval_s: float = 1.0,
        timeout_s: Optional[float] = None,
    ) -> FederatedCapacity:
        """Provision bare capacity across the federation with a ticket.

        The placement matcher splits ``spec.target_size`` over the
        available shards (same policy as :meth:`submit_job`); the
        ticket's size callable sums every contributing record, so
        readiness is a federation-wide property.  If any shard refuses
        its share mid-placement, already-created instances are rolled
        back (best effort) before the error propagates — a failed
        request never leaks committed headroom.
        """
        shares = split_target(spec.target_size,
                              self._placement_entries(None),
                              self.placement)
        records: Dict[str, InstanceRecord] = {}
        try:
            for name, share in shares.items():
                records[name] = self.shards[name].controller.create_instance(
                    dataclasses.replace(spec, target_size=share))
                self._committed[name] += share
        except Exception:
            for name, record in records.items():
                self._committed[name] -= shares[name]
                try:
                    self.shards[name].controller.destroy_instance(
                        record.instance_id)
                except (InstanceError, ControllerDownError):
                    pass
            raise
        ticket = ProvisioningTicket(
            self.sim, ready_size=ready_size_for(spec),
            size_fn=lambda: sum(r.size for r in records.values()),
            tenant=tenant, request_id=request_id,
            poll_interval_s=poll_interval_s, timeout_s=timeout_s)
        return FederatedCapacity(spec=spec, ticket=ticket,
                                 records=records, shares=dict(shares))

    def release_capacity(self, capacity: FederatedCapacity) -> bool:
        """Tear down bare capacity: cancel + dismantle + refund headroom.

        Best-effort and idempotent, mirroring :meth:`Provider.
        cancel_request`: an unsettled ticket is failed with
        ``reason="cancelled"``, crashed shards are skipped (lifetime
        reaps their instances after restore), and committed headroom is
        refunded exactly once.  Returns ``True`` when every live
        instance was dismantled cleanly.
        """
        capacity.ticket.cancel()
        clean = True
        for name, record in capacity.records.items():
            if record.status in (InstanceStatus.DISMANTLING,
                                 InstanceStatus.DESTROYED):
                continue
            try:
                self.shards[name].controller.destroy_instance(
                    record.instance_id)
            except (InstanceError, ControllerDownError):
                clean = False
        for name, share in capacity.shares.items():
            self._committed[name] -= share
        capacity.shares.clear()
        return clean

    # -- lifecycle -------------------------------------------------------
    def resize(self, submission: FederatedSubmission,
               new_target: int) -> Dict[str, int]:
        """Re-split ``submission`` to ``new_target`` total nodes."""
        if new_target <= 0:
            raise ProvisioningError(
                f"new_target must be > 0, got {new_target}")
        shares = split_target(new_target,
                              self._placement_entries(submission),
                              self.placement)
        self._apply_shares(submission, shares)
        submission.target_size = new_target
        return dict(shares)

    def rebalance(self, submission: FederatedSubmission) -> Dict[str, int]:
        """Re-split after topology change (a network departed/rejoined):
        departed shards' shares move to the remaining headroom.

        Best-effort, unlike :meth:`resize`: when the survivors cannot
        seat the full target the matcher places what fits and the
        instance runs degraded (availability accounting sees the
        shortfall); the deficit is restored by the next re-balance
        after capacity returns.  With no available shard at all the
        current shares are left untouched."""
        entries = self._placement_entries(submission)
        goal = min(submission.target_size,
                   sum(headroom for _, headroom, _ in entries))
        if goal <= 0:
            return dict(submission.shares)
        shares = split_target(goal, entries, self.placement)
        self._apply_shares(submission, shares)
        return dict(shares)

    def rebalance_all(self) -> None:
        for submission in list(self._submissions.values()):
            self.rebalance(submission)

    def _apply_shares(self, submission: FederatedSubmission,
                      shares: Dict[str, int]) -> None:
        base_spec = submission.base_spec
        for name, shard in self.shards.items():
            share = shares.get(name, 0)
            record = submission.records.get(name)
            live = record is not None and record.status not in (
                InstanceStatus.DISMANTLING, InstanceStatus.DESTROYED)
            if share > 0:
                if live and record.spec.target_size != share:
                    shard.controller.resize_instance(
                        record.instance_id, share)
                elif not live:
                    record = shard.controller.create_instance(
                        dataclasses.replace(base_spec, target_size=share))
                    submission.records[name] = record
                    submission.history.append((name, record))
            elif live and submission.shares.get(name, 0) > 0:
                # Share re-balanced away: dismantle this network's
                # instance (deferred broadcast if the plane is down).
                shard.controller.destroy_instance(record.instance_id)
            delta = share - submission.shares.get(name, 0)
            self._committed[name] += delta
            if share > 0:
                submission.shares[name] = share
            else:
                submission.shares.pop(name, None)

    def release(self, submission: FederatedSubmission) -> None:
        """Dismantle every network's instance and shut the Backend down.

        Shards whose Controller is crashed are skipped — their
        instances are reaped by lifetime (or an explicit release after
        restore) — but the submission is always evicted so
        :meth:`backends` stops advertising a dead Backend."""
        for name, record in submission.records.items():
            if record.status in (InstanceStatus.DISMANTLING,
                                 InstanceStatus.DESTROYED):
                continue
            try:
                self.shards[name].controller.destroy_instance(
                    record.instance_id)
            except ControllerDownError:
                pass
        for name, share in submission.shares.items():
            self._committed[name] -= share
        submission.shares.clear()
        submission.backend.shutdown()
        self._submissions.pop(submission.federation_id, None)

    def _auto_release(self, federation_id: str) -> None:
        submission = self._submissions.get(federation_id)
        if submission is not None:
            self.release(submission)

    def _quarantine_everywhere(self, pna_id: str, reason: str) -> None:
        """Evict a quarantined node from whichever shard knows it.

        The certifier does not know which network a node came from, so
        the eviction is offered to every shard controller; controllers
        that have never seen the node ignore it (quarantine_node is a
        no-census no-op for unknown ids).  Crashed shards are skipped —
        their census is rebuilt on restore and the node stays
        blacklisted on the shards that saw the eviction.
        """
        for shard in self.shards.values():
            quarantine = getattr(shard.controller, "quarantine_node", None)
            if quarantine is None or not shard.available:
                continue
            try:
                quarantine(pna_id, reason)
            except QuarantinedNodeError:
                pass

    # -- reporting -------------------------------------------------------
    def status(self, submission: FederatedSubmission) -> dict:
        """Merged status across every contributing network."""
        per_network = {}
        total_size = 0
        for name, record in submission.records.items():
            per_network[name] = {
                "instance_id": record.instance_id,
                "status": record.status.value,
                "size": record.size,
                "target_size": record.spec.target_size,
                "wakeups_sent": record.wakeups_sent,
            }
            total_size += record.size
        return {
            "federation_id": submission.federation_id,
            "target_size": submission.target_size,
            "size": total_size,
            "networks": per_network,
            "tasks_completed": submission.backend.completed_count,
            "tasks_total": submission.job.n,
        }

    def size_series(self, submission: FederatedSubmission
                    ) -> List[Tuple[str, Any]]:
        """Every instance-size TimeSeries the submission ever had, as
        ``(network, series)`` pairs in creation order.

        A network can contribute *several* sequential instances when
        re-balancing retires its share and a later re-balance brings it
        back; a retired instance's series drains to zero, so summing
        the lot (:func:`repro.faults.merged_size_series`) yields the
        federation-wide size."""
        out: List[Tuple[str, Any]] = []
        for name, record in submission.history:
            series = self.shards[name].controller.size_history.get(
                record.instance_id)
            if series is not None:
                out.append((name, series))
        return out

    def cost_estimate(self, submission: FederatedSubmission,
                      until: float) -> float:
        """Node-hour cost of the submission across networks."""
        total = 0.0
        for name, series in self.size_series(submission):
            rate = self.shards[name].descriptor.cost_per_node_hour
            total += rate * node_hours(series, until)
        return total

    def run_job_to_completion(self, submission: FederatedSubmission,
                              limit_s: float = 1e9) -> JobReport:
        """Drive the simulation until the submission's job finishes."""
        return self.sim.run_until_event(submission.done_event,
                                        limit=limit_s)


class FederatedOddCISystem:
    """A complete federated OddCI deployment.

    Wires one :class:`ControllerShard` per :class:`NetworkDescriptor`
    over a shared simulator, key registry and node-id interner, a
    :class:`FederatedProvider` on top, and — when an ambient fault plan
    is active — a :class:`~repro.faults.FaultInjector` whose targets
    span every shard (a crash selector may name one shard's network or
    controller id; see :mod:`repro.faults.plan`)."""

    def __init__(
        self,
        networks: Sequence[NetworkDescriptor],
        *,
        sim: Optional[Simulator] = None,
        seed: Optional[int] = 0,
        placement: str = "cost",
        probability_policy: Optional[ProbabilityPolicy] = None,
        maintenance_interval_s: float = 60.0,
    ) -> None:
        if not networks:
            raise ConfigurationError("need at least one NetworkDescriptor")
        self.sim = sim or Simulator(seed=seed)
        self.keys = KeyRegistry()
        #: the federation-wide node-id table every shard router shares.
        self.interner = NodeInterner()
        self.shards: List[ControllerShard] = [
            ControllerShard(self.sim, descriptor, self.keys,
                            interner=self.interner,
                            probability_policy=probability_policy,
                            maintenance_interval_s=maintenance_interval_s)
            for descriptor in networks]
        self.provider = FederatedProvider(self.sim, self.shards,
                                          placement=placement)
        self.fault_injector: Optional[FaultInjector] = None
        plan = current_plan()
        if plan is not None and plan.events:
            self.fault_injector = FaultInjector(
                self.sim, plan,
                FaultTargets(
                    controllers=[s.controller for s in self.shards],
                    broadcasts=[s.broadcast for s in self.shards],
                    backends=self.provider.backends,
                    nodes=lambda: [p for s in self.shards
                                   for p in s.pnas]))

    def shard(self, name: str) -> ControllerShard:
        return self.provider.shards[name]

    def build_fleets(self, per_network: Optional[Mapping[str, int]] = None,
                     **fleet_kwargs: Any) -> None:
        """Build each shard's fleet — shard order, so id ranges come out
        contiguous.  Default: every shard at descriptor capacity."""
        for shard in self.shards:
            n = (per_network or {}).get(
                shard.name, shard.descriptor.capacity)
            if n > 0:
                shard.build_fleet(n, **fleet_kwargs)

    @property
    def pnas(self) -> List[PNA]:
        return [p for s in self.shards for p in s.pnas]
