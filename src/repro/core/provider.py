"""Provider: the user-facing front door of an OddCI deployment.

The Provider (paper Section 3.1) creates, manages and destroys OddCI
instances according to user requests, delegating the broadcast-side
mechanics to Controllers.  It also owns per-job Backends: a user
submits a :class:`~repro.workloads.job.Job`, the Provider spins up a
Backend for it, sizes an instance, and reports the makespan when the
job completes.

One Provider spans one or more broadcast networks — DTV today,
cellular and desktop tomorrow (Section 5):

* :class:`NetworkDescriptor` — static properties of one network: node
  capacity, broadcast rate β, direct-channel rate δ, device-class mix
  and a cost per node-hour.
* :class:`ControllerShard` — one network behind the Provider: its
  Controller plus its descriptor and, when a deployment built it, its
  broadcast channel and fleet.
* :func:`split_target` — the placement matcher: it splits every
  instance across the available networks by capacity and cost
  (``"cost"`` or ``"spread"``); :meth:`Provider.resize` and
  :meth:`Provider.rebalance` re-split it.  A job's Backend is
  registered on every network's fabric, so one bag of tasks serves
  them all with merged result accounting.

A single network is a federation of one: an unnamed shard of
unbounded capacity, so the matcher places the whole target on it.
Bare capacity (:meth:`Provider.request_instance` and its async form)
runs on a single network only.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, \
    Tuple

from repro.errors import (
    ConfigurationError,
    ControllerDownError,
    InstanceError,
    ProvisioningError,
)
from repro.core.backend import Backend, JobReport
from repro.core.controller import Controller
from repro.core.instance import InstanceRecord, InstanceSpec, InstanceStatus
from repro.core.pna import Fleet, PNABlock
from repro.net.broadcast import BroadcastChannel
from repro.sim.core import Event, Simulator
from repro.workloads.job import Job

__all__ = ["ControllerShard", "NetworkDescriptor", "Provider",
           "ProvisioningTicket", "Submission", "node_hours",
           "ready_size_for", "split_target"]

#: placement policies the matcher understands.
PLACEMENTS = ("cost", "spread")
#: capacity of a network that sets no bound: the single network of
#: OddCISystem and OddCIDTVSystem.
UNBOUNDED = sys.maxsize
#: statuses of an instance that no longer holds its share.
_GONE = (InstanceStatus.DISMANTLING, InstanceStatus.DESTROYED)


@dataclass(frozen=True)
class NetworkDescriptor:
    """Static properties of one broadcast network.

    Attributes
    ----------
    name:
        Network label (``dtv``, ``cell``, ...).  Used for component
        ids (``controller:<name>``), PNA ids (``<name>:pna-<i>``),
        broadcast channel names (``<name>.broadcast``) and telemetry
        labels.  Empty for the single network of a one-network
        deployment, which keeps the plain names (``controller``,
        ``pna-<i>``, ``oddci.broadcast``).
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

    name: str = ""
    capacity: int = UNBOUNDED
    beta_bps: float = 1_000_000.0
    delta_bps: float = 150_000.0
    delta_latency_s: float = 0.05
    delta_loss: float = 0.0
    cost_per_node_hour: float = 1.0
    device_mix: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
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
    """One broadcast network behind a Provider.

    A Controller plus the network's :class:`NetworkDescriptor`
    (capacity and cost for the placement matcher).  A shard an
    :class:`~repro.core.system.OddCISystem` built also has its
    broadcast channel and builds its fleet: the shards' routers share
    one interner and fleets are built shard by shard, so each shard
    owns one contiguous node-id range ``[id_lo, id_hi)``.
    """

    def __init__(self, descriptor: NetworkDescriptor, controller: Controller,
                 broadcast: Optional[BroadcastChannel] = None) -> None:
        self.descriptor = descriptor
        self.name = descriptor.name
        self.controller = controller
        self.router = controller.router
        self.broadcast = broadcast
        #: every PNA built on this network, in build order
        self.pnas = Fleet()
        #: contiguous interned-id range owned by this shard's fleet
        #: (empty until the first node registers).
        self.id_lo: Optional[int] = None
        self.id_hi: Optional[int] = None
        #: False while the network has left (broadcast down, nodes off);
        #: the placement matcher skips it.
        self.online = True

    # -- fleet -----------------------------------------------------------
    def add_pnas(
        self,
        n: int,
        *,
        capabilities: Optional[Mapping[str, Any]] = None,
        executor: Optional[Callable[[float], float]] = None,
        heartbeat_interval_s: float = 60.0,
        dve_poll_interval_s: float = 15.0,
    ) -> PNABlock:
        """Create ``n`` identical PNAs, each with its own direct channel,
        attached to this network's control plane as one block (see
        :class:`~repro.core.pna.PNABlock`)."""
        self._check_room(n)
        descriptor, controller = self.descriptor, self.controller
        scope = f"{self.name}:" if self.name else ""
        block = PNABlock(
            controller.sim, self.router, f"{scope}pna-", len(self.pnas), n,
            controller_key=controller.key,
            controller_id=controller.controller_id,
            rate_bps=descriptor.delta_bps,
            latency_s=descriptor.delta_latency_s,
            loss=descriptor.delta_loss,
            channel_name=(f"{self.name}.pna{{}}.direct" if self.name
                          else "pna{}.direct"),
            capabilities=capabilities, executor=executor,
            heartbeat_interval_s=heartbeat_interval_s,
            dve_poll_interval_s=dve_poll_interval_s)
        controller.control_plane.attach(block)
        self.adopt(block)
        return block

    def adopt(self, block: PNABlock) -> None:
        """Add ``block``, built on this network's router after its last
        one, to the fleet and its id range."""
        self.pnas.extend(block)
        if self.id_lo is None:
            self.id_lo = block.lo
        self.id_hi = block.hi

    def build_fleet(self, n: int, **fleet_kwargs: Any) -> List[PNABlock]:
        """Create ``n`` nodes tagged by device class: contiguous blocks
        in the descriptor mix's declaration order, remainder untagged."""
        self._check_room(n)
        runs: List[Tuple[Optional[str], int]] = []
        start = 0
        for cls, frac in self.descriptor.device_mix.items():
            count = min(int(round(float(frac) * n)), n - start)
            if count > 0:
                runs.append((cls, count))
                start += count
        if start < n:
            runs.append((None, n - start))
        return [self.add_pnas(
            count, capabilities={"device_class": cls} if cls else None,
            **fleet_kwargs) for cls, count in runs]

    def _check_room(self, n: int) -> None:
        if n <= 0:
            raise ConfigurationError(f"n must be > 0, got {n}")
        if len(self.pnas) + n > self.descriptor.capacity:
            raise ProvisioningError(
                f"network {self.name!r} capacity "
                f"{self.descriptor.capacity} exceeded "
                f"({len(self.pnas)} + {n})")

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
        """The network leaves mid-job: broadcast plane down, every node
        switched off.  The shard's Controller stays up (it is
        provider-side) and its census drains via missed heartbeats;
        re-entry is :meth:`rejoin`."""
        if not self.online:
            return
        self.online = False
        self.broadcast.set_up(False)
        for pna in self.pnas:
            if pna.online:
                pna.shutdown()

    def rejoin(self) -> None:
        """The network comes back: broadcast restored, nodes powered
        back on (idle, listening for wakeups)."""
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


def ready_size_for(spec: InstanceSpec) -> int:
    """Member count at which an instance counts as *ready*.

    Mirrors the Controller's tolerance band: the instance is within
    tolerance once ``target - floor(tolerance * target)`` nodes joined.
    Always at least 1 so a ticket can never be satisfied by an empty
    instance.
    """
    target = spec.target_size
    return max(1, target - int(math.floor(spec.size_tolerance * target)))


class ProvisioningTicket:
    """Async handle for an in-flight capacity request.

    Wraps the polling loop between "the Controller accepted the spec"
    and "enough PNAs joined the census": the ticket samples a size
    callable on the DES clock and settles :attr:`event` exactly once —

    * ``succeed(ticket)`` when the observed size first reaches
      ``ready_size`` (``time_to_ready`` records the latency), or
    * ``fail(ProvisioningError)`` when ``timeout_s`` elapses first, or
      :meth:`cancel` is called.

    The ticket never tears capacity down itself — the caller owns the
    instance and decides between :meth:`Provider.release` and
    :meth:`Provider.cancel_request` on failure.
    """

    __slots__ = ("sim", "ready_size", "size_fn", "tenant", "request_id",
                 "poll_interval_s", "requested_at", "deadline",
                 "event", "record", "_done")

    def __init__(self, sim: Simulator, *, ready_size: int,
                 size_fn: Callable[[], int],
                 tenant: str = "", request_id: str = "",
                 poll_interval_s: float = 1.0,
                 timeout_s: Optional[float] = None,
                 record: Optional[InstanceRecord] = None) -> None:
        if ready_size <= 0:
            raise ProvisioningError(
                f"ready_size must be > 0, got {ready_size}",
                tenant=tenant, request_id=request_id, reason="bad_request")
        self.sim = sim
        self.ready_size = int(ready_size)
        self.size_fn = size_fn
        self.tenant = tenant
        self.request_id = request_id
        self.poll_interval_s = float(poll_interval_s)
        self.requested_at = sim.now
        self.deadline = (None if timeout_s is None
                         else sim.now + float(timeout_s))
        self.event = Event(sim, name=f"ticket:{request_id or 'anon'}")
        self.record = record
        self._done = False
        self._poll()

    # -- inspection -----------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def instance_id(self) -> Optional[str]:
        return None if self.record is None else self.record.instance_id

    @property
    def time_to_ready(self) -> float:
        """Seconds from request to ready (only once settled ok)."""
        return self.event.value  # raises if unsettled; exc if failed

    # -- polling loop -----------------------------------------------------
    def _poll(self) -> None:
        if self._done:
            return
        now = self.sim.now
        if self.size_fn() >= self.ready_size:
            self._done = True
            self.event.succeed(now - self.requested_at)
            return
        if self.deadline is not None and now >= self.deadline:
            self._done = True
            self.event.fail(ProvisioningError(
                f"request {self.request_id or '?'} timed out after "
                f"{now - self.requested_at:.1f}s "
                f"(size {self.size_fn()}/{self.ready_size})",
                tenant=self.tenant, request_id=self.request_id,
                reason="timeout"))
            return
        next_at = now + self.poll_interval_s
        if self.deadline is not None:
            next_at = min(next_at, self.deadline)
        self.sim.call_at(next_at, self._poll)

    def cancel(self, reason: str = "cancelled") -> bool:
        """Settle the ticket as failed; ``False`` if already settled.

        The stale poll callback notices ``_done`` and goes quiet — no
        handle bookkeeping on the fast-path calendar.
        """
        if self._done:
            return False
        self._done = True
        self.event.fail(ProvisioningError(
            f"request {self.request_id or '?'} cancelled",
            tenant=self.tenant, request_id=self.request_id, reason=reason))
        return True




@dataclass
class Submission:
    """A job submitted through the Provider: one Backend, and one
    instance per network the matcher placed it on."""

    job: Job
    backend: Backend
    base_spec: InstanceSpec
    target_size: int
    #: network name -> that network's InstanceRecord (including networks
    #: whose share has since been re-balanced to zero).
    records: Dict[str, InstanceRecord] = field(default_factory=dict)
    #: network name -> currently-committed share (zero entries pruned).
    shares: Dict[str, int] = field(default_factory=dict)
    #: every (network, record) this submission ever created, in creation
    #: order — re-balancing can retire and later re-create a network's
    #: instance, and size/cost accounting must span all of them.
    history: List[Tuple[str, InstanceRecord]] = field(default_factory=list)

    @property
    def record(self) -> InstanceRecord:
        """The first instance created: on one network, the only one."""
        return self.history[0][1]

    @property
    def instance_id(self) -> str:
        """The submission's id at the Provider: its first instance's."""
        return self.history[0][1].instance_id

    @property
    def done_event(self) -> Event:
        return self.backend.done_event


class Provider:
    """Creates and manages OddCI instances on behalf of users.

    The placement matcher splits each job's instance across the
    shards by capacity and cost, re-balances on :meth:`resize` and on
    topology changes (:meth:`rebalance` after a network departs or
    rejoins), and the job's Backend routes tasks over every shard's
    fabric with merged result accounting.  Every method names an
    instance by id: a submission's :attr:`Submission.instance_id`, or
    a bare-capacity instance's record id.
    """

    def __init__(self, sim: Simulator, shards: Sequence[ControllerShard],
                 *, placement: str = "cost") -> None:
        if not shards:
            raise ConfigurationError("a Provider needs at least one network")
        if placement not in PLACEMENTS:
            raise ConfigurationError(
                f"unknown placement {placement!r}; "
                f"choose one of {PLACEMENTS}")
        names = [s.name for s in shards]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate network names in {names}")
        if len(names) > 1 and "" in names:
            raise ConfigurationError(
                "an unnamed network must be the only one")
        self.sim = sim
        self.placement = placement
        self.shards: Dict[str, ControllerShard] = {
            s.name: s for s in shards}
        #: network name -> nodes committed across live submissions.
        self._committed: Dict[str, int] = {name: 0 for name in names}
        self._submissions: Dict[str, Submission] = {}
        #: (network, record, share) a release left on a network whose
        #: Controller was down: committed until the instance is dismantled.
        self._left: List[Tuple[str, InstanceRecord, int]] = []

    # -- inspection ------------------------------------------------------
    def backends(self) -> list:
        """Backends of every submission (fault-injection target set)."""
        return [s.backend for s in self._submissions.values()]

    def committed(self, network: str) -> int:
        self._sweep_left()
        return self._committed[network]

    def _sweep_left(self) -> None:
        """Un-commit the shares of dismantled left-behind instances."""
        for name, record, share in list(self._left):
            if record.status in _GONE:
                self._committed[name] -= share
                self._left.remove((name, record, share))

    def _split(self, target: int,
               exclude: Optional[Submission] = None) -> Dict[str, int]:
        """Place ``target`` nodes on the available networks, counting
        ``exclude``'s own shares as free headroom."""
        entries = self._placement_entries(exclude)
        if not entries:
            raise ControllerDownError(
                "no network can take an instance: every Controller is "
                "down or its network has left")
        return split_target(target, entries, self.placement)

    def _placement_entries(self, exclude: Optional[Submission]
                           ) -> List[Tuple[str, int, float]]:
        self._sweep_left()
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

    def _bare_shard(self) -> ControllerShard:
        """The network bare capacity runs on: the only one."""
        if len(self.shards) > 1:
            raise ProvisioningError(
                f"bare capacity needs a single network; this Provider "
                f"spans {len(self.shards)}", reason="federated")
        return next(iter(self.shards.values()))

    def _shard_of(self, instance_id: str) -> ControllerShard:
        """The network holding an instance no submission owns: bare
        capacity, or one a released submission left on a network whose
        Controller was down."""
        for shard in self.shards.values():
            if instance_id in shard.controller.instances:
                return shard
        raise InstanceError(f"unknown instance {instance_id!r}")

    # -- raw instance API -----------------------------------------------------
    def request_instance(self, spec: InstanceSpec) -> InstanceRecord:
        """Provision an instance with no job attached (bare capacity)."""
        return self._bare_shard().controller.create_instance(spec)

    def request_instance_async(
        self,
        spec: InstanceSpec,
        *,
        tenant: str = "",
        request_id: str = "",
        poll_interval_s: float = 1.0,
        timeout_s: Optional[float] = None,
    ) -> ProvisioningTicket:
        """Provision bare capacity and return a completion ticket.

        Raises immediately (``ControllerDownError``) if the control
        plane refuses the spec; otherwise the returned ticket's
        ``event`` settles when the census reaches the tolerance band or
        the timeout expires.  The service tier's create path is built on
        this call.
        """
        record = self._bare_shard().controller.create_instance(spec)
        return ProvisioningTicket(
            self.sim, ready_size=ready_size_for(spec),
            size_fn=lambda: record.size,
            tenant=tenant, request_id=request_id,
            poll_interval_s=poll_interval_s, timeout_s=timeout_s,
            record=record)

    def resize(self, instance_id: str, new_target: int) -> None:
        """Set an instance's target size; a submission is re-split
        across the networks (see :attr:`Submission.shares`)."""
        submission = self._submissions.get(instance_id)
        if submission is None:
            self._shard_of(instance_id).controller.resize_instance(
                instance_id, new_target)
            return
        if new_target <= 0:
            raise InstanceError(f"new_target must be > 0, got {new_target}")
        self._apply_shares(submission, self._split(new_target, submission))
        submission.target_size = new_target

    def rebalance(self, instance_id: str) -> Dict[str, int]:
        """Re-split a submission after a topology change (a network
        departed or rejoined): departed networks' shares move to the
        remaining headroom.

        Best-effort, unlike :meth:`resize`: when the survivors cannot
        seat the full target the matcher places what fits and the
        instance runs degraded (availability accounting sees the
        shortfall); the deficit is restored by the next re-balance
        after capacity returns.  With no available network at all the
        current shares are left untouched."""
        submission = self._submissions[instance_id]
        entries = self._placement_entries(submission)
        goal = min(submission.target_size,
                   sum(headroom for _, headroom, _ in entries))
        if goal <= 0:
            return dict(submission.shares)
        shares = split_target(goal, entries, self.placement)
        self._apply_shares(submission, shares)
        return dict(shares)

    def rebalance_all(self) -> None:
        for instance_id in list(self._submissions):
            self.rebalance(instance_id)

    def _apply_shares(self, submission: Submission,
                      shares: Dict[str, int]) -> None:
        for name, shard in self.shards.items():
            share = shares.get(name, 0)
            record = submission.records.get(name)
            live = record is not None and record.status not in _GONE
            if share > 0:
                if live and record.spec.target_size != share:
                    shard.controller.resize_instance(
                        record.instance_id, share)
                elif not live:
                    self._create(submission, name, share)
            elif live and submission.shares.get(name, 0) > 0:
                # Share re-balanced away: dismantle this network's
                # instance (deferred broadcast if the plane is down).
                shard.controller.destroy_instance(record.instance_id)
            self._committed[name] += share - submission.shares.get(name, 0)
            if share > 0:
                submission.shares[name] = share
            else:
                submission.shares.pop(name, None)

    def _create(self, submission: Submission, name: str,
                share: int) -> None:
        record = self.shards[name].controller.create_instance(
            dataclasses.replace(submission.base_spec, target_size=share))
        submission.records[name] = record
        submission.history.append((name, record))

    def release(self, instance_id: str) -> None:
        """Dismantle an instance and shut down its backend, if any.

        The submission entry is evicted: a released job's Backend must
        not linger in :meth:`backends` (the fault-injection target set)
        or keep the whole task table alive across a long multi-job run.
        Eviction happens even when a dismantle fails: a network whose
        Controller is crashed keeps its instance (the lifetime
        mechanism, or a release after restore, reaps it), that share
        stays committed until the instance is dismantled, and the
        ``ControllerDownError`` is raised once every other network's
        instance is dismantled.  A bare instance already DISMANTLING
        raises ``InstanceError``.
        """
        submission = self._submissions.pop(instance_id, None)
        if submission is None:
            self._shard_of(instance_id).controller.destroy_instance(
                instance_id)
            return
        down: Optional[ControllerDownError] = None
        for name, record in submission.records.items():
            if record.status in _GONE:
                continue
            try:
                self.shards[name].controller.destroy_instance(
                    record.instance_id)
            except ControllerDownError as err:
                down = err
                share = submission.shares.pop(name, 0)
                if share:
                    self._left.append((name, record, share))
        for name, share in submission.shares.items():
            self._committed[name] -= share
        submission.shares.clear()
        submission.backend.shutdown()
        if down is not None:
            raise down

    def cancel_request(self, instance_id: str,
                       ticket: Optional[ProvisioningTicket] = None) -> bool:
        """Cancel an in-flight request: best-effort dismantle + evict.

        The explicit cancel path for instances still PROVISIONING: the
        ticket (if any) is failed with ``reason="cancelled"``, the
        submission entry is evicted unconditionally, and the dismantle
        is *best-effort* — returns ``True`` if the Controller accepted
        it, ``False`` if the instance was already gone or the control
        plane is down (the lifetime mechanism reaps it after restore).
        Unlike :meth:`release` this never raises on those races, so
        callers on request-cancellation paths can't leak state.
        """
        if ticket is not None:
            ticket.cancel()
        try:
            self.release(instance_id)
            return True
        except (InstanceError, KeyError, ControllerDownError):
            return False

    # -- reporting -------------------------------------------------------
    def status(self, instance_id: str) -> dict:
        """Status summary of one instance, merged across its networks
        (one entry each under ``"networks"``).

        Raises :class:`~repro.errors.ProvisioningError` for an unknown
        instance id — the Provider's front-door contract, regardless of
        which layer (Controller table, submission map) missed it.
        """
        submission = self._submissions.get(instance_id)
        if submission is not None:
            records, target = submission.records, submission.target_size
        else:
            try:
                shard = self._shard_of(instance_id)
            except InstanceError:
                raise ProvisioningError(
                    f"unknown instance {instance_id!r}") from None
            record = shard.controller.instance(instance_id)
            records, target = {shard.name: record}, record.spec.target_size
        networks = {name: {
            "instance_id": record.instance_id,
            "status": record.status.value,
            "size": record.size,
            "target_size": record.spec.target_size,
            "wakeups_sent": record.wakeups_sent,
            "trims_sent": record.trims_sent,
        } for name, record in records.items()}
        phases = list(InstanceStatus)
        out = {
            "instance_id": instance_id,
            # the earliest lifecycle phase among its networks' instances
            "status": min((r.status for r in records.values()),
                          key=phases.index).value,
            "size": sum(n["size"] for n in networks.values()),
            "target_size": target,
            "wakeups_sent": sum(n["wakeups_sent"]
                                for n in networks.values()),
            "trims_sent": sum(n["trims_sent"] for n in networks.values()),
            "networks": networks,
        }
        if submission is not None:
            out["tasks_completed"] = submission.backend.completed_count
            out["tasks_total"] = submission.job.n
        return out

    def size_series(self, instance_id: str) -> List[Tuple[str, Any]]:
        """Every instance-size TimeSeries the submission ever had, as
        ``(network, series)`` pairs in creation order.

        A network can contribute *several* sequential instances when
        re-balancing retires its share and a later re-balance brings it
        back; a retired instance's series drains to zero, so summing
        the lot (:func:`repro.faults.merged_size_series`) yields the
        submission's size across networks."""
        out: List[Tuple[str, Any]] = []
        for name, record in self._submissions[instance_id].history:
            series = self.shards[name].controller.size_history.get(
                record.instance_id)
            if series is not None:
                out.append((name, series))
        return out

    def cost_estimate(self, instance_id: str, until: float) -> float:
        """Node-hour cost of the submission across networks."""
        total = 0.0
        for name, series in self.size_series(instance_id):
            rate = self.shards[name].descriptor.cost_per_node_hour
            total += rate * node_hours(series, until)
        return total

    # -- job submission ------------------------------------------------------------
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
    ) -> Submission:
        """Run ``job`` on a fresh OddCI instance of ``target_size`` nodes.

        Creates the Backend — registered on every network's router —
        then commands one instance per network the matcher placed a
        share on; the wakeup message points PNAs at the new Backend.
        When the last result arrives, every instance is dismantled
        automatically unless ``release_on_completion=False``.

        ``lease_backoff_base`` / ``lease_backoff_jitter`` plumb straight
        into the Backend's re-dispatch backoff (DESIGN.md §10): jitter
        draws come from the backend's named RNG stream (one per named
        network), so enabling it keeps ``--jobs`` byte-parity.
        ``certify_policy`` (a :class:`~repro.certify.CertifyPolicy`)
        arms result certification; a conviction blacklists the node on
        every network's Controller.
        """
        if target_size <= 0:
            raise ProvisioningError(
                f"target_size must be > 0, got {target_size}")
        shares = self._split(target_size)
        backend_id = f"backend-job{job.job_id}"
        backend = Backend(self.sim, job,
                          [shard.router for shard in self.shards.values()],
                          backend_id=backend_id,
                          networks=list(self.shards),
                          lease_factor=lease_factor,
                          lease_backoff_base=lease_backoff_base,
                          lease_backoff_jitter=lease_backoff_jitter,
                          worst_case_slowdown=worst_case_slowdown,
                          replicate_tail=replicate_tail,
                          certify_policy=certify_policy)
        if backend.certifier is not None:
            backend.certifier.on_quarantine = self._quarantine
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
        submission = Submission(job=job, backend=backend,
                                base_spec=base_spec, target_size=target_size)
        for name, share in shares.items():
            self._create(submission, name, share)
            submission.shares[name] = share
            self._committed[name] += share
        instance_id = submission.instance_id
        self._submissions[instance_id] = submission
        if release_on_completion:
            backend.done_event.add_callback(
                lambda ev: self._auto_release(instance_id))
        return submission

    def _auto_release(self, instance_id: str) -> None:
        if instance_id not in self._submissions:
            return
        try:
            self.release(instance_id)
        except ControllerDownError:
            # Job finished while a Controller was crashed: that network
            # keeps its instance — the lifetime mechanism (or an
            # explicit release after restore) reaps it.  The submission
            # is evicted all the same, so a dead Backend never lingers
            # in backends().
            pass

    def _quarantine(self, pna_id: str, reason: str) -> None:
        """Blacklist a convicted node on every network's Controller.

        The certifier does not know which network a node came from, so
        every Controller is told; one that never saw the node only
        records it.  A crashed Controller or a departed network is told
        too: the blacklist is durable, so the node stays out of the
        census after a restore or a rejoin.
        """
        for shard in self.shards.values():
            shard.controller.quarantine_node(pna_id, reason)

    def run_job_to_completion(self, submission: Submission,
                              limit_s: float = 1e9) -> JobReport:
        """Drive the simulation until the submission's job finishes."""
        return self.sim.run_until_event(submission.done_event, limit=limit_s)
