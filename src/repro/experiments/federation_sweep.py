"""Federation sweep — makespan and availability under network churn.

Runs one bag-of-tasks job on a three-network
:class:`~repro.core.system.OddCISystem` while whole *networks* join and
leave mid-job.  The grid dimension is the number of scripted
departures: 0 is the steady federation, 1 drops the cheapest network
for a window, 2 additionally drops a second network later.  Every
departure is followed by a
:meth:`~repro.core.provider.Provider.rebalance_all` so the matcher
re-seats the displaced share on the surviving networks, and every
rejoin re-balances back.

Reported per point:

* ``makespan_s`` and, after :func:`finalize_federation_sweep`,
  ``makespan_inflation`` over the 0-departure baseline;
* ``availability`` — fraction of the run the *merged* federation-wide
  size (sum of the per-network size series, see
  :func:`repro.faults.merged_size_series`) held the total target;
* per-network assignment/completion counters from the Backend's
  multi-router accounting, plus re-dispatches and node-hour cost.

Departure/rejoin times are fixed constants and the workload rides the
deterministic seeding contract, so the sweep is ``--jobs``
byte-identical like every other scenario.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import render_records
from repro.core.provider import NetworkDescriptor
from repro.core.system import OddCISystem
from repro.faults import availability_fraction, merged_size_series
from repro.net.message import MEGABYTE
from repro.runner.scenario import Scenario, register
from repro.workloads.bot import uniform_bag

__all__ = [
    "federation_networks",
    "point_federation_sweep",
    "finalize_federation_sweep",
    "render_federation_sweep",
]

#: scripted churn timeline: (network index by cost rank, depart, rejoin).
#: The first departure takes out the *cheapest* network (where the cost
#: matcher put the most load); the second overlaps the first's rejoin.
_DEPARTURE_WINDOWS = ((0, 240.0, 720.0), (1, 600.0, 1080.0))


def federation_networks(nodes_per_network: int) -> List[NetworkDescriptor]:
    """The sweep's three heterogeneous networks, cheapest first."""
    return [
        NetworkDescriptor(name="desk", capacity=nodes_per_network,
                          cost_per_node_hour=0.5,
                          device_mix={"desktop": 1.0}),
        NetworkDescriptor(name="dtv", capacity=nodes_per_network,
                          cost_per_node_hour=1.0,
                          device_mix={"settop": 1.0}),
        NetworkDescriptor(name="cell", capacity=nodes_per_network,
                          cost_per_node_hour=2.0, delta_bps=80_000.0,
                          delta_latency_s=0.12,
                          device_mix={"phone": 1.0}),
    ]


def point_federation_sweep(
    departures: int,
    *,
    nodes_per_network: int = 8,
    target: int = 18,
    n_tasks: int = 240,
    ref_seconds: float = 40.0,
    heartbeat_interval_s: float = 15.0,
    maintenance_interval_s: float = 30.0,
    lease_factor: float = 3.0,
    worst_case_slowdown: float = 2.0,
    placement: str = "spread",
    seed: int = 0,
) -> Dict[str, float]:
    """Run the job while ``departures`` networks leave and rejoin.

    ``target`` must exceed what any two networks can seat so a
    departure forces real re-balancing (displaced share folded into the
    survivors' headroom, clamped by their capacity), and the lease
    factor re-dispatches tasks stranded on powered-off nodes.  The
    default ``worst_case_slowdown`` allowance (25x) would hold a
    stranded task's lease for ~half an hour and drown the churn signal
    in a constant re-dispatch wall; the fleet here runs deterministic
    executors, so a tight 2x allowance keeps leases honest.
    """
    if not 0 <= departures <= len(_DEPARTURE_WINDOWS):
        raise ValueError(
            f"departures must be in [0, {len(_DEPARTURE_WINDOWS)}], "
            f"got {departures}")
    system = OddCISystem(
        networks=federation_networks(nodes_per_network), seed=seed,
        placement=placement,
        maintenance_interval_s=maintenance_interval_s)
    system.build_fleets(heartbeat_interval_s=heartbeat_interval_s,
                        dve_poll_interval_s=5.0)
    # Cost rank == declaration order in federation_networks().
    ranked = [shard.name for shard in system.shards]

    job = uniform_bag(n_tasks, image_bits=MEGABYTE,
                      ref_seconds=ref_seconds,
                      name=f"federation-sweep-{departures}")
    submission = system.provider.submit_job(
        job, target_size=target,
        heartbeat_interval_s=heartbeat_interval_s,
        lease_factor=lease_factor,
        worst_case_slowdown=worst_case_slowdown,
        release_on_completion=False)

    def _depart(name: str) -> None:
        system.shard(name).depart()
        system.provider.rebalance_all()

    def _rejoin(name: str) -> None:
        system.shard(name).rejoin()
        system.provider.rebalance_all()

    for rank, depart_at, rejoin_at in _DEPARTURE_WINDOWS[:departures]:
        name = ranked[rank]
        system.sim.call_at(depart_at, _depart, name)
        system.sim.call_at(rejoin_at, _rejoin, name)

    report = system.provider.run_job_to_completion(submission, limit_s=1e6)

    now = system.sim.now
    merged = merged_size_series(
        [series for _name, series in
         system.provider.size_series(submission.instance_id)],
        name="federation-size")
    availability = availability_fraction(
        merged, target,
        size_tolerance=submission.base_spec.size_tolerance,
        until=now)
    backend = submission.backend
    record: Dict[str, float] = {
        "makespan_s": report.makespan,
        "completed": backend.done,
        "availability": availability,
        "tasks_redispatched": backend.requeues,
        "duplicates": backend.duplicates,
        "cost_node_hours": system.provider.cost_estimate(
            submission.instance_id, now),
        "networks_used": sum(
            1 for count in backend.assigned_by_network.values() if count > 0),
    }
    for name in ranked:
        record[f"assigned[{name}]"] = backend.assigned_by_network[name]
        record[f"completed[{name}]"] = backend.completed_by_network[name]
    return record


def finalize_federation_sweep(
        records: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """Cross-point fields: makespan inflation over the churn-free run."""
    baseline = next(r for r in records if r["departures"] == 0)
    for record in records:
        record["makespan_inflation"] = (
            record["makespan_s"] / baseline["makespan_s"])
    return records


def render_federation_sweep(records: List[Dict[str, float]]) -> str:
    return render_records(
        records,
        title="Federation sweep — makespan & availability "
              "vs network departures")


register(Scenario(
    name="federation_sweep",
    description="Makespan & availability as networks join/leave mid-job",
    point=point_federation_sweep,
    renderer=render_federation_sweep,
    grid={"departures": (0, 1, 2)},
    fixed={"nodes_per_network": 8, "target": 18, "n_tasks": 240,
           "ref_seconds": 40.0},
    smoke_grid={"departures": (0, 1)},
    smoke_fixed={"nodes_per_network": 5, "target": 11, "n_tasks": 80,
                 "ref_seconds": 25.0},
    finalize=finalize_federation_sweep,
))
