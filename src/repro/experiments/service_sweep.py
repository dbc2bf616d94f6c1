"""Service sweep — the request-tier capacity curve.

Drives one OddCI deployment with open-loop Poisson create/resize/destroy
traffic (:class:`~repro.serve.TrafficSpec`) through the full service
pipeline — gateway → warm pool → Provider — across a grid of offered
request rates and fleet sizes.  Below the knee the fleet absorbs the
offered load (low p99 time-to-ready, no rejections); past it, requests
pile onto a fleet that cannot seat them, provisioning tickets expire
and the rejection rate climbs.  That knee *is* the deployment's
capacity in requests/second, per fleet size.

Reported per point:

* ``throughput_rps`` — completed requests per second of horizon;
* ``ttr_p50_s`` / ``ttr_p99_s`` — time from request arrival to the
  census first reaching the tolerance band;
* ``rejection_rate`` and ``lost`` (the liveness invariant: always 0);
* ``pool_hit_ratio`` and ``fairness`` (Jain's index over per-tenant
  completions).

:func:`finalize_service_sweep` derives each fleet size's
``capacity_rps`` — the highest offered rate whose rejection rate stays
within the SLO bound — turning the raw sweep into the requests/s vs
fleet-size capacity curve.

The admission gate runs open (no token bucket) so the knee measures the
*fleet*, not the gateway; the per-tenant concurrency quota stays on as
a safety valve.  Everything rides the deterministic seeding contract
(arrivals come from the ``"serve.arrivals"`` stream), so the sweep is
``--jobs`` byte-identical like every other scenario.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import render_records
from repro.core.system import OddCISystem
from repro.runner.scenario import Scenario, register
from repro.serve import GatewayConfig, PoolConfig, ServiceTier, TrafficSpec

__all__ = [
    "point_service_sweep",
    "finalize_service_sweep",
    "render_service_sweep",
]

#: A point's offered load is within capacity when its rejection rate
#: stays at or below this bound (the sweep's SLO).
REJECTION_SLO = 0.1


def point_service_sweep(
    offered_rps: float,
    n_pnas: int,
    *,
    warm_target: int = 2,
    horizon_s: float = 600.0,
    target_size: int = 4,
    hold_s_mean: float = 60.0,
    n_tenants: int = 4,
    max_concurrent: int = 6,
    heartbeat_interval_s: float = 10.0,
    maintenance_interval_s: float = 15.0,
    request_timeout_s: float = 120.0,
    seed: int = 0,
) -> Dict[str, float]:
    """One capacity point: ``offered_rps`` against ``n_pnas`` nodes.

    ``request_timeout_s`` is the SLO deadline: a create whose census
    never reaches the tolerance band within it settles as a ``timeout``
    rejection — the overload symptom the knee is read from.
    """
    system = OddCISystem(seed=seed,
                         maintenance_interval_s=maintenance_interval_s)
    system.add_pnas(n_pnas, heartbeat_interval_s=heartbeat_interval_s,
                    dve_poll_interval_s=5.0)
    traffic = TrafficSpec(
        pattern="poisson", rate_rps=offered_rps, horizon_s=horizon_s,
        n_tenants=n_tenants, target_size=target_size,
        hold_s_mean=hold_s_mean)
    tier = ServiceTier(
        system, traffic,
        gateway=GatewayConfig(max_concurrent=max_concurrent),
        pool=PoolConfig(warm_target=warm_target,
                        standby_size=target_size,
                        refill_interval_s=20.0,
                        provision_timeout_s=request_timeout_s),
        heartbeat_interval_s=heartbeat_interval_s,
        request_timeout_s=request_timeout_s)
    summary = tier.run()
    return {
        "issued": summary["issued"],
        "completed": summary["completed"],
        "throughput_rps": round(
            summary["completed"] / horizon_s, 6) if horizon_s else 0.0,
        "rejection_rate": summary["rejection_rate"],
        "lost": summary["lost"],
        "ttr_p50_s": summary["ttr_p50_s"],
        "ttr_p99_s": summary["ttr_p99_s"],
        "queue_wait_p99_s": summary["queue_wait_p99_s"],
        "pool_hit_ratio": summary["pool"]["hit_ratio"],
        "fairness": summary["fairness"],
    }


def finalize_service_sweep(
        records: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """Annotate each record with its fleet size's ``capacity_rps``.

    A fleet's capacity is the highest offered rate on the grid whose
    rejection rate stayed within :data:`REJECTION_SLO` (0.0 when every
    rate breached it).
    """
    capacity: Dict[float, float] = {}
    for record in records:
        if record["rejection_rate"] <= REJECTION_SLO:
            fleet = record["n_pnas"]
            capacity[fleet] = max(capacity.get(fleet, 0.0),
                                  record["offered_rps"])
    for record in records:
        record["capacity_rps"] = capacity.get(record["n_pnas"], 0.0)
    return records


def render_service_sweep(records: List[Dict[str, float]]) -> str:
    return render_records(
        records,
        title="Service sweep — time-to-ready & rejections "
              "vs offered load and fleet size")


register(Scenario(
    name="service_sweep",
    description="Request-tier capacity curve: p50/p99 time-to-ready & "
                "rejections vs offered load and fleet size",
    point=point_service_sweep,
    renderer=render_service_sweep,
    grid={"offered_rps": (0.03, 0.06, 0.12, 0.24),
          "n_pnas": (16, 32)},
    fixed={"warm_target": 2},
    smoke_grid={"offered_rps": (0.03, 0.1), "n_pnas": (12,)},
    smoke_fixed={"horizon_s": 240.0, "warm_target": 1,
                 "request_timeout_s": 90.0},
    finalize=finalize_service_sweep,
))
