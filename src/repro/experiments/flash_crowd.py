"""Flash crowd — admission control and warm pooling under a burst.

Runs the service tier against ``pattern="flash"`` traffic: a steady
base rate with a window in which arrivals jump by ``flash_multiplier``.
The grid crosses the multiplier with the warm-pool target, separating
the two defences the tier has against a crowd:

* the **gateway** (token bucket sized for the *base* rate plus a
  bounded queue) smears the burst out in time and sheds the excess
  with typed rejections (``queue_full`` / ``queue_timeout``) instead
  of letting it stampede the Controller;
* the **warm pool** absorbs the front of the burst at time-to-ready
  0.0 until the parked fleets run out, bounding the p99 the admitted
  requests see.

Reported per point: p50/p99 time-to-ready, queue-wait p99, rejection
rate split by cause (admission vs provisioning timeout), pool hit
ratio and the liveness invariant ``lost == 0``.  After
:func:`finalize_flash_crowd` each record carries ``p99_vs_cold`` — its
p99 relative to the cold-pool run at the same multiplier — quantifying
what warm standby buys during the crowd.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import render_records
from repro.core.system import OddCISystem
from repro.runner.scenario import Scenario, register
from repro.serve import GatewayConfig, PoolConfig, ServiceTier, TrafficSpec

__all__ = [
    "point_flash_crowd",
    "finalize_flash_crowd",
    "render_flash_crowd",
]


def point_flash_crowd(
    flash_multiplier: float,
    warm_target: int,
    *,
    n_pnas: int = 24,
    base_rps: float = 0.04,
    horizon_s: float = 600.0,
    flash_at_s: float = 200.0,
    flash_duration_s: float = 80.0,
    target_size: int = 4,
    hold_s_mean: float = 50.0,
    n_tenants: int = 4,
    queue_cap: int = 12,
    max_queue_wait_s: float = 90.0,
    heartbeat_interval_s: float = 10.0,
    maintenance_interval_s: float = 15.0,
    request_timeout_s: float = 120.0,
    seed: int = 0,
) -> Dict[str, float]:
    """One crowd: base load with a ``flash_multiplier`` burst window.

    The token bucket refills at twice the base rate with a small burst
    allowance — enough that steady traffic never queues, so every
    admission effect in the record is attributable to the crowd.
    """
    system = OddCISystem(seed=seed,
                         maintenance_interval_s=maintenance_interval_s)
    system.add_pnas(n_pnas, heartbeat_interval_s=heartbeat_interval_s,
                    dve_poll_interval_s=5.0)
    traffic = TrafficSpec(
        pattern="flash", rate_rps=base_rps, horizon_s=horizon_s,
        n_tenants=n_tenants, target_size=target_size,
        hold_s_mean=hold_s_mean, flash_at_s=flash_at_s,
        flash_duration_s=flash_duration_s,
        flash_multiplier=flash_multiplier)
    tier = ServiceTier(
        system, traffic,
        gateway=GatewayConfig(admission_rate=2.0 * base_rps, burst=3,
                              queue_cap=queue_cap,
                              max_queue_wait_s=max_queue_wait_s),
        pool=PoolConfig(warm_target=warm_target,
                        standby_size=target_size,
                        refill_interval_s=15.0,
                        provision_timeout_s=request_timeout_s),
        heartbeat_interval_s=heartbeat_interval_s,
        request_timeout_s=request_timeout_s)
    summary = tier.run()
    rejected = summary["rejected"]
    admission_rejects = sum(
        count for reason, count in rejected.items()
        if reason in ("queue_full", "queue_timeout",
                      "max_concurrent", "node_hours"))
    return {
        "issued": summary["issued"],
        "completed": summary["completed"],
        "rejection_rate": summary["rejection_rate"],
        "rejected_admission": admission_rejects,
        "rejected_timeout": rejected.get("timeout", 0),
        "lost": summary["lost"],
        "ttr_p50_s": summary["ttr_p50_s"],
        "ttr_p99_s": summary["ttr_p99_s"],
        "queue_wait_p99_s": summary["queue_wait_p99_s"],
        "pool_hit_ratio": summary["pool"]["hit_ratio"],
        "fairness": summary["fairness"],
    }


def finalize_flash_crowd(
        records: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """``p99_vs_cold``: each record's p99 over the warm_target=0 run
    at the same multiplier (1.0 when the cold p99 is zero)."""
    cold = {record["flash_multiplier"]: record["ttr_p99_s"]
            for record in records if record["warm_target"] == 0}
    for record in records:
        base = cold.get(record["flash_multiplier"], 0.0)
        record["p99_vs_cold"] = (
            round(record["ttr_p99_s"] / base, 6) if base else 1.0)
    return records


def render_flash_crowd(records: List[Dict[str, float]]) -> str:
    return render_records(
        records,
        title="Flash crowd — admission shedding & warm-pool absorption "
              "vs burst multiplier")


register(Scenario(
    name="flash_crowd",
    description="Flash-crowd burst: gateway shedding and warm-pool "
                "absorption vs burst multiplier",
    point=point_flash_crowd,
    renderer=render_flash_crowd,
    grid={"flash_multiplier": (1.0, 3.0, 6.0), "warm_target": (0, 2)},
    smoke_grid={"flash_multiplier": (1.0, 4.0), "warm_target": (0, 1)},
    smoke_fixed={"n_pnas": 16, "horizon_s": 300.0, "flash_at_s": 100.0,
                 "flash_duration_s": 50.0, "request_timeout_s": 90.0},
    finalize=finalize_flash_crowd,
))
