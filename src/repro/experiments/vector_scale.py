"""Experiment VS — vector-tier scaling sweep with faults and churn.

Runs the rebuilt vector tier as a *system* (persistent population, two
sequential job submissions on one clock) across fleet sizes, with an
optional churn storm landing in the first job's window, and reports
makespan/efficiency/availability per submission plus the churn
analytics the storm should agree with:

* ``availability_1`` integrates the storm window out of the size
  series exactly like the event tier's ``size_history`` accounting;
* ``effective_capacity_frac`` is the NanoDC-grounded closed form from
  :func:`repro.vector.churn.effective_capacity` for an ON/OFF model
  matched to the storm's duty cycle, giving an analytic anchor for the
  observed capacity loss.

Registered as the ``vector_scale`` scenario; the tier-1 determinism
suite runs its smoke grid at ``--jobs`` 1/2/4 and the vector CI job
runs the full grid.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.report import format_si, render_table
from repro.faults.plan import FaultEvent, FaultPlan
from repro.net.message import MEGABYTE
from repro.runner.scenario import Scenario, register
from repro.vector.churn import effective_capacity
from repro.vector.system import VectorOddCISystem
from repro.workloads.bot import uniform_bag
from repro.workloads.traces import ChurnModel

__all__ = ["STORM_TIME_S", "STORM_DURATION_S", "point_vector_scale",
           "render_vector_scale", "storm_plan"]

#: The storm hits partway through the second job's execution window.
STORM_TIME_S = 500.0
STORM_DURATION_S = 200.0


def storm_plan(magnitude: float) -> Optional[FaultPlan]:
    """A single churn storm powering off ``magnitude`` of the fleet."""
    if magnitude <= 0:
        return None
    return FaultPlan((FaultEvent(
        kind="churn_storm", time=STORM_TIME_S,
        duration_s=STORM_DURATION_S, magnitude=magnitude),),
        name=f"vector-storm-{magnitude:g}")


def point_vector_scale(
    nodes: int,
    storm_magnitude: float,
    *,
    tasks_per_node: int = 8,
    seed: int = 0,
) -> Dict[str, float]:
    """Two sequential submissions at one fleet size.

    When ``storm_magnitude > 0`` job 1 rides through the churn storm;
    job 2 starts on the same clock at job 1's finish and recruits from
    the persistent population the first submission released.
    """
    system = VectorOddCISystem(
        int(nodes * 1.25) + 10, seed=seed,
        plan=storm_plan(storm_magnitude))
    job = uniform_bag(nodes * tasks_per_node, image_bits=8 * MEGABYTE,
                      ref_seconds=30.0)
    # Plan times are absolute on the system clock: the storm (t=500 s)
    # lands inside job 1's execution window; job 2 then submits at job
    # 1's finish and demonstrates clean recruitment afterwards.
    r1 = system.run_job(job, target_size=nodes)
    r2 = system.run_job(job, target_size=nodes)
    record: Dict[str, float] = {
        "recruited_1": r1.recruited,
        "recruited_2": r2.recruited,
        "makespan_1_s": r1.makespan_s,
        "makespan_2_s": r2.makespan_s,
        "efficiency_1": r1.efficiency,
        "efficiency_2": r2.efficiency,
        "availability_1": r1.availability,
        "availability_2": r2.availability,
        "census_alive": r2.census["alive"],
        "fault_windows": len(system.compiled.windows),
    }
    if storm_magnitude > 0:
        # Analytic anchor: an ON/OFF churn model with the storm's duty
        # cycle over job 1's window predicts the steady-state capacity
        # the storm leaves (NanoDC D3.2 grounding; the agreement suite
        # checks both tiers against the same closed form).
        span = max(r1.makespan_s, STORM_TIME_S + STORM_DURATION_S)
        mean_off = STORM_DURATION_S * storm_magnitude
        model = ChurnModel(mean_on_s=span - mean_off,
                           mean_off_s=mean_off)
        record["effective_capacity_frac"] = effective_capacity(
            model, span)
    return record


def render_vector_scale(records: List[Dict[str, float]]) -> str:
    """ASCII table of the sweep."""
    rows = []
    for r in records:
        rows.append([
            format_si(r["nodes"]),
            f"{r['storm_magnitude']:.2f}",
            format_si(r["recruited_1"]),
            f"{r['makespan_1_s']:.0f} s",
            f"{r['makespan_2_s']:.0f} s",
            f"{r['efficiency_1']:.3f}",
            f"{r['availability_1']:.3f}",
            f"{r['availability_2']:.3f}",
        ])
    return render_table(
        ["nodes", "storm", "recruited", "makespan#1", "makespan#2",
         "eff#1", "avail#1", "avail#2"],
        rows,
        title="Vector scale — persistent population, two submissions, "
              "churn storm on the clock")


register(Scenario(
    name="vector_scale",
    description="Vector tier — multi-job scaling with churn storms",
    point=point_vector_scale,
    renderer=render_vector_scale,
    grid={"nodes": (10_000, 100_000), "storm_magnitude": (0.0, 0.3)},
    fixed={"tasks_per_node": 8},
    smoke_grid={"nodes": (4_000,), "storm_magnitude": (0.0, 0.3)},
    smoke_fixed={"tasks_per_node": 4},
))
