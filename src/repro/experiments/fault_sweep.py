"""Fault sweep — availability and makespan inflation vs fault intensity.

Runs the same bag-of-tasks workload on an event-tier OddCI system while
an intensity-scaled :class:`~repro.faults.FaultPlan` injects a
signature-corruption window, a Controller crash, a correlated churn
storm, a broadcast outage and a flapping node link.  Intensity 0 is the
fault-free baseline; higher intensities stretch the outage durations
and widen the storm.

Reported per point:

* ``availability`` — fraction of the run the instance census sat at or
  above its tolerance floor (:func:`repro.faults.availability_fraction`
  over the Controller's size history);
* ``mttr_s`` — mean time-to-recover across recovery episodes (crash →
  census reconciled, disruption → fleet back at target);
* ``tasks_redispatched`` / ``duplicates`` — Backend lease-expiry
  re-dispatches and suppressed duplicate results;
* ``makespan_s`` and, after :func:`finalize_fault_sweep`,
  ``makespan_inflation`` relative to the intensity-0 baseline.

Everything rides the deterministic seeding contract, so the sweep is
``--jobs`` byte-identical like every other scenario.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import render_records
from repro.core.system import OddCISystem
from repro.faults import (
    FaultEvent,
    FaultPlan,
    active_plan,
    availability_fraction,
)
from repro.net.message import MEGABYTE
from repro.runner.scenario import Scenario, register
from repro.workloads.bot import uniform_bag

__all__ = [
    "fault_plan_for_intensity",
    "point_fault_sweep",
    "finalize_fault_sweep",
    "render_fault_sweep",
]


def fault_plan_for_intensity(intensity: float) -> FaultPlan:
    """The sweep's scripted chaos, scaled by ``intensity``.

    Intensity 0 is an *empty* plan (not a plan of zero-length faults),
    so the baseline point runs the exact disabled-faults code path.
    Event times are fixed; durations and the storm fraction scale, so
    higher intensity means longer outages hitting the same workload
    phase — not different chaos.
    """
    if intensity <= 0:
        return FaultPlan(name="sweep-0")
    events = (
        FaultEvent("signature_corruption", 50.0,
                   duration_s=20.0 * intensity),
        FaultEvent("controller_crash", 80.0, duration_s=40.0 * intensity),
        FaultEvent("churn_storm", 140.0, duration_s=80.0,
                   magnitude=min(0.6, 0.3 * intensity)),
        FaultEvent("broadcast_outage", 230.0, duration_s=20.0 * intensity),
        FaultEvent("link_flap", 280.0, duration_s=10.0,
                   magnitude=max(1.0, float(round(intensity)))),
    )
    return FaultPlan(events=events, name=f"sweep-{intensity:g}")


def point_fault_sweep(
    intensity: float,
    *,
    n_pnas: int = 10,
    target: int = 6,
    n_tasks: int = 60,
    ref_seconds: float = 40.0,
    heartbeat_interval_s: float = 15.0,
    maintenance_interval_s: float = 30.0,
    lease_factor: float = 3.0,
    seed: int = 0,
) -> Dict[str, float]:
    """Run the workload under one fault intensity; report recovery stats.

    The fleet has spare nodes (``n_pnas > target``) so storm victims can
    be replaced by recruitment, and a lease factor so tasks stranded on
    crashed nodes are re-dispatched — the job must *complete* at every
    intensity, just later.
    """
    plan = fault_plan_for_intensity(intensity)
    with active_plan(plan if plan.events else None):
        system = OddCISystem(
            seed=seed, maintenance_interval_s=maintenance_interval_s)
        system.add_pnas(n_pnas, heartbeat_interval_s=heartbeat_interval_s,
                        dve_poll_interval_s=5.0)
        job = uniform_bag(n_tasks, image_bits=MEGABYTE,
                          ref_seconds=ref_seconds,
                          name=f"fault-sweep-{intensity:g}")
        submission = system.provider.submit_job(
            job, target_size=target,
            heartbeat_interval_s=heartbeat_interval_s,
            lease_factor=lease_factor,
            release_on_completion=False)
        report = system.provider.run_job_to_completion(
            submission, limit_s=1e6)

    controller = system.controller
    series = controller.size_history[submission.instance_id]
    availability = availability_fraction(
        series, target,
        size_tolerance=submission.record.spec.size_tolerance,
        until=system.sim.now)
    mttr_mean = (sum(controller.mttr_history)
                 / len(controller.mttr_history)
                 if controller.mttr_history else 0.0)
    return {
        "makespan_s": report.makespan,
        "completed": submission.backend.done,
        "availability": availability,
        "mttr_s": mttr_mean,
        "recoveries": len(controller.mttr_history),
        "controller_crashes": controller.counters["crashes"],
        "tasks_redispatched": submission.backend.requeues,
        "duplicates": submission.backend.duplicates,
        "wakeups_deferred": controller.counters["wakeups_deferred"],
        "faults_fired": (len(system.fault_injector.fired)
                         if system.fault_injector is not None else 0),
    }


def finalize_fault_sweep(
        records: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """Cross-point fields: makespan inflation over the clean baseline."""
    baseline = next(r for r in records if r["intensity"] == 0.0)
    for record in records:
        record["makespan_inflation"] = (
            record["makespan_s"] / baseline["makespan_s"])
    return records


def render_fault_sweep(records: List[Dict[str, float]]) -> str:
    return render_records(
        records,
        title="Fault sweep — availability & makespan inflation "
              "vs fault intensity")


register(Scenario(
    name="fault_sweep",
    description="Availability & makespan inflation under injected faults",
    point=point_fault_sweep,
    renderer=render_fault_sweep,
    grid={"intensity": (0.0, 0.5, 1.0, 2.0)},
    fixed={"n_pnas": 10, "target": 6, "n_tasks": 60, "ref_seconds": 40.0},
    smoke_grid={"intensity": (0.0, 1.0)},
    smoke_fixed={"n_pnas": 6, "target": 4, "n_tasks": 30,
                 "ref_seconds": 30.0},
    finalize=finalize_fault_sweep,
))
