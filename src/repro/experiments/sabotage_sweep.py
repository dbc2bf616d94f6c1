"""Sabotage sweep — escaped-error rate and redundancy cost vs saboteurs.

Runs the same bag-of-tasks workload while a scripted ``saboteur`` fault
converts a fraction of the fleet into result-fabricating adversaries at
t=1, and compares three certification policies (DESIGN.md §15) on the
same grid:

* ``none`` — the measured uncertified baseline: every result is
  accepted at face value (``mode="audit"``: single dispatch, no
  probes, no quarantine), and the certifier's ground-truth audit
  counts how many fabricated results land in completion records;
* ``quorum3`` — static redundant dispatch at ``r=3`` with majority
  voting, spot-check probes and credibility-driven quarantine;
* ``adaptive`` — the same machinery, but replication decays to
  ``r_min=1`` for nodes whose credibility has crossed the trust
  threshold, so the steady-state overhead undercuts static ``r=3``
  while first contact still pays full redundancy.

Reported per point:

* ``escaped_rate`` — fabricated results committed / tasks (the
  headline: certification must hold this under 1% where the baseline
  shows the saboteur fraction);
* ``redundancy_overhead`` — certified copies issued per task (1.0 is
  the no-replication floor);
* ``makespan_s`` and, after :func:`finalize_sabotage_sweep`,
  ``makespan_overhead`` relative to the ``none`` policy at the same
  saboteur fraction;
* quarantine/probe/vote counters straight off the certifier.

Everything rides the deterministic seeding contract, so the sweep is
``--jobs`` byte-identical like every other scenario, on both task
paths: the cohort engine, and the per-PNA DVE reference that tests
select by patching ``repro.core.pna.engine_for``
(tests/certify/test_sabotage_e2e.py).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import render_records
from repro.certify import CertifyPolicy
from repro.core.system import OddCISystem
from repro.errors import ScenarioError
from repro.faults import FaultEvent, FaultPlan, active_plan
from repro.net.message import MEGABYTE
from repro.runner.scenario import Scenario, register
from repro.workloads.bot import uniform_bag

__all__ = [
    "CERTIFY_POLICIES",
    "sabotage_plan",
    "point_sabotage_sweep",
    "finalize_sabotage_sweep",
    "render_sabotage_sweep",
    "run_sabotage_sweep",
]

#: The three policy columns of the sweep.  ``none`` is the measured
#: uncertified baseline (audit mode), not a separate code path: the
#: same certifier runs with replication off, so the escape counter has
#: identical semantics across columns.
CERTIFY_POLICIES: Dict[str, CertifyPolicy] = {
    "none": CertifyPolicy(mode="audit"),
    "quorum3": CertifyPolicy(mode="static", r=3, probe_rate=0.05,
                             quarantine_after=3),
    "adaptive": CertifyPolicy(mode="adaptive", r_min=1, r_max=3,
                              probe_rate=0.05, trust_threshold=0.9,
                              quarantine_after=3),
}


def sabotage_plan(fraction: float) -> FaultPlan:
    """A permanent saboteur cohort covering ``fraction`` of the fleet.

    Fraction 0 is an *empty* plan (not a zero-width saboteur event), so
    the clean column runs the exact disabled-faults code path.
    """
    if fraction <= 0:
        return FaultPlan(name="sabotage-0")
    events = (FaultEvent("saboteur", 1.0, magnitude=fraction,
                         event_id="sab"),)
    return FaultPlan(events=events, name=f"sabotage-{fraction:g}")


def point_sabotage_sweep(
    saboteur_fraction: float,
    policy: str,
    *,
    n_pnas: int = 12,
    target: int = 8,
    n_tasks: int = 120,
    ref_seconds: float = 20.0,
    heartbeat_interval_s: float = 15.0,
    maintenance_interval_s: float = 30.0,
    lease_factor: float = 3.0,
    seed: int = 0,
) -> Dict[str, float]:
    """Run the workload under one (fraction, policy) cell.

    The fleet has spare nodes (``n_pnas > target``) so quarantined
    saboteurs can be replaced by recruitment, and the lease machinery
    gets exponential backoff with seeded jitter
    (``lease_backoff_base``/``jitter`` through the Provider) so
    straggler-stranded copies re-disperse instead of thundering back.
    """
    try:
        certify_policy = CERTIFY_POLICIES[policy]
    except KeyError:
        raise ScenarioError(
            f"unknown certification policy {policy!r}; known: "
            f"{', '.join(CERTIFY_POLICIES)}") from None
    plan = sabotage_plan(saboteur_fraction)
    with active_plan(plan if plan.events else None):
        system = OddCISystem(
            seed=seed, maintenance_interval_s=maintenance_interval_s)
        system.add_pnas(n_pnas, heartbeat_interval_s=heartbeat_interval_s,
                        dve_poll_interval_s=5.0)
        job = uniform_bag(n_tasks, image_bits=MEGABYTE,
                          ref_seconds=ref_seconds,
                          name=f"sabotage-{saboteur_fraction:g}-{policy}")
        submission = system.provider.submit_job(
            job, target_size=target,
            heartbeat_interval_s=heartbeat_interval_s,
            lease_factor=lease_factor,
            lease_backoff_base=1.5,
            lease_backoff_jitter=0.2,
            certify_policy=certify_policy,
            release_on_completion=False)
        report = system.provider.run_job_to_completion(
            submission, limit_s=1e7)

    certifier = submission.backend.certifier
    return {
        "makespan_s": report.makespan,
        "completed": submission.backend.done,
        "escaped": certifier.escaped_errors,
        "escaped_rate": certifier.escaped_errors / n_tasks,
        "redundancy_overhead": certifier.redundancy_overhead(),
        "copies_issued": certifier.copies_issued,
        "votes_rejected": certifier.votes_rejected,
        "probes_issued": certifier.probes_issued,
        "probes_failed": certifier.probes_failed,
        "quarantines": certifier.quarantines,
        "blacklisted": len(system.controller.blacklist),
        "tasks_redispatched": submission.backend.requeues,
    }


def finalize_sabotage_sweep(
        records: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """Cross-point fields: makespan overhead vs the uncertified column."""
    baselines = {r["saboteur_fraction"]: r["makespan_s"]
                 for r in records if r["policy"] == "none"}
    for record in records:
        base = baselines.get(record["saboteur_fraction"])
        record["makespan_overhead"] = (
            record["makespan_s"] / base if base else 1.0)
    return records


#: bar scale of the ASCII frontier: one column per 2% escaped rate.
_BAR_SCALE = 0.02


def render_sabotage_sweep(records: List[Dict[str, float]]) -> str:
    """Record table plus an ASCII frontier of escapes vs overhead."""
    table = render_records(
        records,
        title="Sabotage sweep — escaped errors & redundancy "
              "vs saboteur fraction")
    lines = [table, "",
             "Escaped-error frontier (each # = 2% of tasks):"]
    for record in records:
        bar = "#" * int(round(record["escaped_rate"] / _BAR_SCALE))
        lines.append(
            f"  f={record['saboteur_fraction']:>4g} "
            f"{record['policy']:>8}: "
            f"|{bar:<25}| {100 * record['escaped_rate']:5.1f}% escaped, "
            f"{record['redundancy_overhead']:.2f}x copies, "
            f"{record['makespan_overhead']:.2f}x makespan")
    return "\n".join(lines)


def run_sabotage_sweep(
    *,
    fractions: tuple = (0.0, 0.1, 0.3, 0.5),
    policies: tuple = ("none", "quorum3", "adaptive"),
    n_pnas: int = 12,
    target: int = 8,
    n_tasks: int = 120,
    ref_seconds: float = 20.0,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Serial wrapper with the registry runner's record shape."""
    records: List[Dict[str, float]] = []
    for fraction in fractions:
        for policy in policies:
            record: Dict[str, float] = {
                "saboteur_fraction": fraction, "policy": policy}
            record.update(point_sabotage_sweep(
                fraction, policy, n_pnas=n_pnas, target=target,
                n_tasks=n_tasks, ref_seconds=ref_seconds, seed=seed))
            records.append(record)
    return finalize_sabotage_sweep(records)


register(Scenario(
    name="sabotage_sweep",
    description="Escaped errors & redundancy cost under result sabotage",
    point=point_sabotage_sweep,
    renderer=render_sabotage_sweep,
    grid={"saboteur_fraction": (0.0, 0.1, 0.3, 0.5),
          "policy": ("none", "quorum3", "adaptive")},
    fixed={"n_pnas": 12, "target": 8, "n_tasks": 120, "ref_seconds": 20.0},
    smoke_grid={"saboteur_fraction": (0.0, 0.3)},
    smoke_fixed={"n_pnas": 8, "target": 5, "n_tasks": 40,
                 "ref_seconds": 15.0},
    finalize=finalize_sabotage_sweep,
))
