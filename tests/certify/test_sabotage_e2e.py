"""End-to-end sabotage runs: certification holds on both task paths.

These drive the full stack — injector-flipped saboteurs, redundant
dispatch, quorum voting, quarantine feeding the Controller blacklist —
and pin that the cohort engine and the per-PNA process path agree
byte-for-byte on every reported number.  Each run is pinned to one path
by the ``dve`` fixture (tests/conftest.py).
"""

from repro.core.system import OddCISystem
from repro.experiments import CERTIFY_POLICIES, sabotage_plan
from repro.faults import active_plan
from repro.net.message import MEGABYTE
from repro.workloads import uniform_bag
from repro.workloads.job import reset_job_sequence


def run_point(path, policy="quorum3", fraction=0.3, seed=0):
    # Fresh job numbering: backend ids (and thus certifier rng streams)
    # must not depend on how many runs this process did before.
    reset_job_sequence()
    plan = sabotage_plan(fraction)
    with path(), active_plan(plan if plan.events else None):
        system = OddCISystem(seed=seed, maintenance_interval_s=30.0)
        system.add_pnas(8, heartbeat_interval_s=15.0,
                        dve_poll_interval_s=5.0)
        job = uniform_bag(30, image_bits=MEGABYTE, ref_seconds=10.0,
                          name="sabotage-e2e")
        submission = system.provider.submit_job(
            job, target_size=5, heartbeat_interval_s=15.0,
            lease_factor=3.0, lease_backoff_base=1.5,
            lease_backoff_jitter=0.2,
            certify_policy=CERTIFY_POLICIES[policy],
            release_on_completion=False)
        report = system.provider.run_job_to_completion(
            submission, limit_s=1e7)
    certifier = submission.backend.certifier
    return {
        "makespan_s": report.makespan,
        "done": submission.backend.done,
        "certified": certifier.tasks_certified,
        "escaped": certifier.escaped_errors,
        "copies_issued": certifier.copies_issued,
        "votes_rejected": certifier.votes_rejected,
        "probes_issued": certifier.probes_issued,
        "probes_failed": certifier.probes_failed,
        "quarantines": certifier.quarantines,
        "blacklisted": tuple(sorted(system.controller.blacklist)),
        "requeues": submission.backend.requeues,
    }


def test_quorum_blocks_every_byzantine_result_end_to_end(dve):
    out = run_point(dve.cohort, policy="quorum3", fraction=0.3)
    assert out["done"]
    assert out["certified"] == 30
    assert out["escaped"] == 0
    # Saboteurs were outvoted (rejected votes) and/or convicted.
    assert out["votes_rejected"] > 0 or out["quarantines"] > 0
    # Quarantines propagate into the Controller blacklist.
    assert len(out["blacklisted"]) == out["quarantines"]


def test_uncertified_baseline_leaks_fabricated_results(dve):
    out = run_point(dve.cohort, policy="none", fraction=0.3)
    assert out["done"]
    assert out["escaped"] > 0          # the headline the sweep measures
    assert out["quarantines"] == 0     # audit mode never convicts


def test_adaptive_policy_spends_fewer_copies_than_static(dve):
    static = run_point(dve.cohort, policy="quorum3", fraction=0.0)
    adaptive = run_point(dve.cohort, policy="adaptive", fraction=0.0)
    assert static["escaped"] == adaptive["escaped"] == 0
    assert adaptive["copies_issued"] < static["copies_issued"]


def test_task_paths_agree_byte_for_byte(dve):
    for policy in ("none", "quorum3", "adaptive"):
        cohort = run_point(dve.cohort, policy=policy)
        process = run_point(dve.per_pna, policy=policy)
        assert cohort == process, policy


def test_runs_are_seed_deterministic(dve):
    assert run_point(dve.cohort) == run_point(dve.cohort)
    assert run_point(dve.cohort, seed=1)["done"]
