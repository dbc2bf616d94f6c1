"""Controller crash → checkpoint restore → census reconciliation."""

import pytest

from repro.core import OddCISystem
from repro.errors import ControllerDownError, OddCIError
from repro.faults import active_plan, parse_fault_plan
from repro.workloads import uniform_bag


def running_system(seed=0, n_pnas=10, target=6, plan=None):
    with active_plan(plan):
        system = OddCISystem(seed=seed, maintenance_interval_s=20.0)
    system.add_pnas(n_pnas, heartbeat_interval_s=10.0,
                    dve_poll_interval_s=5.0)
    job = uniform_bag(10_000, image_bits=1e6, ref_seconds=300.0)
    submission = system.provider.submit_job(
        job, target_size=target, heartbeat_interval_s=10.0)
    system.sim.run(until=60.0)
    assert system.controller.instance(submission.instance_id).size == target
    return system, submission


def test_crash_clears_census_and_blocks_provider_api():
    system, submission = running_system()
    controller = system.controller
    controller.crash()
    assert not controller.alive
    assert list(controller.census.registry_items()) == []
    record = controller.instance(submission.instance_id)
    assert record.size == 0
    job = uniform_bag(10, image_bits=1e6, ref_seconds=1.0)
    with pytest.raises(ControllerDownError):
        system.provider.submit_job(job, target_size=2)
    with pytest.raises(ControllerDownError):
        system.provider.release(submission.instance_id)


def test_restore_reconciles_census_from_heartbeats():
    system, submission = running_system()
    controller = system.controller
    crash_at = system.sim.now
    controller.crash()
    # Heartbeats sent while down vanish (undeliverable), they don't queue.
    system.sim.run(until=crash_at + 30.0)
    assert list(controller.census.registry_items()) == []
    controller.restore()
    assert controller.alive
    # Instance is identity-preserved, degraded until heartbeats return.
    record = controller.instance(submission.instance_id)
    assert record is submission.record
    system.sim.run(until=crash_at + 120.0)
    assert record.size == record.spec.target_size
    assert controller.census.registry_size() == len(system.pnas)
    assert controller.mttr_history, "recovery must close the MTTR clock"
    assert controller.counters["crashes"] == 1
    assert controller.counters["restores"] == 1


def test_restore_requires_a_crash():
    system, _ = running_system()
    with pytest.raises(OddCIError):
        system.controller.restore()


def test_crash_is_idempotent():
    system, _ = running_system()
    system.controller.crash()
    system.controller.crash()  # no-op, no double unregister
    assert system.controller.counters["crashes"] == 1


def test_injected_crash_recovers_and_job_completes():
    """The acceptance-style end-to-end: a scripted crash mid-job, the
    workload still finishes and MTTR is reported."""
    plan = parse_fault_plan("controller_crash@80,dur=40")
    with active_plan(plan):
        system = OddCISystem(seed=3, maintenance_interval_s=20.0)
    system.add_pnas(8, heartbeat_interval_s=10.0, dve_poll_interval_s=5.0)
    job = uniform_bag(30, image_bits=1e6, ref_seconds=20.0)
    submission = system.provider.submit_job(
        job, target_size=5, heartbeat_interval_s=10.0, lease_factor=3.0)
    report = system.provider.run_job_to_completion(submission, limit_s=1e6)
    assert report.n_tasks == 30
    controller = system.controller
    assert controller.counters["crashes"] == 1
    assert controller.counters["restores"] == 1
    assert controller.alive
    assert len(controller.mttr_history) >= 1
    assert all(mttr > 0 for mttr in controller.mttr_history)


def test_job_finishing_during_crash_does_not_explode():
    """Auto-release during controller downtime is tolerated; the
    instance is reaped after restore instead."""
    plan = parse_fault_plan("controller_crash@5,dur=120")
    with active_plan(plan):
        system = OddCISystem(seed=4, maintenance_interval_s=20.0)
    system.add_pnas(6, heartbeat_interval_s=10.0, dve_poll_interval_s=2.0)
    # Small job: recruited before the crash, finishes inside the window.
    job = uniform_bag(20, image_bits=1e6, ref_seconds=2.0)
    submission = system.provider.submit_job(
        job, target_size=4, heartbeat_interval_s=10.0)
    report = system.provider.run_job_to_completion(submission, limit_s=1e6)
    assert report.n_tasks == 20
    assert not system.controller.alive  # finished during the outage
    system.sim.run(until=200.0)
    assert system.controller.alive


def test_crash_on_maintenance_tick_does_not_fire_a_ghost_round():
    """A crash injected at the exact instant of a maintenance tick must
    not let the already-dequeued round run against the freshly-cleared
    census — that round would see a full deficit and broadcast a bogus
    wakeup from a dead Controller, recruiting every idle PNA."""
    # maintenance_interval_s=20 in running_system → ticks at 20,40,60,80.
    plan = parse_fault_plan("controller_crash@80,dur=40")
    system, submission = running_system(seed=3, plan=plan)
    busy_before = system.busy_count()
    assert busy_before == submission.record.spec.target_size
    # Initial recruitment may legitimately over-shoot and trim; only
    # trims *caused by the crash* count against the guard.
    trims_before = system.controller.counters["trim_replies"]
    # Just after the crash instant: nobody new recruited.
    system.sim.run(until=81.0)
    assert not system.controller.alive
    assert system.busy_count() == busy_before
    # Through the outage and well past restore: size settles at target
    # with no over-recruit/trim churn.
    system.sim.run(until=300.0)
    assert system.controller.alive
    assert system.busy_count() == busy_before
    assert system.controller.counters["trim_replies"] == trims_before
