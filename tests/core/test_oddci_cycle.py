"""Integration tests: the full OddCI lifecycle on the generic plane.

Provider -> Controller -> broadcast wakeup -> PNAs -> DVE -> Backend ->
results -> dismantle.  These tests exercise the paper's Section 3
protocol end to end.
"""

import pytest

from repro.core import (
    FixedProbability,
    InstanceSpec,
    InstanceStatus,
    OddCISystem,
    PNAState,
)
from repro.errors import InstanceError, ProvisioningError
from repro.workloads import uniform_bag


def build_system(n_pnas=10, **kwargs):
    system = OddCISystem(beta_bps=1_000_000.0, delta_bps=150_000.0,
                         maintenance_interval_s=30.0, seed=7, **kwargs)
    system.add_pnas(n_pnas, heartbeat_interval_s=20.0,
                    dve_poll_interval_s=5.0)
    return system


def test_job_runs_to_completion_and_reports_makespan():
    system = build_system(n_pnas=10)
    job = uniform_bag(40, image_bits=1e6, input_bits=4096, ref_seconds=10.0,
                      result_bits=4096)
    submission = system.provider.submit_job(
        job, target_size=10, heartbeat_interval_s=20.0)
    report = system.provider.run_job_to_completion(submission, limit_s=1e6)
    assert report.n_tasks == 40
    assert report.makespan > 0
    # 40 tasks / 10 nodes * 10 s/task = 40 s of compute minimum, plus
    # image broadcast (1 Mbit / 1 Mbps = ~1 s) and I/O.
    assert 40.0 < report.makespan < 200.0
    assert report.distinct_workers <= 10
    assert report.duplicates == 0


def test_all_pnas_busy_after_wakeup_probability_one():
    system = build_system(n_pnas=8)
    job = uniform_bag(100, image_bits=1e6, ref_seconds=50.0)
    system.provider.submit_job(job, target_size=8)
    system.sim.run(until=30.0)
    assert system.busy_count() == 8


def test_probability_gates_recruitment():
    system = OddCISystem(seed=3, maintenance_interval_s=1e6,
                         probability_policy=FixedProbability(0.5))
    system.add_pnas(200, heartbeat_interval_s=1e5)
    job = uniform_bag(10, image_bits=1e5, ref_seconds=1e5)
    system.provider.submit_job(job, target_size=100)
    system.sim.run(until=50.0)
    busy = system.busy_count()
    # Binomial(200, 0.5): overwhelmingly within [70, 130].
    assert 70 < busy < 130


def test_busy_pna_drops_second_wakeup():
    system = build_system(n_pnas=5)
    job1 = uniform_bag(50, image_bits=1e6, ref_seconds=100.0)
    system.provider.submit_job(job1, target_size=5)
    system.sim.run(until=30.0)
    assert system.busy_count() == 5
    first_instance = system.pnas[0].instance_id
    job2 = uniform_bag(10, image_bits=1e6, ref_seconds=1.0)
    system.provider.submit_job(job2, target_size=5)
    system.sim.run(until=60.0)
    # All PNAs still belong to the first instance.
    assert all(p.instance_id == first_instance for p in system.pnas)
    assert all(p.dropped_busy >= 1 for p in system.pnas)


def test_requirements_filter_recruitment():
    system = OddCISystem(seed=1, maintenance_interval_s=1e6)
    system.add_pnas(5, capabilities={"memory_mb": 256})
    system.add_pnas(5, capabilities={"memory_mb": 64})
    job = uniform_bag(10, image_bits=1e5, ref_seconds=1e4)
    job = type(job)(image_bits=job.image_bits, tasks=job.tasks,
                    name=job.name, requirements={"min_memory_mb": 128})
    system.provider.submit_job(job, target_size=10)
    system.sim.run(until=30.0)
    busy = [p for p in system.pnas if p.state is PNAState.BUSY]
    assert len(busy) == 5
    assert all(p.capabilities["memory_mb"] == 256 for p in busy)
    small = [p for p in system.pnas if p.capabilities["memory_mb"] == 64]
    assert all(p.dropped_requirements >= 1 for p in small)


def test_instance_dismantled_after_job_completion():
    system = build_system(n_pnas=6)
    job = uniform_bag(12, image_bits=1e6, ref_seconds=5.0)
    submission = system.provider.submit_job(job, target_size=6)
    system.provider.run_job_to_completion(submission, limit_s=1e6)
    # After completion the provider auto-releases: reset broadcast.
    system.sim.run(until=system.sim.now + 120.0)
    assert system.busy_count() == 0
    record = system.controller.instance(submission.instance_id)
    assert record.status in (InstanceStatus.DISMANTLING,
                             InstanceStatus.DESTROYED)


def test_manual_release_resets_pnas():
    system = build_system(n_pnas=4)
    job = uniform_bag(100, image_bits=1e6, ref_seconds=1000.0)
    submission = system.provider.submit_job(job, target_size=4,
                                            release_on_completion=False)
    system.sim.run(until=30.0)
    assert system.busy_count() == 4
    system.provider.release(submission.instance_id)
    system.sim.run(until=60.0)
    assert system.busy_count() == 0
    assert all(p.resets_handled >= 1 for p in system.pnas)


def test_heartbeats_reach_controller():
    system = build_system(n_pnas=3)
    system.sim.run(until=100.0)
    assert system.controller.counters["heartbeats"] > 0
    assert system.controller.census.registry_size() == 3
    assert system.controller.idle_estimate() == 3


def test_forged_wakeup_rejected():
    """A wakeup signed by a different controller is dropped by PNAs."""
    from repro.core import WakeupPayload, sign_control
    from repro.net import Message

    system = build_system(n_pnas=4)
    rogue_key = system.keys.issue("rogue")
    payload = WakeupPayload(instance_id="evil", image_name="evil",
                            image_bits=1e5, probability=1.0)
    tag = sign_control(rogue_key, payload)
    system.broadcast.transmit(Message(sender="rogue",
                                      payload=(payload, tag),
                                      payload_bits=1e5))
    system.sim.run(until=30.0)
    assert system.busy_count() == 0
    assert sum(p.dropped_bad_signature for p in system.pnas) == 4


def test_two_concurrent_instances_partition_pnas():
    system = OddCISystem(seed=11, maintenance_interval_s=30.0)
    system.add_pnas(20, heartbeat_interval_s=10.0, dve_poll_interval_s=5.0)
    job_a = uniform_bag(500, image_bits=1e6, ref_seconds=100.0,
                        name="job-a")
    job_b = uniform_bag(500, image_bits=1e6, ref_seconds=100.0,
                        name="job-b")
    sub_a = system.provider.submit_job(job_a, target_size=8)
    system.sim.run(until=200.0)
    sub_b = system.provider.submit_job(job_b, target_size=8)
    system.sim.run(until=600.0)
    members_a = {p.pna_id for p in system.pnas
                 if p.instance_id == sub_a.instance_id}
    members_b = {p.pna_id for p in system.pnas
                 if p.instance_id == sub_b.instance_id}
    assert not members_a & members_b
    assert len(members_a) >= 7  # near target (tolerance band)
    assert len(members_b) >= 7


def test_resize_shrinks_instance_via_trim():
    system = build_system(n_pnas=10)
    job = uniform_bag(1000, image_bits=1e6, ref_seconds=500.0)
    submission = system.provider.submit_job(job, target_size=10,
                                            heartbeat_interval_s=10.0)
    system.sim.run(until=60.0)
    assert system.busy_count() == 10
    system.provider.resize(submission.instance_id, 4)
    system.sim.run(until=300.0)
    assert system.busy_count() <= 5  # trimmed to ~4 (tolerance band)
    record = system.controller.instance(submission.instance_id)
    assert record.trims_sent >= 5


def test_resize_validation():
    system = build_system(n_pnas=2)
    job = uniform_bag(10, image_bits=1e6, ref_seconds=100.0)
    submission = system.provider.submit_job(job, target_size=2)
    with pytest.raises(InstanceError):
        system.provider.resize(submission.instance_id, 0)
    with pytest.raises(InstanceError):
        system.provider.resize("no-such-instance", 5)


def test_duplicate_instance_id_rejected():
    system = build_system(n_pnas=2)
    spec = InstanceSpec(target_size=1, image_name="x", image_bits=1e5)
    system.controller.create_instance(spec, instance_id="fixed")
    with pytest.raises(ProvisioningError):
        system.controller.create_instance(spec, instance_id="fixed")


def test_submit_job_validation():
    system = build_system(n_pnas=2)
    job = uniform_bag(5)
    with pytest.raises(ProvisioningError):
        system.provider.submit_job(job, target_size=0)


def test_provider_status_reporting():
    system = build_system(n_pnas=5)
    job = uniform_bag(20, image_bits=1e6, ref_seconds=30.0)
    submission = system.provider.submit_job(job, target_size=5,
                                            heartbeat_interval_s=10.0)
    system.sim.run(until=100.0)
    status = system.provider.status(submission.instance_id)
    assert status["target_size"] == 5
    assert status["tasks_total"] == 20
    assert status["size"] >= 4
    assert status["tasks_completed"] > 0
