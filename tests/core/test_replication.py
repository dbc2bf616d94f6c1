"""Tests for tail replication (speculative execution of stragglers)."""

import pytest

from repro.core import Backend, OddCISystem, Router
from repro.core.messages import (CONTROL_PAYLOAD_BITS, NoWork, TaskAssignment,
                                 TaskRequest, TaskResultPayload)
from repro.errors import BackendError
from repro.net import DuplexChannel
from repro.sim import Simulator
from repro.workloads import uniform_bag


class FakePNA:
    def __init__(self, sim, router, pna_id):
        self.sim = sim
        self.router = router
        self.pna_id = pna_id
        self.inbox = []
        ch = DuplexChannel(sim, rate_bps=1e9)
        router.register_pna(pna_id, ch, self.inbox.append)

    def request(self):
        self.router.send_from_pna(
            self.pna_id, "backend",
            TaskRequest(pna_id=self.pna_id, instance_id="i"),
            CONTROL_PAYLOAD_BITS)

    def complete(self, task_id):
        self.router.send_from_pna(
            self.pna_id, "backend",
            TaskResultPayload(pna_id=self.pna_id, task_id=task_id),
            CONTROL_PAYLOAD_BITS)

    def last(self):
        return self.inbox[-1] if self.inbox else None


def make(sim, router, n_tasks=2, **kwargs):
    job = uniform_bag(n_tasks, image_bits=1e6, ref_seconds=10.0)
    return Backend(sim, job, router, replicate_tail=True, **kwargs), job


def test_replica_issued_when_bag_empty():
    sim = Simulator()
    router = Router(sim)
    backend, _ = make(sim, router, n_tasks=1)
    p1 = FakePNA(sim, router, "p1")
    p2 = FakePNA(sim, router, "p2")
    p1.request()
    sim.run()
    assert isinstance(p1.last(), TaskAssignment)
    p2.request()
    sim.run()
    # bag is empty but task 0 is in flight: p2 gets a replica, not NoWork
    assert isinstance(p2.last(), TaskAssignment)
    assert p2.last().task_id == 0
    assert backend.replicas_issued == 1


def test_first_result_wins_and_later_is_duplicate():
    sim = Simulator()
    router = Router(sim)
    backend, _ = make(sim, router, n_tasks=1)
    p1 = FakePNA(sim, router, "p1")
    p2 = FakePNA(sim, router, "p2")
    p1.request(); sim.run()
    p2.request(); sim.run()
    p2.complete(0); sim.run()
    assert backend.done
    report = backend.done_event.value
    assert report.replicas_issued == 1
    p1.complete(0); sim.run()
    assert backend.duplicates == 1
    assert backend.completed_count == 1


def test_same_worker_not_given_its_own_task_as_replica():
    sim = Simulator()
    router = Router(sim)
    backend, _ = make(sim, router, n_tasks=1)
    p1 = FakePNA(sim, router, "p1")
    p1.request(); sim.run()
    p1.request(); sim.run()
    assert isinstance(p1.last(), NoWork)
    assert backend.replicas_issued == 0


def test_max_replicas_bounds_copies():
    sim = Simulator()
    router = Router(sim)
    backend, _ = make(sim, router, n_tasks=1, max_replicas=2)
    workers = [FakePNA(sim, router, f"p{i}") for i in range(3)]
    for w in workers:
        w.request()
        sim.run()
    # primary + 1 replica allowed; third requester gets NoWork
    assert isinstance(workers[0].last(), TaskAssignment)
    assert isinstance(workers[1].last(), TaskAssignment)
    assert isinstance(workers[2].last(), NoWork)


def test_oldest_in_flight_replicated_first():
    sim = Simulator()
    router = Router(sim)
    backend, _ = make(sim, router, n_tasks=2)
    p1 = FakePNA(sim, router, "p1")
    p2 = FakePNA(sim, router, "p2")
    p3 = FakePNA(sim, router, "p3")
    p1.request(); sim.run(until=1.0)   # task 0 at t~0
    p2.request(); sim.run(until=2.0)   # task 1 at t~1
    p3.request(); sim.run(until=3.0)
    assert p3.last().task_id == 0      # oldest assignment replicated


def test_max_replicas_validation():
    sim = Simulator()
    router = Router(sim)
    job = uniform_bag(1)
    with pytest.raises(BackendError):
        Backend(sim, job, router, replicate_tail=True, max_replicas=1)


def test_end_to_end_replication_beats_straggler():
    """A slow node holding the last task is rescued by a replica on a
    fast node."""
    system = OddCISystem(seed=33, maintenance_interval_s=1e6)
    # one very slow node, three fast ones
    slow = system.add_pna(executor=lambda ref: ref * 50.0,
                          heartbeat_interval_s=1e5,
                          dve_poll_interval_s=2.0)
    system.add_pnas(3, heartbeat_interval_s=1e5, dve_poll_interval_s=2.0)
    job = uniform_bag(4, image_bits=1e5, ref_seconds=20.0)
    submission = system.provider.submit_job(job, target_size=4,
                                            replicate_tail=True)
    report = system.provider.run_job_to_completion(submission, limit_s=1e6)
    # Without replication the slow node's task takes 1000 s; with it a
    # fast node re-executes the straggler and the job finishes earlier.
    assert report.makespan < 900.0
    assert report.replicas_issued >= 1
