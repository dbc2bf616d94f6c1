"""Unit tests for the Router and the Backend's scheduling logic."""

import pytest

from repro.core import Backend, Router, TaskRequest, TaskResultPayload
from repro.core.dve import CONTROL_PAYLOAD_BITS
from repro.core.messages import NoWork, TaskAssignment
from repro.errors import BackendError, NetworkError
from repro.net import DuplexChannel, Message
from repro.sim import Simulator
from repro.workloads import uniform_bag


# -- Router ---------------------------------------------------------------

def test_router_component_registration():
    sim = Simulator()
    router = Router(sim)
    router.register_component("c", lambda msg: None)
    with pytest.raises(NetworkError):
        router.register_component("c", lambda msg: None)
    router.unregister_component("c")
    router.register_component("c", lambda msg: None)


def test_router_pna_registration_and_routing():
    sim = Simulator()
    router = Router(sim)
    received = []
    router.register_component("backend", received.append)
    ch = DuplexChannel(sim, rate_bps=1e6)
    down = []
    router.register_pna("p1", ch, down.append)
    with pytest.raises(NetworkError):
        router.register_pna("p1", ch, down.append)

    router.send_from_pna("p1", "backend", {"x": 1}, 100)
    sim.run()
    assert len(received) == 1
    assert received[0].sender == "p1"

    router.send_to_pna("backend", "p1", {"y": 2}, 100)
    sim.run()
    assert len(down) == 1
    assert down[0].payload == {"y": 2}


def test_router_unknown_pna_raises():
    sim = Simulator()
    router = Router(sim)
    with pytest.raises(NetworkError):
        router.send_from_pna("ghost", "backend", None, 0)
    with pytest.raises(NetworkError):
        router.send_to_pna("backend", "ghost", None, 0)
    assert not router.has_pna("ghost")


def test_router_unknown_recipient_counted():
    sim = Simulator()
    router = Router(sim)
    ch = DuplexChannel(sim, rate_bps=1e6)
    router.register_pna("p1", ch, lambda m: None)
    router.send_from_pna("p1", "nobody", None, 10)
    sim.run()
    assert router.undeliverable == 1


# -- Backend ------------------------------------------------------------------

class FakePNA:
    """Minimal harness standing in for a PNA + DVE."""

    def __init__(self, sim, router, pna_id):
        self.sim = sim
        self.router = router
        self.pna_id = pna_id
        self.inbox = []
        ch = DuplexChannel(sim, rate_bps=1e9)
        router.register_pna(pna_id, ch, lambda m: self.inbox.append(m))

    def request(self, instance_id="i-1"):
        self.router.send_from_pna(
            self.pna_id, "backend",
            TaskRequest(pna_id=self.pna_id, instance_id=instance_id),
            CONTROL_PAYLOAD_BITS)

    def complete(self, task_id):
        self.router.send_from_pna(
            self.pna_id, "backend",
            TaskResultPayload(pna_id=self.pna_id, task_id=task_id),
            CONTROL_PAYLOAD_BITS)

    def last_payload(self):
        return self.inbox[-1].payload if self.inbox else None


def make_backend(sim, router, n_tasks=4, **kwargs):
    job = uniform_bag(n_tasks, image_bits=1e6, input_bits=1000,
                      ref_seconds=10.0, result_bits=500)
    return Backend(sim, job, router, **kwargs), job


def test_backend_assigns_tasks_in_order():
    sim = Simulator()
    router = Router(sim)
    backend, job = make_backend(sim, router, n_tasks=3)
    pna = FakePNA(sim, router, "p1")
    pna.request()
    sim.run()
    a = pna.last_payload()
    assert isinstance(a, TaskAssignment)
    assert a.task_id == 0
    assert backend.in_flight_count == 1
    assert backend.pending_count == 2


def test_backend_nowork_when_empty_but_running():
    sim = Simulator()
    router = Router(sim)
    backend, job = make_backend(sim, router, n_tasks=1)
    p1 = FakePNA(sim, router, "p1")
    p2 = FakePNA(sim, router, "p2")
    p1.request()
    sim.run()
    p2.request()
    sim.run()
    reply = p2.last_payload()
    assert isinstance(reply, NoWork)
    assert reply.retry_after_s is not None  # job not done: poll again


def test_backend_nowork_final_after_completion():
    sim = Simulator()
    router = Router(sim)
    backend, job = make_backend(sim, router, n_tasks=1)
    p1 = FakePNA(sim, router, "p1")
    p1.request()
    sim.run()
    p1.complete(0)
    sim.run()
    assert backend.done
    p1.request()
    sim.run()
    reply = p1.last_payload()
    assert isinstance(reply, NoWork) and reply.retry_after_s is None


def test_backend_done_event_carries_report():
    sim = Simulator()
    router = Router(sim)
    backend, job = make_backend(sim, router, n_tasks=2)
    p = FakePNA(sim, router, "p1")
    for tid in (0, 1):
        p.request()
        sim.run()
        p.complete(tid)
        sim.run()
    report = backend.done_event.value
    assert report.n_tasks == 2
    assert report.distinct_workers == 1
    assert report.makespan > 0
    assert backend.report().makespan == report.makespan


def test_backend_report_before_done_raises():
    sim = Simulator()
    router = Router(sim)
    backend, _ = make_backend(sim, router)
    with pytest.raises(BackendError):
        backend.report()


def test_backend_duplicate_results_deduplicated():
    sim = Simulator()
    router = Router(sim)
    backend, job = make_backend(sim, router, n_tasks=1)
    p = FakePNA(sim, router, "p1")
    p.request()
    sim.run()
    p.complete(0)
    p.complete(0)
    sim.run()
    assert backend.completed_count == 1
    assert backend.duplicates == 1


def test_backend_unexpected_payload_raises():
    sim = Simulator()
    router = Router(sim)
    backend, _ = make_backend(sim, router)
    with pytest.raises(BackendError):
        backend._receive(Message(sender="x", recipient="backend",
                                 payload="garbage"))


def test_backend_lease_requeues_expired_assignment():
    sim = Simulator()
    router = Router(sim)
    backend, job = make_backend(
        sim, router, n_tasks=1, lease_factor=0.001,
        lease_check_interval_s=5.0)
    p1 = FakePNA(sim, router, "p1")
    p1.request()
    sim.run(until=1.0)
    assert backend.in_flight_count == 1
    sim.run(until=100.0)  # lease expires -> requeue
    assert backend.pending_count == 1
    assert backend.requeues == 1
    # Another node can now pick it up and finish the job.
    p2 = FakePNA(sim, router, "p2")
    p2.request()
    sim.run(until=101.0)
    p2.complete(0)
    sim.run(until=102.0)
    assert backend.done


def test_backend_result_after_requeue_accepted_once():
    sim = Simulator()
    router = Router(sim)
    backend, job = make_backend(
        sim, router, n_tasks=1, lease_factor=0.001,
        lease_check_interval_s=5.0)
    p1 = FakePNA(sim, router, "p1")
    p1.request()
    sim.run(until=50.0)  # assignment requeued by now
    assert backend.requeues == 1
    p1.complete(0)  # original worker finishes anyway
    sim.run(until=60.0)
    assert backend.done
    assert backend.pending_count == 0  # requeued copy cancelled


def test_backend_validation():
    sim = Simulator()
    router = Router(sim)
    job = uniform_bag(1)
    with pytest.raises(BackendError):
        Backend(sim, job, router, lease_factor=0)
    with pytest.raises(BackendError):
        Backend(sim, job, router, worst_case_slowdown=0)
    with pytest.raises(BackendError):
        Backend(sim, job, router, poll_interval_s=0)


def test_backend_shutdown_unregisters():
    sim = Simulator()
    router = Router(sim)
    backend, _ = make_backend(sim, router, lease_factor=2.0)
    backend.shutdown()
    p = FakePNA(sim, router, "p1")
    p.request()
    sim.run()
    assert router.undeliverable == 1


def test_request_cohort_assigns_in_scalar_order():
    """``receive_request_cohort`` ≡ one ``_serve_request`` per requester
    in order: same task ids, holders and leases.  64 requesters × 3
    rounds keeps every cohort above the engine's bulk threshold, so the
    numpy lease pass runs."""
    requesters = [f"pna-{i}" for i in range(64)]
    rounds = 3

    def build():
        sim = Simulator(seed=1)
        job = uniform_bag(len(requesters) * rounds, ref_seconds=5.0)
        return Backend(sim, job, Router(sim), lease_factor=2.0)

    def leases(backend):
        return {tid: (pna, lease) for tid, (_task, pna, _t, lease)
                in backend._in_flight.items()}

    scalar = build()
    scalar_ids = [scalar._serve_request(pna, "i-1").task_id
                  for _ in range(rounds) for pna in requesters]
    cohort = build()
    cohort_ids = [task.task_id for _ in range(rounds)
                  for task in cohort.receive_request_cohort(requesters, "i-1")]
    assert cohort_ids == scalar_ids
    assert leases(cohort) == leases(scalar)
    assert cohort.tasks_assigned == scalar.tasks_assigned == 192
