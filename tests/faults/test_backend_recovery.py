"""Backend outage → lease expiry → re-dispatch with backoff."""

import pytest

from repro.certify import CertifyPolicy
from repro.core import OddCISystem
from repro.core.backend import Backend
from repro.faults import active_plan, parse_fault_plan
from repro.sim.core import Simulator
from repro.telemetry.trace import Tracer, active
from repro.workloads import uniform_bag


def test_injected_backend_outage_redispatches_and_completes():
    plan = parse_fault_plan("backend_crash@40,dur=30")
    with active_plan(plan):
        system = OddCISystem(seed=1, maintenance_interval_s=20.0)
    system.add_pnas(8, heartbeat_interval_s=10.0, dve_poll_interval_s=5.0)
    job = uniform_bag(24, image_bits=1e6, ref_seconds=15.0)
    submission = system.provider.submit_job(
        job, target_size=6, heartbeat_interval_s=10.0, lease_factor=1.0)
    report = system.provider.run_job_to_completion(submission, limit_s=1e6)
    assert report.n_tasks == 24
    backend = submission.backend
    assert backend.crashes == 1
    assert backend.restarts == 1
    assert backend.alive
    # The outage stranded in-flight work; leases re-queued it.
    assert report.requeues >= 1
    assert system.fault_injector.fired[0] == (40.0, "backend_crash")


@pytest.mark.parametrize("certify", [None, CertifyPolicy(mode="audit")])
def test_redispatch_metrics_count_without_the_backend_category(certify):
    """A tracer whose categories omit ``backend`` emits no requeue
    events but still counts every lease re-dispatch (the Backend's own
    lease loop, or the certifier's) and the restart."""
    tracer = Tracer(("net",))
    with active(tracer), active_plan(parse_fault_plan(
            "backend_crash@40,dur=30")):
        system = OddCISystem(seed=1, maintenance_interval_s=20.0)
        system.add_pnas(8, heartbeat_interval_s=10.0,
                        dve_poll_interval_s=5.0)
        job = uniform_bag(24, image_bits=1e6, ref_seconds=15.0)
        submission = system.provider.submit_job(
            job, target_size=6, heartbeat_interval_s=10.0,
            lease_factor=1.0, certify_policy=certify)
        report = system.provider.run_job_to_completion(submission,
                                                       limit_s=1e6)
    assert report.requeues >= 1
    assert not [ev for ev in tracer.events() if ev[2] == "requeue"]
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["recovery.tasks_redispatched"] == report.requeues
    assert counters["recovery.backend_restarts"] == 1


def test_backoff_grows_lease_deterministically():
    """With a backoff base, each re-dispatch of the same task gets a
    longer lease; the jitter draw is seed-stable."""

    def lease_after_attempts(seed):
        sim = Simulator(seed=seed)
        job = uniform_bag(1, image_bits=1e6, ref_seconds=10.0)

        from repro.core.network import Router

        router = Router(sim)
        backend = Backend(sim, job, router, backend_id="b0",
                          lease_factor=2.0, lease_backoff_base=2.0,
                          lease_backoff_jitter=0.1)
        base = 2.0 * (10.0 * backend.worst_case_slowdown
                      + backend.poll_interval_s)
        leases = []
        for attempt in (0, 1, 2):
            backend._attempts[0] = attempt
            lease_s = base
            if attempt:
                lease_s *= 2.0 ** attempt
                lease_s *= 1.0 + 0.1 * float(
                    sim.rng(backend._backoff_stream).random())
            leases.append(lease_s)
        return leases

    a = lease_after_attempts(5)
    b = lease_after_attempts(5)
    assert a == b
    assert a[0] < a[1] < a[2]


def test_default_backoff_draws_no_rng():
    """At default parameters the backoff stream must never be touched —
    that is what keeps pre-fault-subsystem runs byte-identical."""
    sim = Simulator(seed=0)
    from repro.core.network import Router

    job = uniform_bag(2, image_bits=1e6, ref_seconds=5.0)
    backend = Backend(sim, job, Router(sim), backend_id="b1",
                      lease_factor=1.0)
    assert backend.lease_backoff_base == 1.0
    assert backend.lease_backoff_jitter == 0.0
    # Even after simulated re-dispatches, defaults keep the legacy
    # lease arithmetic and never create the backoff RNG stream.
    backend._attempts[0] = 3
    sim.run(until=100.0)
    assert backend._backoff_stream not in sim._rng_streams


def test_crash_restore_idempotent():
    sim = Simulator(seed=0)
    from repro.core.network import Router

    job = uniform_bag(2, image_bits=1e6, ref_seconds=5.0)
    backend = Backend(sim, job, Router(sim), backend_id="b2",
                      lease_factor=1.0)
    backend.crash()
    backend.crash()
    assert backend.crashes == 1
    backend.restore()
    backend.restore()
    assert backend.restarts == 1
    assert backend.alive
