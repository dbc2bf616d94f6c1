"""Wakeups for a backend id with no task server start no client loop.

Bare capacity (``Provider.request_instance*``, backend id ``"backend"``,
and the serve tier's instances, ``"serve"``) and a Backend after
``shutdown()`` register no task server.  A node woken for one holds its
slot and heartbeats; it sends no task request that nothing receives.
"""

import pytest

from repro.core import InstanceSpec, OddCISystem, PNAState
from repro.serve import PoolConfig, ServiceTier, TrafficSpec
from repro.workloads import uniform_bag


def _fleet(n, seed=0):
    system = OddCISystem(seed=seed, maintenance_interval_s=15.0)
    system.add_pnas(n, heartbeat_interval_s=10.0, dve_poll_interval_s=5.0)
    return system


def test_bare_request_settles_with_no_client_loop():
    system = _fleet(20)
    ticket = system.provider.request_instance_async(
        InstanceSpec(target_size=10, image_name="bare", image_bits=1e6,
                     heartbeat_interval_s=10.0), timeout_s=300.0)
    system.sim.run(until=900.0)
    assert ticket.event.ok
    members = [p for p in system.pnas if p.instance_id == ticket.instance_id]
    assert members and ticket.record.size == len(members)
    assert all(p.state is PNAState.BUSY and p.dve is None for p in members)
    assert all(p.heartbeats_sent >= 80 for p in members)
    assert system.router.undeliverable == 0


def test_service_tier_starts_no_client_loop():
    system = _fleet(24, seed=3)
    tier = ServiceTier(
        system, TrafficSpec(rate_rps=0.04, horizon_s=300.0, target_size=4,
                            hold_s_mean=40.0),
        pool=PoolConfig(warm_target=1, standby_size=4,
                        provision_timeout_s=120.0),
        image_bits=1e6, request_timeout_s=120.0)
    out = tier.run()
    assert out["completed"] > 0
    busy = [p for p in system.pnas if p.state is PNAState.BUSY]
    assert busy and all(p.dve is None for p in busy)
    assert sum(p.heartbeats_sent for p in system.pnas) > 0
    assert system.router.undeliverable == 0


@pytest.mark.parametrize("n", [4, 40])  # member by member; column pass
def test_wakeup_after_backend_shutdown_starts_no_loop(n):
    system = _fleet(n)
    submission = system.provider.submit_job(
        uniform_bag(2 * n, ref_seconds=5.0, image_bits=1e6),
        target_size=n, heartbeat_interval_s=10.0)
    submission.backend.shutdown()  # before the wakeup reaches the fleet
    system.sim.run(until=system.broadcast.busy_until)
    assert system.busy_count() == n
    assert all(p.dve is None for p in system.pnas)
    system.provider.release(submission.instance_id)
    system.sim.run(until=system.sim.now + 60.0)
    assert all(p.state is PNAState.IDLE for p in system.pnas)
    assert all(p.resets_handled == 1 for p in system.pnas)
    assert system.router.undeliverable == 0
