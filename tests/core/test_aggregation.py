"""Tests for hierarchical heartbeat aggregation (Controller-bottleneck
mitigation; the paper's footnote-3 future work)."""

import pytest

from repro.core import OddCISystem, PNAState
from repro.core.aggregation import (
    DigestingController,
    HeartbeatAggregator,
    HeartbeatDigest,
)
from repro.errors import OddCIError
from repro.workloads import uniform_bag


def build_aggregated_system(n_pnas=12, n_aggregators=3,
                            heartbeat_s=10.0, aggregation_s=20.0):
    """OddCI system whose PNAs report to aggregators, not the controller."""
    system = OddCISystem(seed=21, maintenance_interval_s=30.0)
    digesting = DigestingController(system.controller)
    aggregators = [
        HeartbeatAggregator(system.sim, system.router, f"agg-{i}",
                            system.controller.controller_id,
                            aggregation_interval_s=aggregation_s)
        for i in range(n_aggregators)
    ]
    for i in range(n_pnas):
        pna = system.add_pna(heartbeat_interval_s=heartbeat_s,
                             dve_poll_interval_s=5.0)
        # Point the PNA's heartbeats at its shard's aggregator.
        pna.controller_id = aggregators[i % n_aggregators].aggregator_id
    return system, digesting, aggregators


def test_digest_wire_size_scales_with_members():
    empty = HeartbeatDigest(aggregator_id="a", period_start=0,
                            period_end=1, idle_count=5)
    full = HeartbeatDigest(aggregator_id="a", period_start=0,
                           period_end=1, idle_count=5,
                           members={"i": tuple(f"p{k}" for k in range(10))})
    assert full.wire_bits() > empty.wire_bits()


def test_aggregators_receive_heartbeats_and_forward_digests():
    system, digesting, aggregators = build_aggregated_system()
    system.sim.run(until=100.0)
    assert all(a.heartbeats_received > 0 for a in aggregators)
    assert all(a.digests_sent > 0 for a in aggregators)
    assert digesting.digests_received > 0
    # The controller never saw a raw heartbeat.
    assert system.controller.counters["heartbeats"] == 0


def test_idle_census_comes_from_digests():
    system, digesting, aggregators = build_aggregated_system(n_pnas=9)
    system.sim.run(until=100.0)
    assert system.controller.idle_estimate() == 9


def test_job_runs_through_aggregated_control_path():
    system, digesting, aggregators = build_aggregated_system(
        n_pnas=8, heartbeat_s=5.0, aggregation_s=10.0)
    job = uniform_bag(24, image_bits=1e6, ref_seconds=5.0)
    submission = system.provider.submit_job(job, target_size=8,
                                            heartbeat_interval_s=5.0)
    report = system.provider.run_job_to_completion(submission, limit_s=1e6)
    assert report.n_tasks == 24
    # Membership tracked via digests.
    record = system.controller.instance(submission.instance_id)
    assert record.wakeups_sent >= 1


def test_message_rate_reduction():
    """The point of aggregation: controller inbound messages drop from
    one-per-PNA-heartbeat to one-per-aggregator-period."""
    # Raw: 12 PNAs, heartbeat 5 s -> 2.4 msg/s at the controller.
    raw = OddCISystem(seed=3, maintenance_interval_s=1e6)
    raw.add_pnas(12, heartbeat_interval_s=5.0)
    raw.sim.run(until=300.0)
    raw_msgs = raw.controller.counters["heartbeats"]

    # Aggregated: 3 aggregators, 20 s period -> 0.15 msg/s.
    system, digesting, aggregators = build_aggregated_system(
        n_pnas=12, n_aggregators=3, heartbeat_s=5.0, aggregation_s=20.0)
    system.sim.run(until=300.0)
    agg_msgs = digesting.digests_received

    assert agg_msgs * 10 < raw_msgs


def test_trim_flows_through_digests():
    """Pending trims must still reach PNAs when membership arrives via
    digests (reset replies use the direct channels)."""
    system, digesting, aggregators = build_aggregated_system(
        n_pnas=10, heartbeat_s=5.0, aggregation_s=10.0)
    job = uniform_bag(10_000, image_bits=1e6, ref_seconds=500.0)
    submission = system.provider.submit_job(job, target_size=10,
                                            heartbeat_interval_s=5.0)
    system.sim.run(until=60.0)
    assert system.busy_count() == 10
    system.provider.resize(submission.instance_id, 4)
    system.sim.run(until=400.0)
    assert system.busy_count() <= 5


def test_aggregator_validation_and_shutdown():
    system = OddCISystem(seed=1)
    with pytest.raises(OddCIError):
        HeartbeatAggregator(system.sim, system.router, "a",
                            "controller", aggregation_interval_s=0)
    agg = HeartbeatAggregator(system.sim, system.router, "a", "controller")
    agg.shutdown()
    # Idempotent-ish: components unregistered, no crash on further runs.
    system.sim.run(until=200.0)
    assert agg.digests_sent == 0


def test_aggregator_rejects_garbage():
    system = OddCISystem(seed=1)
    agg = HeartbeatAggregator(system.sim, system.router, "a", "controller")
    with pytest.raises(OddCIError):
        agg._receive_payload("junk")


def _digest_sent_while_controller_down(restore_at):
    """One aggregator over a slow uplink (its digest takes ~1 s to
    arrive) whose period-20 s digest leaves while the Controller is
    crashed (from t = 19.5).  At ``restore_at`` the Controller restarts
    with the registration it crashed with.  Returns the system, the
    digest receiver and the aggregator's uplink, at t = 30."""
    system = OddCISystem(seed=21, maintenance_interval_s=30.0)
    controller = system.controller
    wrapper = DigestingController(controller)
    agg = HeartbeatAggregator(system.sim, system.router, "agg-0",
                              controller.controller_id,
                              aggregation_interval_s=20.0,
                              uplink_rate_bps=1_000.0)
    for _ in range(3):
        system.add_pna(heartbeat_interval_s=10.0).controller_id = "agg-0"
    system.sim.call_at(19.5, controller.crash)
    system.sim.call_at(restore_at, controller.restore)
    system.sim.run(until=30.0)
    assert agg.digests_sent == 1
    return system, wrapper, agg.uplink.uplink


def test_digest_reaches_a_controller_restored_while_it_is_in_flight():
    system, wrapper, link = _digest_sent_while_controller_down(
        restore_at=20.5)
    # restore put the wrapper back: it takes the digest, no error
    assert wrapper.digests_received == 1
    assert system.router.undeliverable == 0
    assert system.controller.idle_estimate() == 3
    assert (link.delivered, link.refused, link.dropped) == (1, 0, 0)
    # the same calendar whoever is registered when the digest is sent
    assert system.sim.events_executed == 17


def test_digest_to_a_controller_still_down_is_undeliverable():
    system, wrapper, link = _digest_sent_while_controller_down(
        restore_at=25.0)
    assert wrapper.digests_received == 0
    assert system.router.undeliverable == 1
    assert (link.delivered, link.refused, link.dropped) == (1, 0, 0)
    assert system.sim.events_executed == 17
