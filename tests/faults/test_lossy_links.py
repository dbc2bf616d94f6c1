"""Lossy / partitioned direct channels (grown from the original
``tests/test_failure_injection.py``).

The paper's direct channels are home broadband — loss happens.  These
tests verify that heartbeat loss does not wedge the Controller, that
lease-based re-queuing lets jobs finish despite message loss on the
task path, and that every silently swallowed message is observable
through the link's ``dropped`` / ``refused`` counters and ``net``-
category trace events.
"""

import pytest

from repro.core import OddCISystem, PNAState
from repro.net.broadcast import BroadcastChannel
from repro.net.link import DuplexChannel, Link
from repro.net.message import Message
from repro.sim.core import Simulator
from repro.telemetry.trace import Tracer, active
from repro.workloads import uniform_bag


def lossy_system(loss: float, n_pnas: int, seed: int = 0):
    """OddCISystem whose PNA direct channels drop messages i.i.d."""
    system = OddCISystem(seed=seed, maintenance_interval_s=20.0)
    # Rebuild channels with loss (add_pna creates clean ones, so we
    # construct PNAs manually through the same code path).
    from repro.core.pna import PNA

    for i in range(n_pnas):
        channel = DuplexChannel(system.sim, rate_bps=system.delta_bps,
                                latency_s=system.delta_latency_s,
                                loss=loss, name=f"lossy{i}.direct")
        pna = PNA(system.sim, f"pna-{i}",
                  router=system.router, channel=channel,
                  controller_key=system.keys.key_of(
                      system.controller.controller_id),
                  controller_id=system.controller.controller_id,
                  heartbeat_interval_s=10.0,
                  dve_poll_interval_s=5.0)
        system.control_plane.attach(pna)
        system.pnas.extend((pna,))
    return system


def test_heartbeat_loss_does_not_wedge_controller():
    system = lossy_system(loss=0.3, n_pnas=10, seed=2)
    system.sim.run(until=400.0)
    # Despite 30% loss, enough heartbeats get through to register all.
    assert system.controller.census.registry_size() == 10
    assert system.controller.counters["heartbeats"] > 0
    # Satellite: the loss is observable, not silent.
    assert sum(p.channel.uplink.dropped for p in system.pnas) > 0


def test_job_completes_under_loss_with_timeout_recovery():
    """Task-protocol messages can be lost; the DVE's pending reply then
    never settles — the lease re-queues the task and another worker
    (or a later poll) finishes it."""
    system = lossy_system(loss=0.05, n_pnas=8, seed=3)
    job = uniform_bag(40, image_bits=1e6, ref_seconds=5.0)
    submission = system.provider.submit_job(
        job, target_size=8, heartbeat_interval_s=10.0, lease_factor=0.2)
    report = system.provider.run_job_to_completion(submission, limit_s=1e6)
    assert report.n_tasks == 40


def test_heavy_loss_job_still_finishes_with_replication_and_leases():
    system = lossy_system(loss=0.15, n_pnas=10, seed=4)
    job = uniform_bag(25, image_bits=1e6, ref_seconds=3.0)
    submission = system.provider.submit_job(
        job, target_size=10, heartbeat_interval_s=10.0,
        lease_factor=0.1, replicate_tail=True)
    report = system.provider.run_job_to_completion(submission, limit_s=1e7)
    assert report.n_tasks == 25
    assert report.requeues + report.replicas_issued >= 1


def test_membership_expiry_under_total_silence():
    """A PNA whose uplink dies completely is expired from its instance
    and replaced by recomposition."""
    system = OddCISystem(seed=5, maintenance_interval_s=15.0)
    system.add_pnas(10, heartbeat_interval_s=10.0, dve_poll_interval_s=5.0)
    job = uniform_bag(10_000, image_bits=1e6, ref_seconds=300.0)
    submission = system.provider.submit_job(job, target_size=6,
                                            heartbeat_interval_s=10.0)
    system.sim.run(until=60.0)
    busy = [p for p in system.pnas if p.state is PNAState.BUSY]
    # Cut two uplinks (node still "runs", but is unreachable).
    for p in busy[:2]:
        p.channel.uplink.set_up(False)
    system.sim.run(until=400.0)
    record = system.controller.instance(submission.instance_id)
    member_ids = {pna_id for pna_id, _seen in system.controller.census
                  .members_items(record.census_handle)}
    assert all(p.pna_id not in member_ids for p in busy[:2])
    assert record.size >= 5  # recomposed from the idle pool
    # Satellite: fire-and-forget sends into the dead uplinks were
    # refused (counted), never silently lost.
    assert all(p.channel.uplink.refused > 0 for p in busy[:2])


# -- satellite: Link drop observability ---------------------------------------

def _message(sim, payload_bits=1000.0):
    return Message(sender="a", recipient="b", payload_bits=payload_bits)


def test_send_quiet_on_down_link_counts_refused():
    sim = Simulator(seed=0)
    link = Link(sim, rate_bps=1e6, name="t0")
    link.set_up(False)
    link.send_quiet(_message(sim))
    assert link.refused == 1
    assert link.dropped == 0


def test_offer_on_down_link_counts_refused():
    sim = Simulator(seed=0)
    link = Link(sim, rate_bps=1e6, name="t1")
    link.set_up(False)
    assert link.offer(1000.0) is None
    assert link.refused == 1


def test_lost_messages_count_dropped_not_refused():
    sim = Simulator(seed=0)
    link = Link(sim, rate_bps=1e6, loss=0.999999, name="t2")
    for _ in range(5):
        link.send_quiet(_message(sim))
    assert link.dropped == 5
    assert link.refused == 0


def test_drops_emit_net_trace_events_and_metrics():
    tracer = Tracer(("net",))
    with active(tracer):
        sim = Simulator(seed=0)
        link = Link(sim, rate_bps=1e6, name="t3")
        link.set_up(False)
        link.send_quiet(_message(sim))
        link.set_up(True)
        lossy = Link(sim, rate_bps=1e6, loss=0.999999, name="t4")
        lossy.send_quiet(_message(sim))
    events = [(ev[1], ev[2], ev[3]) for ev in tracer.events()]
    reasons = [fields["reason"] for cat, name, fields in events
               if name == "dropped"]
    assert reasons == ["down", "loss"]
    snapshot = tracer.metrics.snapshot()
    assert snapshot["counters"]["link.refused"] == 1
    assert snapshot["counters"]["link.dropped"] == 1


def test_drop_metrics_count_without_the_net_category():
    """Metrics gate on the registry, not on the trace channel: a tracer
    whose categories omit ``net`` emits no drop events but still counts
    a lossy link's drop and a broadcast lost to an outage."""
    tracer = Tracer(("backend",))
    with active(tracer):
        sim = Simulator(seed=0)
        lossy = Link(sim, rate_bps=1e6, loss=0.999999, name="t6")
        lossy.send_quiet(_message(sim))
        broadcast = BroadcastChannel(sim, beta_bps=1e6)
        broadcast.set_up(False)
        broadcast.transmit(_message(sim))
        sim.run()
    assert lossy.dropped == 1 and broadcast.dropped_transmissions == 1
    assert tracer.events() == []
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["link.dropped"] == 1
    assert counters["link.refused"] == 0
    assert counters["broadcast.dropped"] == 1


def test_send_with_fail_on_loss_fails_event_and_counts():
    sim = Simulator(seed=0)
    link = Link(sim, rate_bps=1e6, loss=0.999999, name="t5")
    ev = link.send(_message(sim), fail_on_loss=True)
    with pytest.raises(Exception):
        sim.run_until_event(ev, limit=10.0)
    assert link.dropped == 1
