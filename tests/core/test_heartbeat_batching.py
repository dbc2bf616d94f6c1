"""Heartbeat cohort batching must be transparent to every observer.

PNAs sharing a (controller, interval, phase) key beat through one
shared :class:`~repro.sim.wheel.TimerWheel` tick and one batched router
delivery per arrival instant — but controllers, aggregators and legacy
per-message components must see exactly what per-PNA timers produced.
"""

import pytest

from repro.core import OddCISystem, PNAState
from repro.core.messages import HeartbeatPayload
from repro.workloads import uniform_bag
from tests.core.dict_census import snapshot


def build_system(n_pnas=10, heartbeat_interval_s=20.0):
    system = OddCISystem(beta_bps=1_000_000.0, delta_bps=150_000.0,
                         maintenance_interval_s=1e6, seed=7)
    system.add_pnas(n_pnas, heartbeat_interval_s=heartbeat_interval_s,
                    dve_poll_interval_s=5.0)
    return system


def test_controller_sees_every_heartbeat():
    system = build_system(n_pnas=10, heartbeat_interval_s=20.0)
    system.sim.run(until=100.5)  # slack covers uplink serialization
    sent = sum(p.heartbeats_sent for p in system.pnas)
    assert sent == 10 * 5  # beats at 20/40/60/80/100 for each node
    assert system.controller.counters["heartbeats"] == sent


def test_same_phase_pnas_share_one_cohort():
    system = build_system(n_pnas=50)
    cohorts = system.router._cohorts
    assert len(cohorts) == 1
    (cohort,) = cohorts.values()
    assert len(cohort.members) == 50
    # One shared wheel => a tick is one calendar entry, not fifty.
    assert len(cohort.wheel._subs) == 1


def test_different_phases_get_distinct_cohorts():
    system = OddCISystem(maintenance_interval_s=1e6, seed=1)
    system.add_pnas(4, heartbeat_interval_s=30.0)

    def late_join():
        system.add_pnas(3, heartbeat_interval_s=30.0)

    system.sim.schedule_at(10.0, late_join)
    system.sim.run(until=11.0)
    assert len(system.router._cohorts) == 2
    system.sim.run(until=90.0)
    # Every node still beats on its own private timetable.
    for pna in system.pnas[:4]:
        assert pna.heartbeats_sent == 3  # t = 30, 60, 90
    for pna in system.pnas[4:]:
        assert pna.heartbeats_sent == 2  # t = 40, 70


def test_offline_pna_does_not_beat():
    system = build_system(n_pnas=3, heartbeat_interval_s=10.0)
    system.pnas[0].shutdown()
    system.sim.run(until=35.0)
    assert system.pnas[0].heartbeats_sent == 0
    assert system.pnas[1].heartbeats_sent == 3


def test_component_without_cohort_receiver_gets_one_payload_per_beat():
    """A component with no cohort entry point receives the batched
    path's heartbeats as payloads, one call per heartbeat, in cohort
    order."""
    system = build_system(n_pnas=5, heartbeat_interval_s=15.0)
    router = system.router
    got = []
    router.register_component("payload-sink", got.append)
    for pna in system.pnas:
        pna.controller_id = "payload-sink"
    system.sim.run(until=16.0)
    assert [p.pna_id for p in got] == [p.pna_id for p in system.pnas]
    for payload in got:
        assert isinstance(payload, HeartbeatPayload)
        assert payload.state is PNAState.IDLE
        assert payload.instance_id is None


def test_wakeup_interval_change_recohorts_across_wheels():
    """A mid-run ``heartbeat_interval_s`` change (wakeup adoption) must
    move the PNA between TimerWheel buckets: old cohort pruned, new
    cohort keyed by the new (interval, phase), beats on the new
    timetable from the change instant."""
    from repro.core import WakeupPayload, sign_control

    system = build_system(n_pnas=6, heartbeat_interval_s=20.0)
    router = system.router
    (old_key,) = router._cohorts
    old_cohort = router._cohorts[old_key]
    old_wheel = old_cohort.wheel
    mover = system.pnas[0]

    def rewire():
        payload = WakeupPayload(instance_id="i-rewire", image_name="img",
                                image_bits=1e5, probability=1.0,
                                heartbeat_interval_s=7.0)
        mover.deliver_control(
            payload, sign_control(system.controller.key, payload))

    system.sim.schedule_at(30.0, rewire)
    system.sim.run(until=31.0)
    assert mover.heartbeat_interval_s == 7.0
    # Old cohort keeps the other five members on the shared wheel; the
    # mover now owns a distinct cohort keyed by the new interval+phase.
    assert mover.pna_id not in old_cohort.members
    assert len(old_cohort.members) == 5
    assert len(router._cohorts) == 2
    new_cohort = mover._hb_cohort
    assert new_cohort is not old_cohort
    assert new_cohort.wheel is not old_wheel
    assert new_cohort.wheel.interval_s == 7.0
    assert mover.pna_id in new_cohort.members

    before = mover.heartbeats_sent
    system.sim.run(until=65.5)
    # New timetable: joined at t=30 with I=7 -> beats at 37,44,51,58,65.
    assert mover.heartbeats_sent - before == 5
    # The remaining members never left their 20s timetable: 40 and 60.
    assert all(p.heartbeats_sent == 3 for p in system.pnas[1:])


def test_interval_churn_drains_and_rebuilds_cohorts():
    """Repeatedly bouncing a PNA between intervals exercises the wheel
    unsubscribe/disarm path: emptied cohorts are dropped from the
    router map and their wheels stop ticking."""
    system = build_system(n_pnas=1, heartbeat_interval_s=10.0)
    router = system.router
    pna = system.pnas[0]
    for interval in (3.0, 11.0, 5.0, 10.0, 3.0):
        pna.heartbeat_interval_s = interval
        pna._restart_heartbeat()
        # The old cohort emptied: exactly one cohort remains, keyed by
        # the new interval, with a live subscription.
        assert len(router._cohorts) == 1
        (cohort,) = router._cohorts.values()
        assert cohort.wheel.interval_s == interval
        assert len(cohort.wheel._subs) == 1
        assert list(cohort.members) == [pna.pna_id]
    start = system.sim.now
    system.sim.run(until=start + 9.5)
    assert pna.heartbeats_sent == 3  # final 3s timetable: +3, +6, +9


def test_interval_churn_mid_cycle_preserves_shared_cohort_peers():
    """Cohort keys include the join phase: a member re-keyed mid-cycle
    joins (or founds) the cohort at ``fmod(now, I)`` and must not drag
    peers with congruent intervals but different phases along."""
    import math

    system = build_system(n_pnas=4, heartbeat_interval_s=12.0)
    router = system.router
    mover = system.pnas[3]

    def flip():
        mover.heartbeat_interval_s = 12.0
        mover._restart_heartbeat()  # same interval, new phase

    system.sim.schedule_at(5.0, flip)
    system.sim.run(until=5.5)
    assert len(router._cohorts) == 2
    phases = sorted(key[2] for key in router._cohorts)
    assert phases == [0.0, pytest.approx(math.fmod(5.0, 12.0))]
    system.sim.run(until=29.5)
    # Peers kept the t=12,24 timetable; the mover beats at 17, 29.
    assert all(p.heartbeats_sent == 2 for p in system.pnas[:3])
    assert mover.heartbeats_sent == 2


def test_batched_census_matches_during_job():
    """With a job running, the controller's busy/idle census tracks the
    fleet exactly as with per-message heartbeats (states ride in the
    same payloads, just delivered in batches)."""
    system = build_system(n_pnas=8, heartbeat_interval_s=20.0)
    job = uniform_bag(100, image_bits=1e6, ref_seconds=500.0)
    system.provider.submit_job(job, target_size=8,
                               heartbeat_interval_s=20.0)
    system.sim.run(until=50.0)
    assert system.busy_count() == 8
    busy_in_registry = sum(
        1 for _pna_id, (_seen, state, _iid)
        in system.controller.census.registry_items()
        if state is PNAState.BUSY)
    assert busy_in_registry == 8


def test_cohort_tick_sets_off_no_garbage_collection():
    """A tick is a column pass: no per-member tuple or payload, so a
    20 000-member tick allocates too few container objects to trigger
    even a young-generation collection."""
    import gc

    system = build_system(n_pnas=20_000, heartbeat_interval_s=10.0)
    (cohort,) = system.router._cohorts.values()
    wheel = cohort.wheel
    collections = []

    def hook(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    def measured_tick(tick_time):
        gc.collect()
        gc.callbacks.append(hook)
        try:
            cohort._tick(tick_time)
        finally:
            gc.callbacks.remove(hook)

    # Re-subscribe the cohort's tick through the measuring wrapper (the
    # wheel keeps its timetable).
    wheel.unsubscribe(cohort._token)
    cohort._token = wheel.subscribe(measured_tick)
    system.sim.run(until=10.5)
    assert sum(p.heartbeats_sent for p in system.pnas) == 20_000
    assert system.controller.counters["heartbeats"] == 20_000
    assert collections == []


def _mixed_cohort_run(store):
    """One 10 s cohort holding every member kind the consolidation has
    to tell apart, delivered once to a controller on ``store``."""
    import functools

    import repro.core.system as system_module
    from repro.certify.adversary import Adversary
    from repro.core.controller import Controller
    from repro.core.instance import InstanceSpec, reset_instance_sequence
    from repro.core.pna import PNA
    from repro.net.link import DuplexChannel
    from repro.sim.core import PRIORITY_URGENT
    from repro.telemetry.trace import Tracer, active
    from tests.core.dict_census import controller_on

    consolidated = []
    real_consolidate = Controller._consolidate

    def counting_consolidate(self, payload):
        consolidated.append(payload.pna_id)
        real_consolidate(self, payload)

    reset_instance_sequence()
    tracer = Tracer()
    with active(tracer), pytest.MonkeyPatch.context() as mp:
        mp.setattr(system_module, "Controller",
                   functools.partial(controller_on, store))
        mp.setattr(Controller, "_consolidate", counting_consolidate)
        system = build_system(n_pnas=30, heartbeat_interval_s=10.0)
        sim, router, ctl = system.sim, system.router, system.controller
        lossy = PNA(sim, "pna-lossy", router=router,
                    channel=DuplexChannel(sim, rate_bps=system.delta_bps,
                                          loss=0.5, name="lossy.direct"),
                    controller_key=ctl.key, controller_id=ctl.controller_id,
                    heartbeat_interval_s=10.0)
        # A faster channel: its beat lands on a second arrival instant.
        fast = PNA(sim, "pna-fast", router=router,
                   channel=DuplexChannel(sim, rate_bps=10 * system.delta_bps,
                                         name="fast.direct"),
                   controller_key=ctl.key, controller_id=ctl.controller_id,
                   heartbeat_interval_s=10.0)
        # Broadcast down: wakeups are deferred, so every member keeps
        # exactly the state given below.
        system.broadcast.set_up(False)
        spec = InstanceSpec(target_size=10, image_name="img",
                            image_bits=1e6, heartbeat_interval_s=10.0)
        live = ctl.create_instance(spec).instance_id
        trimmed = ctl.create_instance(spec).instance_id
        pnas = system.pnas

        def claim(pna, instance_id):
            pna.state = PNAState.BUSY
            pna.instance_id = instance_id

        ctl.quarantine_node(pnas[15].pna_id)
        sim.run(until=1.0)  # the quarantine reset has reached the node
        for pna in pnas[:10] + [lossy, fast]:
            claim(pna, live)
        for pna in pnas[10:14]:
            claim(pna, trimmed)
        ctl._pending_trims[trimmed] = 2
        claim(pnas[14], "gone-instance")  # stale: must get a reset
        claim(pnas[15], live)  # blacklisted, claiming BUSY again
        claim(pnas[16], live)
        pnas[16].set_adversary(Adversary("heartbeat_spoof",
                                         pnas[16].pna_id))
        pnas[17].shutdown()
        pnas[18].shutdown()
        pnas[19].channel.uplink.set_up(False)  # online, uplink down
        # A late joiner lands in the cohort at the tick instant itself,
        # before the tick: it must sit this beat out.
        sim.schedule_at(10.0, lambda: system.add_pnas(
            1, heartbeat_interval_s=10.0), priority=PRIORITY_URGENT)
        sim.run(until=10.9)
    late = system.pnas[-1]
    assert late._hb_cohort is pnas[0]._hb_cohort
    return {
        "snapshot": snapshot(ctl.census),
        "counters": ctl.counters.as_dict(),
        "trims_sent": ctl.instances[trimmed].trims_sent,
        "pna": [(p.pna_id, p.state, p.instance_id, p.heartbeats_sent)
                for p in system.pnas + [lossy, fast]],
        "links": [(p.channel.uplink.delivered, p.channel.uplink.dropped,
                   p.channel.uplink.refused, p.channel.downlink.delivered)
                  for p in system.pnas + [lossy, fast]],
        "trace": [(ev[0], ev[1], ev[2], dict(ev[3]))
                  for ev in tracer.events()],
        "metrics": tracer.metrics.snapshot(),
    }, consolidated


def test_mixed_cohort_columnar_equals_dict_reference():
    """The columnar cohort path against the payload-by-payload
    reference, on one cohort mixing offline members, a lossy and a
    downed uplink, a blacklisted BUSY node, a heartbeat-spoofing
    zombie, a stale instance, a pending-trim instance, a late joiner
    and a faster channel (two arrival instants)."""
    from repro.core.census import ColumnarCensusStore
    from tests.core.dict_census import DictCensusStore

    columnar, columnar_replayed = _mixed_cohort_run(ColumnarCensusStore)
    reference, reference_replayed = _mixed_cohort_run(DictCensusStore)
    assert columnar == reference
    # The reference consolidated every heartbeat one by one; the
    # columnar path replayed only its slow tail (pending-trim,
    # stale and blacklisted members), in cohort order, plus the fast
    # member's one-beat delivery (below the cohort minimum).
    beats = reference["counters"]["heartbeats"]
    assert len(reference_replayed) == beats
    slow = {"pna-fast", "pna-10", "pna-11", "pna-12", "pna-13", "pna-14",
            "pna-15"}
    assert columnar_replayed == [p for p in reference_replayed
                                 if p in slow]
    # Every member kind was exercised.
    counters = reference["counters"]
    assert counters["blacklisted_heartbeats"] == 1
    assert reference["trims_sent"] == 2
    assert reference["metrics"]["counters"]["census.stale_resets"] == 1
    pna = {row[0]: row for row in reference["pna"]}
    assert pna["pna-14"][1] is PNAState.IDLE  # the stale reset landed
    assert pna["pna-16"][1] is PNAState.BUSY  # the zombie beats on
    assert pna["pna-17"][3] == 0 and pna["pna-30"][3] == 0
    links = {row[0]: link for row, link in zip(reference["pna"],
                                                reference["links"])}
    assert links["pna-19"][2] == 1  # refused by the downed uplink
    # 30 fleet members + the lossy and fast ones, less 2 offline, the
    # downed uplink and a lost beat; the late joiner sat the tick out.
    assert beats == 32 - 2 - 1 - links["pna-lossy"][1]
    registry = dict(reference["snapshot"]["registry"])
    assert registry["pna-fast"][0] < registry["pna-0"][0] < 10.9
