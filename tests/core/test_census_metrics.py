"""Census metrics are delivery-shape independent.

The Controller counts heartbeat consolidation outcomes in the
``census.*`` metric family.  Whether payloads arrive through the
batched cohort path (``_receive_cohort`` / ``_receive_batch``) or one
at a time (``_receive_payload``, the router's per-heartbeat delivery
to a component without a cohort receiver) must not change a single
census value — only the ``delivery.*`` family, which
describes the batching itself, may differ.  This is the regression
guard for the vectorised-consolidation roadmap item: any future bulk
rewrite has to preserve these numbers.

Every test runs once per census engine: the columnar default and the
dict-backed reference, handed to the system's Controller through its
``census`` argument (``controller_on``, which also puts the reference
on the per-payload fold).  ``for_each_store`` loops inside one test so test
ids stay stable.
"""

import functools

import pytest

import repro.core.system as system_module
from repro.core import OddCISystem
from repro.core.census import ColumnarCensusStore
from tests.core.dict_census import DictCensusStore, controller_on
from repro.core.messages import HeartbeatPayload, PNAState
from repro.telemetry.trace import Tracer, active
from repro.workloads import uniform_bag

CENSUS = ("census.heartbeats", "census.stale_resets", "census.trim_resets")
STORES = (ColumnarCensusStore, DictCensusStore)


def for_each_store(check):
    """Turn ``check(store)`` into a test that runs it on every store."""
    def test():
        for store in STORES:
            check(store)

    test.__name__, test.__doc__ = check.__name__, check.__doc__
    return test


def _census(tracer):
    counters = tracer.metrics.snapshot()["counters"]
    return {name: counters.get(name, 0) for name in CENSUS}


def _build_system(store, n_pnas=6):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system_module, "Controller",
                   functools.partial(controller_on, store))
        system = OddCISystem(maintenance_interval_s=40.0, seed=11)
    assert type(system.controller.census) is store
    system.add_pnas(n_pnas, heartbeat_interval_s=10.0,
                    dve_poll_interval_s=5.0)
    return system


def _payload_mix(system):
    """Representative payload list: idle fleet, busy members of a live
    instance (more than fit its target, forcing trims), and busy
    payloads naming an unknown instance (stale resets)."""
    job = uniform_bag(4, image_bits=1e6, ref_seconds=1e6)
    submission = system.provider.submit_job(job, target_size=2)
    instance_id = submission.record.instance_id
    payloads = []
    for pna in system.pnas[:2]:
        payloads.append(HeartbeatPayload(pna_id=pna.pna_id,
                                         state=PNAState.IDLE,
                                         instance_id=None))
    for pna in system.pnas:
        payloads.append(HeartbeatPayload(pna_id=pna.pna_id,
                                         state=PNAState.BUSY,
                                         instance_id=instance_id))
    for pna in system.pnas[:3]:
        payloads.append(HeartbeatPayload(pna_id=pna.pna_id,
                                         state=PNAState.BUSY,
                                         instance_id="no-such-instance"))
    return payloads


def _drive(store, deliver):
    """Build a traced system, feed it the payload mix via ``deliver``,
    and return its census metrics."""
    tracer = Tracer("control")
    with active(tracer):
        system = _build_system(store)
        payloads = _payload_mix(system)
        # Arm trims so the trim path fires: shrink the instance well
        # below the members the busy payloads will claim.
        controller = system.controller
        record = next(iter(controller.instances.values()))
        controller._pending_trims[record.instance_id] = 2
        deliver(controller, payloads)
    return _census(tracer), tracer


@for_each_store
def test_batch_and_per_payload_census_identical(store):
    batched, batched_tracer = _drive(
        store,
        lambda controller, payloads: controller._receive_batch(payloads))

    def one_at_a_time(controller, payloads):
        for payload in payloads:
            controller._receive_payload(payload)

    single, single_tracer = _drive(store, one_at_a_time)

    assert batched == single
    assert batched["census.heartbeats"] == 11
    assert batched["census.stale_resets"] == 3
    assert batched["census.trim_resets"] == 2
    # The delivery-shape family legitimately differs.
    batched_counters = batched_tracer.metrics.snapshot()["counters"]
    single_counters = single_tracer.metrics.snapshot()["counters"]
    assert batched_counters["delivery.batches"] == 1
    assert single_counters.get("delivery.batches", 0) == 0


@for_each_store
def test_live_system_batched_vs_fallback_delivery(store):
    """End to end: the same simulated fleet, once with the controller's
    cohort entry point active and once with it removed (the router then
    delivers each heartbeat to ``_receive_payload``), consolidates
    identical census metrics."""

    def run(remove_batch_receiver):
        tracer = Tracer("control")
        with active(tracer):
            system = _build_system(store)
            if remove_batch_receiver:
                system.router._cohort_receivers.pop(
                    system.controller.controller_id)
            job = uniform_bag(12, image_bits=1e6, ref_seconds=20.0)
            submission = system.provider.submit_job(job, target_size=4)
            system.provider.run_job_to_completion(submission, limit_s=1e6)
            system.sim.run(until=system.sim.now + 100.0)
        return _census(tracer)

    batched = run(remove_batch_receiver=False)
    fallback = run(remove_batch_receiver=True)
    assert batched == fallback
    assert batched["census.heartbeats"] > 0


@for_each_store
def test_cohort_vs_batch_delivery_census_identical(store):
    """The columnar cohort entry point and per-heartbeat delivery
    consolidate identical census metrics for a live fleet of cohorts
    past ``_COHORT_MIN`` (the cohort path is the default; popping the
    cohort receiver downgrades delivery to one ``_receive_payload``
    call per heartbeat)."""

    def run(remove_cohort_receiver):
        tracer = Tracer("control")
        with active(tracer):
            system = _build_system(store, n_pnas=24)
            if remove_cohort_receiver:
                system.router._cohort_receivers.pop(
                    system.controller.controller_id)
            job = uniform_bag(12, image_bits=1e6, ref_seconds=20.0)
            submission = system.provider.submit_job(job, target_size=4)
            system.provider.run_job_to_completion(submission, limit_s=1e6)
            system.sim.run(until=system.sim.now + 100.0)
        return _census(tracer)

    assert run(False) == run(True)


@for_each_store
def test_metrics_enabled_trace_disabled_still_counts(store):
    """Satellite regression: a tracer whose *control category is off*
    must still count census metrics — the bumps gate on the metric
    objects, not on the trace channel."""
    tracer = Tracer("runner")  # control channel disabled, registry live
    with active(tracer):
        system = _build_system(store)
        controller = system.controller
        assert controller._trace is None
        assert controller._m_heartbeats is not None
        payloads = _payload_mix(system)
        record = next(iter(controller.instances.values()))
        controller._pending_trims[record.instance_id] = 2
        controller._receive_batch(payloads)
    census = _census(tracer)
    assert census["census.heartbeats"] == 11
    assert census["census.stale_resets"] == 3
    assert census["census.trim_resets"] == 2
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["delivery.batches"] == 1
    # No control trace events were emitted (the category is off).
    assert not [e for e in tracer.events() if e[1] == "control"]


@for_each_store
def test_untraced_controller_counts_nothing_but_still_consolidates(store):
    system = _build_system(store, n_pnas=3)
    assert system.controller._m_heartbeats is None
    system.sim.run(until=25.0)
    # Heartbeats still consolidate through the classic Counter.
    assert system.controller.counters["heartbeats"] == 3 * 2


@for_each_store
def test_census_heartbeats_matches_classic_counter(store):
    tracer = Tracer("control")
    with active(tracer):
        system = _build_system(store, n_pnas=5)
        system.sim.run(until=35.0)
    census = _census(tracer)
    assert census["census.heartbeats"] == \
        system.controller.counters["heartbeats"] > 0
