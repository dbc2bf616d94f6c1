"""Differential tests: cohort task engine ≡ per-PNA reference path.

The macro engine (repro.core.taskloop) re-implements the DVE client
loop and the Backend's dispatch tier in columnar batches; these tests
drive the same seeded scenarios through both implementations and
require identical semantics — job report (makespan bit-equal), task
accounting, per-link byte/delivery/drop counters, node counters and
telemetry traces.  The ``dve`` fixture (tests/conftest.py) pins each
run to one path.

Trace comparison uses a canonical same-instant sort: within one sim
instant the two paths may interleave independent emitters differently
(per-member deliveries vs one bucket), but the multiset of events per
instant — including order-sensitive fields like each completion's
``done`` count — must match exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OddCISystem
from repro.core.backend import Backend
from repro.core.instance import reset_instance_sequence
from repro.core.dve import CONTROL_PAYLOAD_BITS as DVE_CONTROL_BITS
from repro.core.dve import DVE
from repro.core.taskloop import (
    CONTROL_PAYLOAD_BITS as ENGINE_CONTROL_BITS,
    _K_ASSIGN_ARR,
    _K_DEADLINE,
    _K_NOWORK_ARR,
    _K_RESULT_ARR,
    _K_SEND,
    CohortDVE,
    CohortTaskEngine,
)
from repro.telemetry.trace import Tracer, active
from repro.workloads import uniform_bag
from repro.workloads.job import reset_job_sequence


def _canonical(events):
    """Sort trace events by (time, category, name, fields) — stable
    across legitimate same-instant interleaving differences."""
    return sorted(
        (t, cat, name, tuple(sorted(fields.items())) if fields else ())
        for t, cat, name, fields in events)


def _run_cycle(*, seed=7, n_nodes=20, n_tasks=60,
               ref_seconds=4.0, input_bits=2e5, result_bits=1e5,
               delta_loss=0.0, lease_factor=None, replicate_tail=False,
               dve_poll_interval_s=5.0, executor=None, drain_s=120.0,
               rate_spread=0.0, trace=False):
    """One full recruit+job+dismantle cycle; returns the comparison dict.

    ``rate_spread`` makes the direct channels heterogeneous: node ``i``
    runs both links at ``1 + rate_spread * (i % 7)`` times the base
    rate, so one cohort hop lands on several instants."""
    reset_job_sequence()
    reset_instance_sequence()
    tracer = Tracer("all") if trace else None
    ctx = active(tracer) if tracer is not None else _null_ctx()
    with ctx:
        system = OddCISystem(seed=seed, maintenance_interval_s=1e6,
                             delta_loss=delta_loss)
        system.add_pnas(n_nodes, heartbeat_interval_s=500.0,
                        dve_poll_interval_s=dve_poll_interval_s,
                        executor=executor)
        if rate_spread:
            # The system builds identical links; scale the rate column
            # of each node's row (both paths read the same tables).
            router = system.router
            for i, pna in enumerate(system.pnas):
                for table in (router.uplinks, router.downlinks):
                    table.rate[pna.census_idx] *= 1.0 + rate_spread * (i % 7)
        job = uniform_bag(n_tasks, ref_seconds=ref_seconds,
                          input_bits=input_bits, result_bits=result_bits)
        submission = system.provider.submit_job(
            job, target_size=n_nodes, lifetime_s=1e6,
            heartbeat_interval_s=500.0, lease_factor=lease_factor,
            replicate_tail=replicate_tail)
        backend = submission.backend
        report = system.provider.run_job_to_completion(submission,
                                                       limit_s=1e6)
        # Drain same-instant stragglers and the dismantle broadcast so
        # post-run state (duplicate counts, resets) is settled.
        system.sim.run(until=system.sim.now + drain_s)
    out = {
        "report": report,
        "makespan": report.makespan,  # bit-exact float compare
        "completed": dict(backend._completed),
        "duplicates": backend.duplicates,
        "requeues": backend.requeues,
        "replicas_issued": backend.replicas_issued,
        "tasks_assigned": backend.tasks_assigned,
        "undeliverable": system.router.undeliverable,
        "pna_counters": [
            (p.wakeups_accepted, p.resets_handled, p.heartbeats_sent)
            for p in system.pnas],
        "links": [
            (p.channel.uplink.delivered, p.channel.uplink.dropped,
             p.channel.uplink.refused, p.channel.uplink.bits_sent,
             p.channel.downlink.delivered, p.channel.downlink.dropped,
             p.channel.downlink.refused, p.channel.downlink.bits_sent)
            for p in system.pnas],
        "sim_time": system.sim.now,
    }
    if tracer is not None:
        out["trace"] = _canonical(
            e for e in tracer.events() if e[1] != "kernel")
    return out


class _null_ctx:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _assert_equivalent(cfg, dve):
    with dve.per_pna():
        a = _run_cycle(**cfg)
    with dve.cohort():
        b = _run_cycle(**cfg)
    for key in a:
        assert a[key] == b[key], f"{key} diverged under {cfg}"


BASE_CONFIGS = [
    # plain FIFO, homogeneous fleet (vector dispatch fast path)
    dict(seed=7),
    # more tasks than one round; small cohort (scalar dispatch path)
    dict(seed=8, n_nodes=7, n_tasks=40),
    # leases tight enough to force requeues and duplicate results
    dict(seed=9, lease_factor=0.02, n_tasks=30, ref_seconds=8.0),
    # tail replication (general dispatch path + replica index)
    dict(seed=10, replicate_tail=True, lease_factor=5.0,
         n_nodes=12, n_tasks=18, ref_seconds=6.0),
    # lossy direct channels: retransmissions, timeout path, RNG order
    dict(seed=11, delta_loss=0.08, lease_factor=3.0,
         n_nodes=10, n_tasks=30, drain_s=400.0),
    # non-identity executor (slow devices; scalar compute times)
    dict(seed=12, executor=lambda ref: ref * 2.5, n_tasks=40),
]


def _slow_device(ref):
    return ref * 2.5


#: Fleets of at least 64 nodes: every hop of a lockstep cohort is a run
#: of at least ``_BULK_MIN`` (32) members, so these compare the engine's
#: column passes (``offer_rows``, vectorised compute instants,
#: ``count_deliveries``, ``Backend.receive_result_cohort``) with the
#: oracle.
BULK_CONFIGS = [
    # plain FIFO, several rounds
    dict(seed=21, n_nodes=64, n_tasks=200),
    # lossy direct channels with leases: retransmissions and timeouts
    # beside bulk runs, rows lost inside a batch
    dict(seed=22, n_nodes=64, n_tasks=200, delta_loss=0.05,
         lease_factor=3.0, drain_s=400.0),
    # leases tight enough to force requeues and duplicate results
    dict(seed=23, n_nodes=64, n_tasks=130, lease_factor=0.02,
         ref_seconds=8.0),
    # tail replication: the last round's 40 primaries and 40 replicas
    # share one result run, so done_event settles at member 39 of 80
    # and the other 40 arrive after the backend is released
    dict(seed=24, n_nodes=96, n_tasks=136, replicate_tail=True,
         lease_factor=5.0, ref_seconds=6.0),
    # non-identity executor (per-member accept path beside bulk hops)
    dict(seed=25, n_nodes=64, n_tasks=150, executor=_slow_device),
    # heterogeneous links: each bulk hop files onto several instants
    dict(seed=28, n_nodes=70, n_tasks=220, rate_spread=0.5,
         lease_factor=3.0),
]

#: Same-instant retransmit timeouts: the per-PNA oracle must fire them
#: in the order their waits began, as the engine's deadline runs do.
TIMEOUT_ORDER_CONFIGS = [
    dict(seed=27, n_nodes=20, n_tasks=300, delta_loss=0.05,
         lease_factor=3.0, drain_s=400.0),
    dict(seed=26, n_nodes=72, n_tasks=300, delta_loss=0.05,
         lease_factor=3.0, drain_s=400.0),
]


@pytest.mark.parametrize(
    "cfg", BASE_CONFIGS + BULK_CONFIGS + TIMEOUT_ORDER_CONFIGS,
    ids=lambda c: f"seed{c['seed']}")
def test_cohort_matches_process(cfg, dve):
    _assert_equivalent(cfg, dve)


@pytest.mark.parametrize("cfg", BASE_CONFIGS[:3] + BULK_CONFIGS[:2],
                         ids=lambda c: f"seed{c['seed']}")
def test_cohort_matches_process_traced(cfg, dve):
    _assert_equivalent({**cfg, "trace": True}, dve)


def test_traced_differential_compares_traces(dve):
    """Guard for the traced suites: a traced cycle really records the
    task loop (an empty tracer is still a tracer)."""
    with dve.cohort():
        out = _run_cycle(n_nodes=4, n_tasks=8, trace=True)
    names = {name for _t, _cat, name, _f in out["trace"]}
    assert {"dispatch", "complete", "job_done"} <= names


def test_fuzz_seed_sweep(dve):
    """Randomised sweep: seeds drive fleet size, bag size, task shape,
    loss and fault-tolerance knobs through both paths."""
    import random

    for seed in range(40, 52):
        r = random.Random(seed)
        cfg = dict(
            seed=seed,
            n_nodes=r.randint(3, 96),
            n_tasks=r.randint(5, 80),
            ref_seconds=r.choice([0.5, 2.0, 7.5]),
            input_bits=r.choice([0.0, 4096.0, 3e5]),
            result_bits=r.choice([512.0, 1e5]),
            delta_loss=r.choice([0.0, 0.0, 0.05]),
            lease_factor=r.choice([None, 2.0, 0.05]),
            replicate_tail=r.choice([False, True]),
            dve_poll_interval_s=r.choice([2.0, 15.0]),
            drain_s=300.0,
        )
        _assert_equivalent(cfg, dve)


# -- engine unit behaviour ----------------------------------------------------

def test_control_payload_bits_in_sync():
    # taskloop avoids importing dve (module cycle); the constant must
    # stay equal or wire accounting silently diverges.
    assert ENGINE_CONTROL_BITS == DVE_CONTROL_BITS


def _started_clients(n_nodes=5):
    """Recruit a small fleet; return the client loop type of every PNA."""
    system = OddCISystem(seed=3, maintenance_interval_s=1e6)
    system.add_pnas(n_nodes, heartbeat_interval_s=1e5,
                    dve_poll_interval_s=5.0)
    job = uniform_bag(2 * n_nodes, ref_seconds=1.0, image_bits=1e5)
    system.provider.submit_job(job, target_size=n_nodes, lifetime_s=1e5,
                               heartbeat_interval_s=1e5)
    system.sim.run(until=2.0)  # recruit; first polls in flight
    return [type(p.dve) for p in system.pnas]


def test_oracle_seam_selects_the_task_path(dve, request):
    """Guard for the differential suites: a broken seam must fail here
    rather than let them compare the cohort engine with itself."""
    with dve.per_pna():
        assert _started_clients() == [DVE] * 5
    with dve.cohort():
        assert _started_clients() == [CohortDVE] * 5
    ambient = DVE if request.config.getoption("--per-pna-oracle") \
        else CohortDVE
    assert _started_clients() == [ambient] * 5


def test_cohort_dve_validation_and_destroy(dve):
    from repro.errors import OddCIError

    with dve.cohort():
        system = OddCISystem(seed=5, maintenance_interval_s=1e6)
        system.add_pnas(2, heartbeat_interval_s=1e5,
                        dve_poll_interval_s=5.0)
        job = uniform_bag(4, ref_seconds=1.0, image_bits=1e5)
        system.provider.submit_job(job, target_size=2, lifetime_s=1e5,
                                   heartbeat_interval_s=1e5)
        system.sim.run(until=2.0)  # recruit; first polls in flight
        pna = system.pnas[0]
        client = pna.dve
        assert isinstance(client, CohortDVE)
        with pytest.raises(OddCIError):
            CohortDVE(client._engine, pna, "i", "b", poll_interval_s=0)
        with pytest.raises(OddCIError):
            CohortDVE(client._engine, pna, "i", "b", request_timeout_s=-1)
        client.destroy()
        client.destroy()  # idempotent
        assert client.destroyed
        client.on_backend_message("anything")  # must not raise
        completed_before = client.tasks_completed
        system.sim.run(until=1e5)
        assert client.tasks_completed == completed_before  # slot stays dead


def test_unregistered_backend_falls_back_to_process_path(dve):
    """Wakeups naming a backend id with no cohort-capable server (test
    doubles, custom components) must run the reference DVE."""
    from repro.core import WakeupPayload, sign_control

    with dve.cohort():
        system = OddCISystem(seed=6, maintenance_interval_s=1e6)
        system.add_pnas(1, heartbeat_interval_s=1e5,
                        dve_poll_interval_s=5.0)
        pna = system.pnas[0]
        payload = WakeupPayload(instance_id="i-ghost", image_name="img",
                                image_bits=1e5, probability=1.0,
                                backend_id="ghost-backend")
        pna.deliver_control(payload,
                            sign_control(system.controller.key, payload))
    assert isinstance(pna.dve, DVE)
    assert not isinstance(pna.dve, CohortDVE)


def test_engine_reused_within_instance_fresh_across_backends(dve):
    with dve.cohort():
        system = OddCISystem(seed=13, maintenance_interval_s=1e6)
        system.add_pnas(6, heartbeat_interval_s=1e5,
                        dve_poll_interval_s=5.0)
        job = uniform_bag(12, ref_seconds=1.0)
        submission = system.provider.submit_job(job, target_size=6,
                                                lifetime_s=1e6,
                                                heartbeat_interval_s=1e5)
        system.provider.run_job_to_completion(submission, limit_s=1e6)
    engines = set(system.router._task_engines.values())
    assert len(engines) == 1
    (engine,) = engines
    assert engine.members_joined == 6


def _replica_candidate_scan(backend, requester):
    """Full-scan oracle of ``Backend._pick_replica_candidate``: over the
    leased rows in assignment order, the first with the oldest
    assignment instant that has fewer than ``max_replicas`` copies and
    none held by ``requester``."""
    from repro.core.backend import _FLIGHT

    leased = np.flatnonzero(backend._state == _FLIGHT)
    best = None
    for row in leased[np.argsort(backend._seq[leased])].tolist():
        holders = backend._holders.get(row, set())
        if requester in holders or len(holders) >= backend.max_replicas:
            continue
        if best is None or \
                backend._assigned_at[row] < backend._assigned_at[best]:
            best = row
    return best


def test_replica_candidate_heap_matches_scan():
    """Parity oracle for the replica-candidate index: under a seeded
    requeue/replication workload, the heap pick must equal the full
    in-flight scan at every request."""
    import random

    from repro.sim.core import Simulator
    from repro.core.network import Router

    r = random.Random(99)
    for trial in range(30):
        sim = Simulator(seed=trial)
        router = Router(sim)
        job = uniform_bag(r.randint(4, 12), ref_seconds=2.0)
        backend = Backend(sim, job, router, backend_id=f"b{trial}",
                          lease_factor=2.0, replicate_tail=True,
                          max_replicas=r.choice([2, 3]))
        workers = [f"w{i}" for i in range(r.randint(2, 6))]
        for step in range(60):
            sim.run(until=sim.now + r.uniform(0.1, 5.0))
            requester = r.choice(workers)
            expected = _replica_candidate_scan(backend, requester)
            got = backend._pick_replica_candidate(requester)
            assert got == expected, f"trial {trial} step {step}"
            # Drive the real state machine so the index sees pops,
            # requeues and completions.
            reply = backend._serve_request(requester,
                                           instance_id="i-parity")
            if hasattr(reply, "task_id") and r.random() < 0.6:
                backend.receive_result(requester, reply.task_id)
        backend.shutdown()


# -- bucket wheel filing ------------------------------------------------------

_KINDS = (_K_SEND, _K_DEADLINE, _K_ASSIGN_ARR, _K_NOWORK_ARR, _K_RESULT_ARR)
_INSTANTS = (float("nan"), 1.0, 2.0, 3.5)
_NAN_RETRY = float("nan")  # NoWork(None): the member stops


def _stream(kind, n, instants):
    """A Hypothesis stream for :meth:`CohortTaskEngine._file`: ``n``
    members' times (NaN = files nothing), slots (repeats allowed) and
    the kind's payload columns."""
    ints = st.lists(st.integers(-5, 50), min_size=n, max_size=n)
    floats = st.lists(st.sampled_from((0.5, 60.0, 4096.0)), min_size=n,
                      max_size=n).map(lambda v: np.array(v, np.float64))
    if kind == _K_ASSIGN_ARR:
        columns = st.tuples(ints.map(lambda v: np.array(v, np.int64)),
                            floats, floats)
    elif kind == _K_NOWORK_ARR:
        columns = st.tuples(st.lists(st.sampled_from((_NAN_RETRY, 15.0)),
                                     min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float64)))
    elif kind == _K_RESULT_ARR:
        columns = st.tuples(*(ints.map(lambda v: np.array(v, np.int64)),)
                            * 3)
    else:
        columns = st.just(())
    return st.tuples(
        st.just(kind),
        st.lists(st.sampled_from(instants), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float64)),
        st.lists(st.integers(0, 9), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64)),
        columns)


@st.composite
def _filing(draw):
    n = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3))
    # Streams on disjoint instants take the group-by-group path; shared
    # instants force the member-by-member one.
    shared = draw(st.booleans())
    streams = [draw(_stream(kind, n, _INSTANTS if shared else
                            tuple(t + 10.0 * k for t in _INSTANTS)))
               for k, kind in enumerate(kinds)]
    # entries already filed: a bucket's last run may be extended
    prior = draw(st.lists(st.tuples(st.sampled_from((1.0, 2.0, 11.0)),
                                    st.sampled_from((_K_SEND, _K_DEADLINE,
                                                     _K_ASSIGN_ARR)),
                                    st.integers(0, 9)), max_size=4))
    return streams, prior


def _filed(streams, prior, member_by_member):
    from types import SimpleNamespace

    from repro.sim import Simulator

    sim = Simulator(seed=0)
    engine = CohortTaskEngine(sim, None, SimpleNamespace(backend_id="b"),
                              "i")
    for time, kind, slot in prior:
        run = engine._run_at(time, kind)
        run[1].append(slot)
        for column in run[2:]:
            column.append(slot)
    (engine._file_members if member_by_member else engine._file)(streams)
    buckets = {t: repr([[run[0]] + [list(c) for c in run[1:]]
                        for run in runs])
               for t, runs in engine._buckets.items()}
    return buckets, sorted(entry[0] for entry in sim._heap)


@settings(max_examples=200, deadline=None)
@given(_filing())
def test_bulk_filing_matches_member_by_member(filing):
    """The engine files a column pass's entries group by group; the
    buckets (runs, their order, members and payloads) and calendar
    entries must be those of filing each member's entries in turn —
    including streams that share an instant and buckets whose last run
    the filing extends."""
    streams, prior = filing
    assert _filed(streams, prior, False) == _filed(streams, prior, True)


def test_task_buckets_set_off_no_garbage_collection(dve, monkeypatch):
    """A bucket is a set of column runs: firing a 20 000-member result,
    assignment or compute run allocates too few container objects to
    trigger even a young-generation collection."""
    import gc

    from repro.core import taskloop

    n = 20_000
    watched = {_K_RESULT_ARR: "result", _K_ASSIGN_ARR: "assign",
               taskloop._K_COMPUTE: "compute"}
    collections = []
    measured = {}

    def hook(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    fire = CohortTaskEngine._fire

    def measured_fire(engine, time):
        kinds = {watched[run[0]] for run in engine._buckets[time]
                 if run[0] in watched and len(run[1]) >= n}
        if not kinds:
            return fire(engine, time)
        gc.collect()
        del collections[:]
        gc.callbacks.append(hook)
        try:
            fire(engine, time)
        finally:
            gc.callbacks.remove(hook)
        for kind in kinds:
            measured.setdefault(kind, []).append(len(collections))

    monkeypatch.setattr(CohortTaskEngine, "_fire", measured_fire)
    with dve.cohort():
        system = OddCISystem(seed=0, maintenance_interval_s=1e6)
        system.add_pnas(n, heartbeat_interval_s=500.0,
                        dve_poll_interval_s=15.0)
        job = uniform_bag(2 * n, ref_seconds=60.0, input_bits=4096.0,
                          result_bits=4096.0)
        submission = system.provider.submit_job(
            job, target_size=n, lifetime_s=1e6, heartbeat_interval_s=500.0)
        report = system.provider.run_job_to_completion(submission,
                                                       limit_s=1e6)
    assert report.n_tasks == 2 * n
    assert sorted(measured) == ["assign", "compute", "result"]
    assert measured == {kind: [0] * len(counts)
                        for kind, counts in measured.items()}
