"""Differential suite: columnar census engine ≡ dict-backed reference.

The behavioural contract of the columnar refactor is *identical
observable outcomes*: any sequence of heartbeats (idle, busy, stale,
trim-pending), maintenance expiries and crash/restore cycles must leave
a :class:`~repro.core.census.ColumnarCensusStore`-backed Controller in
exactly the state the dict-backed ``DictCensusStore`` reference
(``tests/core/dict_census.py``) produces.  These tests drive randomized
sequences through both engines — at the raw store level and at the
Controller level (the columnar cohort path vs the per-payload
reference, the dict store handed in through the Controller's
``census`` argument) — and require equality throughout.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.census import (
    CODE_STATE,
    STATE_BUSY,
    STATE_IDLE,
    STATE_NONE,
    ColumnarCensusStore,
    NodeInterner,
)
from repro.core.controller import Controller, DirectControlPlane
from repro.core.instance import InstanceSpec, reset_instance_sequence
from repro.core.messages import HeartbeatPayload, PNAState
from repro.core.network import Router
from repro.errors import OddCIError
from repro.net.broadcast import BroadcastChannel
from repro.net.crypto import KeyRegistry
from repro.sim.core import Simulator
from tests.core.dict_census import (DictCensusStore, PlainColumnStore,
                                    controller_on, member_seen, snapshot,
                                    total_members)

#: Parameter ids -> census engines.
STORES = {"columnar": ColumnarCensusStore, "dict": DictCensusStore}


def _validate(store: ColumnarCensusStore) -> None:
    """Assert the columnar store's dtype/shape discipline and recompute
    its derived counts.

    This is the numpy-boundary check standing in for a static type
    pass: every array has the declared dtype and the shared capacity,
    and every cached count equals what the raw columns say.
    """
    cap = store._cap
    instants = store._instants
    assert store._seen.dtype.kind == "u" and store._seen.shape == (cap,)
    assert store._state.dtype == np.int8 and store._state.shape == (cap,)
    assert store._inst.dtype.kind == "u" and store._inst.shape == (cap,)
    assert store._member_of.dtype == np.int16 \
        and store._member_of.shape == (cap,)
    assert cap >= len(store.interner), \
        f"columns (cap {cap}) lag the interner ({len(store.interner)})"
    # the instant table ascends from code 0's -inf and fits its codes
    assert instants[0] == float("-inf") and all(
        a < b for a, b in zip(instants, instants[1:]))
    assert len(instants) <= np.iinfo(store._seen.dtype).max + 1
    assert int(store._inst.max()) <= len(store._inst_ids)
    assert store._registry_count == int(
        np.count_nonzero(store._state != STATE_NONE))
    assert ((store._seen != 0) == (store._state != STATE_NONE)).all()
    assert set(store._member_seen) == set(store._member_count)
    recount = np.zeros(cap, dtype=np.int16)
    for handle, column in store._member_seen.items():
        assert column.dtype == store._seen.dtype and column.shape == (cap,)
        assert int(column.max()) < len(instants)
        live = column != 0
        assert store._member_count[handle] == int(np.count_nonzero(live))
        recount[live] += 1
    assert (recount == store._member_of).all(), \
        "reverse membership index drifted from the columns"

# ---------------------------------------------------------------- interner


def test_interner_assigns_dense_stable_indices():
    interner = NodeInterner()
    assert interner.intern("a") == 0
    assert interner.intern("b") == 1
    assert interner.intern("a") == 0  # stable on re-intern
    assert interner.index_of("b") == 1
    assert interner.index_of("nope") is None
    assert interner.id_of(1) == "b"
    assert len(interner) == 2
    assert "a" in interner and "zzz" not in interner


# ----------------------------------------------------- raw store differential


def _selfcheck(ops: int, seed: int) -> int:
    """Seeded differential fuzz with per-step columnar validation.

    Applies a random census workload — touches, cohort groups, member
    marks/drops, expiries, idle drops, crash clears, instance
    bind/release — to a columnar and a dict store in lockstep and
    asserts equal snapshots throughout.  Returns 0 on success (the
    numpy-boundary gate).
    """
    rng = random.Random(seed)
    interner_a, interner_b = NodeInterner(), NodeInterner()
    columnar = ColumnarCensusStore(interner_a, initial_capacity=2)
    reference = DictCensusStore(interner_b)
    nodes = [f"pna-{i}" for i in range(256)]
    instances = [f"inst-{i}" for i in range(6)]
    bound: list = []

    def idx_pair(node):
        return interner_a.intern(node), interner_b.intern(node)

    for step in range(ops):
        op = rng.randrange(10)
        now = float(step)
        if op <= 2:  # single heartbeat touch
            node = rng.choice(nodes)
            state = PNAState.IDLE if rng.random() < 0.4 else PNAState.BUSY
            inst = None if state is PNAState.IDLE else rng.choice(instances)
            ia, ib = idx_pair(node)
            columnar.touch(ia, state, inst, now)
            reference.touch(ib, state, inst, now)
            if state is PNAState.IDLE:
                columnar.drop_from_all(ia)
                reference.drop_from_all(ib)
        elif op == 3:  # cohort group
            group = rng.sample(nodes, rng.randrange(1, 32))
            code = STATE_IDLE if rng.random() < 0.3 else STATE_BUSY
            inst = None if code == STATE_IDLE else rng.choice(instances)
            pairs = [idx_pair(n) for n in group]
            arr_a = np.array([a for a, _b in pairs], dtype=np.int64)
            arr_b = [b for _a, b in pairs]
            columnar.touch_group(arr_a, code, inst, now)
            reference.touch_group(arr_b, code, inst, now)
            if code == STATE_IDLE:
                columnar.drop_many_from_all(arr_a)
                reference.drop_many_from_all(arr_b)
            elif inst in bound:
                ha = columnar.instance_handle(inst)
                hb = reference.instance_handle(inst)
                columnar.mark_members(ha, arr_a, now)
                reference.mark_members(hb, arr_b, now)
        elif op == 4:  # bind / release
            inst = rng.choice(instances)
            if inst in bound and rng.random() < 0.3:
                columnar.release_instance(inst)
                reference.release_instance(inst)
                bound.remove(inst)
            else:
                columnar.bind_instance(inst)
                reference.bind_instance(inst)
                if inst not in bound:
                    bound.append(inst)
        elif op == 5 and bound:  # single mark/drop
            inst = rng.choice(bound)
            node = rng.choice(nodes)
            ia, ib = idx_pair(node)
            ha = columnar.instance_handle(inst)
            hb = reference.instance_handle(inst)
            if rng.random() < 0.7:
                columnar.mark_member(ha, ia, now)
                reference.mark_member(hb, ib, now)
            else:
                assert columnar.drop_member(ha, ia) == \
                    reference.drop_member(hb, ib)
        elif op == 6 and bound:  # expiry sweep
            inst = rng.choice(bound)
            cutoff = now - rng.randrange(0, ops // 2)
            ha = columnar.instance_handle(inst)
            hb = reference.instance_handle(inst)
            assert columnar.expire_members(ha, cutoff) == \
                reference.expire_members(hb, cutoff)
        elif op == 7 and bound and rng.random() < 0.2:  # membership wipe
            inst = rng.choice(bound)
            columnar.clear_members(columnar.instance_handle(inst))
            reference.clear_members(reference.instance_handle(inst))
        elif op == 8 and rng.random() < 0.1:  # crash
            columnar.clear()
            reference.clear()
        else:  # census reductions must agree
            horizon = now - rng.randrange(0, ops)
            assert columnar.idle_estimate(horizon) == \
                reference.idle_estimate(horizon)
            assert columnar.alive_estimate(horizon) == \
                reference.alive_estimate(horizon)
            assert columnar.registry_size() == reference.registry_size()
            assert total_members(columnar) == total_members(reference)
        if step % 97 == 0 or step == ops - 1:
            _validate(columnar)
            reference.validate()
            assert snapshot(columnar) == snapshot(reference), \
                f"stores diverged at step {step}"
    return 0


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
def test_store_differential_fuzz(seed):
    """The seeded fuzz above: random touches, cohort groups,
    marks/drops, expiries, wipes and crashes against both engines in
    lockstep, with per-step columnar validation."""
    assert _selfcheck(ops=1500, seed=seed) == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_store_differential_fuzz_4000_ops(seed):
    """The same fuzz at 4,000 ops, the numpy-boundary gate's scale."""
    assert _selfcheck(ops=4000, seed=seed) == 0


# ------------------------------------- coded columns vs plain columns

#: one op of the coded-vs-plain differential: (kind, node, span, form,
#: instance, state code, time step)
_CODED_OPS = st.tuples(
    st.sampled_from(["touch", "group", "bind", "release", "mark", "marks",
                     "drop", "expire", "clear_registry", "clear_members",
                     "clear", "drop_idle"]),
    st.integers(0, 47), st.integers(1, 24), st.sampled_from(["slice", "array"]),
    st.sampled_from(["i-0", "i-1", "i-2"]),
    st.sampled_from([STATE_IDLE, STATE_BUSY]),
    st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 7.25]))


def _coded_matches_plain(ops, warm: int = 0) -> ColumnarCensusStore:
    """Drive ``ops`` through the coded store and a plain float64/int64
    column store on one interner, comparing every read as they go;
    first, ``warm`` one-by-one heartbeats at distinct instants."""
    interner = NodeInterner()
    for k in range(48):
        interner.intern(f"n{k}")
    coded = ColumnarCensusStore(interner, initial_capacity=4)
    plain = PlainColumnStore(interner)
    for store in (coded, plain):
        handle = store.bind_instance("i-1")
        for step in range(warm):
            store.touch(step % 48, PNAState.BUSY, "i-1", 0.5 * step)
            store.mark_member(handle, (7 * step) % 48, 0.5 * step)
    now = 0.5 * warm
    for step, (kind, node, span, form, inst, code, dt) in enumerate(ops):
        now += dt
        hi = min(node + span, 48)
        rows = slice(node, hi) if form == "slice" else \
            np.arange(node, hi)[::-1].copy()
        state = CODE_STATE[code]
        for store in (coded, plain):
            handle = store.instance_handle(inst)
            bound = store._is_bound(handle)
            if kind == "touch":
                store.touch(node, state, inst if code == STATE_BUSY
                            else None, now)
            elif kind == "group":
                store.touch_group(rows, code, inst, now)
            elif kind == "bind":
                store.bind_instance(inst)
            elif kind == "release":
                store.release_instance(inst)
            elif kind == "mark" and bound:
                store.mark_member(handle, node, now)
            elif kind == "marks" and bound:
                store.mark_members(handle, rows, now)
            elif kind == "drop":
                store.drop_member(handle, node)
            elif kind == "expire":
                store.expire_members(handle, now - span)
            elif kind == "clear_registry":
                store.clear_registry()
            elif kind == "clear_members":
                store.clear_members(handle)
            elif kind == "clear":
                store.clear()
            elif kind == "drop_idle":
                store.drop_many_from_all(np.arange(node, hi))
        for horizon in (now - 3.0, now - 0.5, now, now + 1.0):
            assert coded.idle_estimate(horizon) == \
                plain.idle_estimate(horizon)
            assert coded.alive_estimate(horizon) == \
                plain.alive_estimate(horizon)
        assert coded.registry_size() == plain.registry_size()
        assert total_members(coded) == total_members(plain)
        if step % 16 == 0 or step == len(ops) - 1:
            coded._sync()  # rows the interner holds, for _validate
            _validate(coded)
            assert snapshot(coded) == snapshot(plain), f"step {step}"
    return coded


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_CODED_OPS, min_size=1, max_size=120))
def test_coded_columns_match_plain_columns(ops):
    """Instant and instance codes read back exactly as the values
    themselves, over mixed writes through slices and index arrays,
    bind/release, expiry and clears."""
    _coded_matches_plain(ops)


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(_CODED_OPS, min_size=1, max_size=60),
       warm=st.sampled_from([254, 255, 256, 300, 700]))
def test_coded_columns_match_plain_past_one_byte_of_instants(ops, warm):
    """Past 255 distinct instants the instant table compacts (and the
    codes widen while more than half of them are in use)."""
    coded = _coded_matches_plain(ops, warm)
    assert len(coded._instants) <= 1 << 8 * coded._seen.itemsize


@pytest.mark.parametrize("nodes, width", [(40, 1), (200, 2), (600, 2)])
def test_one_by_one_instants_keep_the_table_bounded(nodes, width):
    """DTV-like: members heartbeat one by one, each at its own instant,
    for ten rounds; compaction keeps the instant table within twice the
    instants rows still hold, at the narrowest width that leaves half
    its codes free, and every read matches the plain store."""
    interner = NodeInterner()
    coded = ColumnarCensusStore(interner)
    plain = PlainColumnStore(interner)
    rows = [interner.intern(f"stb-{k}") for k in range(nodes)]
    for store in (coded, plain):
        store.bind_instance("i-1")
    for step in range(10 * nodes):
        now, idx = 0.25 * step, rows[step % nodes]
        for store in (coded, plain):
            store.touch(idx, PNAState.BUSY, "i-1", now)
            store.mark_member(store.instance_handle("i-1"), idx, now)
        assert len(coded._instants) <= 1 << 8 * coded._seen.itemsize
    assert coded._seen.itemsize == width
    _validate(coded)
    assert snapshot(coded) == snapshot(plain)
    assert coded.alive_estimate(0.25 * 9 * nodes) == \
        plain.alive_estimate(0.25 * 9 * nodes)


def test_compaction_keeps_an_instant_only_a_membership_column_holds():
    """A member's last heartbeat may be an instant no registry row holds
    any more; compaction must keep it, so the member reads back and
    expires at its own instant."""
    interner = NodeInterner()
    member, other = interner.intern("m"), interner.intern("o")
    coded = ColumnarCensusStore(interner)
    plain = PlainColumnStore(interner)
    for store in (coded, plain):
        handle = store.bind_instance("i-1")
        store.touch(member, PNAState.BUSY, "i-1", 1.0)
        store.mark_member(handle, member, 1.0)
        for step in range(600):  # the registry row moves on; codes run out
            store.touch(member, PNAState.BUSY, "i-1", 2.0 + step)
            store.touch(other, PNAState.IDLE, None, 2.0 + step)
    _validate(coded)
    assert snapshot(coded) == snapshot(plain)
    assert [coded.expire_members(coded.instance_handle("i-1"), cutoff)
            for cutoff in (1.0, 1.5)] == [0, 1]

def test_group_writes_on_a_range_match_an_index_array():
    """``touch_group`` and ``mark_members`` take a group as a slice over
    a contiguous run (``as_index``) and leave the columnar store in the
    state the same rows as an index array give."""
    from repro.net.link import as_index

    def run(form):
        interner = NodeInterner()
        for k in range(40):
            interner.intern(f"n{k}")
        store = ColumnarCensusStore(interner, initial_capacity=8)
        handle = store.bind_instance("i-1")
        store.mark_member(handle, 12, 0.5)  # already a member
        for now, (lo, hi) in enumerate(((10, 30), (5, 20), (25, 40)), 1):
            rows = np.arange(lo, hi)
            store.touch_group(form(rows), STATE_BUSY, "i-1", float(now))
            store.mark_members(handle, form(rows), float(now))
        _validate(store)
        return snapshot(store), store.registry_size(), \
            store.member_count(handle), store._member_of.tolist()

    assert type(as_index(np.arange(10, 30))) is slice
    assert run(as_index) == run(lambda rows: rows)


def test_capacity_growth_preserves_state():
    interner = NodeInterner()
    store = ColumnarCensusStore(interner, initial_capacity=1)
    handle = store.bind_instance("inst")
    for i in range(100):
        idx = interner.intern(f"n{i}")
        store.touch(idx, PNAState.BUSY, "inst", float(i))
        store.mark_member(handle, idx, float(i))
    _validate(store)
    assert store.registry_size() == 100
    assert store.member_count(handle) == 100
    assert dict(store.registry_items())["n42"] == (42.0, PNAState.BUSY,
                                                   "inst")


# ------------------------------------------------------------ store reads


@pytest.mark.parametrize("backend", ["columnar", "dict"])
def test_registry_reads_and_clear(backend):
    store = STORES[backend]()
    assert store.registry_size() == 0 and list(store.registry_items()) == []
    store.touch(store.interner.intern("p1"), PNAState.IDLE, None, 5.0)
    store.touch(store.interner.intern("p2"), PNAState.BUSY, "inst-a", 6.0)
    assert store.registry_size() == 2
    assert dict(store.registry_items()) == {
        "p1": (5.0, PNAState.IDLE, None),
        "p2": (6.0, PNAState.BUSY, "inst-a")}
    store.clear_registry()
    assert store.registry_size() == 0 and list(store.registry_items()) == []


@pytest.mark.parametrize("backend", ["columnar", "dict"])
def test_members_reads_and_clear(backend):
    store = STORES[backend]()
    handle = store.bind_instance("inst")
    assert store.member_count(handle) == 0
    for i, node in enumerate(["a", "b", "c"]):
        store.mark_member(handle, store.interner.intern(node), float(i))
    assert store.member_count(handle) == 3
    assert member_seen(store, handle, store.interner.index_of("b")) == 1.0
    assert member_seen(store, handle, store.interner.intern("z")) is None
    assert sorted(store.members_items(handle)) == [("a", 0.0), ("b", 1.0),
                                                   ("c", 2.0)]
    store.clear_members(handle)
    assert store.member_count(handle) == 0 and total_members(store) == 0
    assert list(store.members_items(handle)) == []


# ------------------------------------------- controller-level differential

HB_INTERVAL = 10.0


def _build_controller(backend):
    """A Controller with no PNAs: heartbeats are injected directly, so
    reset replies no-op (no registered channels) identically for both
    engines."""
    reset_instance_sequence()
    sim = Simulator(seed=0)
    router = Router(sim)
    plane = DirectControlPlane(
        BroadcastChannel(sim, beta_bps=1e9, name="bcast"))
    controller = controller_on(STORES[backend], sim, router, plane,
                               KeyRegistry(), maintenance_interval_s=50.0)
    return sim, router, controller


def test_controller_default_store_and_interner_check():
    sim = Simulator(seed=0)
    router = Router(sim)
    plane = DirectControlPlane(
        BroadcastChannel(sim, beta_bps=1e9, name="bcast"))
    controller = Controller(sim, router, plane, KeyRegistry())
    assert isinstance(controller.census, ColumnarCensusStore)
    assert controller.census.interner is router.interner
    with pytest.raises(OddCIError):
        Controller(sim, router, plane, KeyRegistry(),
                   controller_id="other", census=DictCensusStore())


def _census_state(controller):
    """Canonical observable census of a Controller."""
    census = controller.census
    return {
        "registry": sorted(census.registry_items()),
        "members": {iid: sorted(census.members_items(rec.census_handle))
                    for iid, rec in controller.instances.items()},
        "sizes": {iid: rec.size
                  for iid, rec in controller.instances.items()},
        "statuses": {iid: rec.status.value
                     for iid, rec in controller.instances.items()},
        "pending_trims": dict(controller._pending_trims),
        "counters": controller.counters.as_dict(),
        "idle": controller.idle_estimate(),
        "alive": controller.alive_estimate(),
    }


def _random_script(rng, n_nodes=120, rounds=30):
    """A deterministic schedule of census-exercising operations."""
    script = []
    for r in range(rounds):
        op = rng.randrange(12)
        if op <= 5:
            # heartbeat cohort: mixed idle / busy / stale payloads
            cohort = rng.sample(range(n_nodes), rng.randrange(20, 60))
            kinds = [rng.randrange(4) for _ in cohort]
            script.append(("cohort", cohort, kinds))
        elif op <= 7:
            script.append(("create", rng.randrange(2, 30)))
        elif op == 8:
            script.append(("trim", rng.randrange(1, 5)))
        elif op == 9:
            script.append(("destroy",))
        elif op == 10:
            script.append(("advance", 50.0 * rng.randrange(1, 4)))
        else:
            script.append(("crash", 25.0 * rng.randrange(1, 5)))
    return script


def _run_script(backend, script, *, columnar_delivery):
    """Run ``script``; returns the census state and how many heartbeats
    went through ``_consolidate`` one by one."""
    sim, router, controller = _build_controller(backend)
    live = []  # instance ids created so far (any status)
    rng_hb = 0
    folded = []
    consolidate = controller._consolidate

    def counting_consolidate(payload):
        folded.append(payload.pna_id)
        consolidate(payload)

    controller._consolidate = counting_consolidate

    def payload_for(node, kind):
        pna_id = f"pna-{node}"
        if kind == 0 or not live:
            return HeartbeatPayload(pna_id=pna_id, state=PNAState.IDLE,
                                    instance_id=None)
        if kind == 3:
            return HeartbeatPayload(pna_id=pna_id, state=PNAState.BUSY,
                                    instance_id="no-such-instance")
        iid = live[(node + kind) % len(live)]
        return HeartbeatPayload(pna_id=pna_id, state=PNAState.BUSY,
                                instance_id=iid)

    for step in script:
        kind = step[0]
        if kind == "cohort":
            _, cohort, kinds = step
            payloads = [payload_for(n, k) for n, k in zip(cohort, kinds)]
            if columnar_delivery:
                controller._receive_cohort(
                    *router.heartbeat_columns(payloads))
            else:
                controller._receive_batch(payloads)
        elif kind == "create":
            if not controller.alive:
                continue
            spec = InstanceSpec(target_size=step[1], image_name="img",
                                image_bits=1e6,
                                heartbeat_interval_s=HB_INTERVAL)
            live.append(controller.create_instance(spec).instance_id)
        elif kind == "trim":
            targets = [iid for iid in live
                       if controller.instances[iid].status.value
                       not in ("dismantling", "destroyed")]
            if targets:
                controller._pending_trims[targets[0]] = step[1]
        elif kind == "destroy":
            if not controller.alive:
                continue
            targets = [iid for iid in live
                       if controller.instances[iid].status.value
                       not in ("dismantling", "destroyed")]
            if targets:
                controller.destroy_instance(targets[-1])
        elif kind == "advance":
            sim.run(until=sim.now + step[1])
        elif kind == "crash":
            if controller.alive:
                controller.crash()
                sim.run(until=sim.now + step[1])
                controller.restore()
        rng_hb += 1
    sim.run(until=sim.now + 100.0)
    return _census_state(controller), len(folded)


@pytest.mark.parametrize("seed", [3, 11, 47])
def test_controller_differential_columnar_vs_dict(seed):
    """The tentpole contract: the columnar cohort path and the
    dict-backed per-payload reference produce identical censuses across
    randomized heartbeat / trim / stale / expiry / crash-restore
    sequences."""
    script = _random_script(random.Random(seed))
    columnar, columnar_folded = _run_script("columnar", script,
                                            columnar_delivery=True)
    reference, reference_folded = _run_script("dict", script,
                                              columnar_delivery=False)
    assert columnar == reference
    # The workload actually exercised the interesting paths: the
    # reference folded every heartbeat one by one, the columnar path
    # only its slow tail.
    beats = reference["counters"].get("heartbeats", 0)
    assert reference_folded == beats > 0
    assert columnar_folded < beats


def test_columnar_batch_vs_cohort_same_controller_paths():
    """Within the columnar engine, `_receive_cohort` must equal
    `_receive_batch` payload-for-payload (same store, same sequences)."""
    script = _random_script(random.Random(5))
    cohort, _ = _run_script("columnar", script, columnar_delivery=True)
    batch, _ = _run_script("columnar", script, columnar_delivery=False)
    assert cohort == batch


def test_cohort_with_duplicate_nodes_falls_back():
    """A payload list repeating a node is not a wheel cohort: the
    columnar path must detect it and replay the per-payload order (last
    write wins, exactly like the reference)."""
    sim, router, controller = _build_controller("columnar")
    spec = InstanceSpec(target_size=4, image_name="img", image_bits=1e6,
                        heartbeat_interval_s=HB_INTERVAL)
    iid = controller.create_instance(spec).instance_id
    payloads = []
    for n in range(20):
        payloads.append(HeartbeatPayload(pna_id=f"pna-{n}",
                                         state=PNAState.BUSY,
                                         instance_id=iid))
    # Same node, later in the same batch, now idle: per-payload order
    # means idle wins.
    payloads.append(HeartbeatPayload(pna_id="pna-3", state=PNAState.IDLE,
                                     instance_id=None))
    controller._receive_cohort(*router.heartbeat_columns(payloads))
    record = controller.instances[iid]
    registry = dict(controller.census.registry_items())
    assert registry["pna-3"][1] is PNAState.IDLE
    assert member_seen(
        controller.census, record.census_handle, router.interner.index_of("pna-3")) is None
    assert record.size == 19


def test_small_cohorts_use_per_payload_path():
    sim, router, controller = _build_controller("columnar")
    payloads = [HeartbeatPayload(pna_id=f"pna-{n}", state=PNAState.IDLE,
                                 instance_id=None)
                for n in range(Controller._COHORT_MIN - 1)]
    controller._receive_cohort(*router.heartbeat_columns(payloads))
    assert controller.census.registry_size() == len(payloads)
    assert controller.counters["heartbeats"] == len(payloads)


def test_columnar_store_validate_after_controller_workload():
    """Shape/invariant discipline holds after a real Controller
    workload (the assertion-based numpy-boundary check)."""
    script = _random_script(random.Random(13))
    sim_state, _ = _run_script("columnar", script, columnar_delivery=True)
    assert sim_state["counters"].get("heartbeats", 0) >= 0
    # _validate runs inside _selfcheck too; here assert on a live store:
    _, router, controller = _build_controller("columnar")
    spec = InstanceSpec(target_size=3, image_name="img", image_bits=1e6)
    iid = controller.create_instance(spec).instance_id
    payloads = [HeartbeatPayload(pna_id=f"p{n}", state=PNAState.BUSY,
                                 instance_id=iid) for n in range(40)]
    controller._receive_cohort(*router.heartbeat_columns(payloads))
    _validate(controller.census)
    assert controller.instances[iid].size == 40


# ------------------------------------------------------- crash & restore


@pytest.mark.parametrize("backend", ["columnar", "dict"])
def test_crash_clears_census_and_restore_reconciles(backend):
    sim, router, controller = _build_controller(backend)
    spec = InstanceSpec(target_size=5, image_name="img", image_bits=1e6,
                        heartbeat_interval_s=HB_INTERVAL)
    iid = controller.create_instance(spec).instance_id
    payloads = [HeartbeatPayload(pna_id=f"p{n}", state=PNAState.BUSY,
                                 instance_id=iid) for n in range(20)]
    controller._receive_batch(payloads)
    assert controller.instances[iid].size == 20
    record = controller.instances[iid]
    store = controller.census

    controller.crash()
    assert list(store.registry_items()) == []
    assert store.registry_size() == 0
    assert controller.instances[iid].size == 0
    sim.run(until=sim.now + 30.0)
    controller.restore()
    assert controller.instances[iid] is record  # identity preserved
    assert controller.census is store  # the injected engine survives
    controller._receive_batch(payloads)
    assert controller.instances[iid].size == 20
    assert store.registry_size() == 20


def test_destroyed_instance_releases_column():
    sim, router, controller = _build_controller("columnar")
    spec = InstanceSpec(target_size=3, image_name="img", image_bits=1e6,
                        heartbeat_interval_s=HB_INTERVAL)
    iid = controller.create_instance(spec).instance_id
    controller._receive_batch(
        [HeartbeatPayload(pna_id=f"p{n}", state=PNAState.BUSY,
                          instance_id=iid) for n in range(3)])
    controller.destroy_instance(iid)
    # Expire the members (no fresh heartbeats), then let maintenance
    # flip DISMANTLING -> DESTROYED and release the store column.
    sim.run(until=sim.now + 200.0)
    record = controller.instances[iid]
    assert record.status.value == "destroyed"
    assert record.size == 0
    assert list(controller.census.members_items(record.census_handle)) == []
    assert not controller.census._is_bound(record.census_handle)
    _validate(controller.census)
