"""Differential suite: columnar census engine ≡ dict-backed reference.

The behavioural contract of the columnar refactor is *identical
observable outcomes*: any sequence of heartbeats (idle, busy, stale,
trim-pending), maintenance expiries and crash/restore cycles must leave
a :class:`~repro.core.census.ColumnarCensusStore`-backed Controller in
exactly the state the :class:`~repro.core.census.DictCensusStore`
reference produces.  These tests drive randomized sequences through
both engines — at the raw store level, at the Controller level (the
columnar cohort path vs the per-payload reference, the dict store handed
in through the Controller's ``census`` argument), and through the
dict-shaped views — and require equality throughout.
"""

import random

import numpy as np
import pytest

from repro.core.census import (
    STATE_BUSY,
    STATE_IDLE,
    ColumnarCensusStore,
    DictCensusStore,
    MembersView,
    NodeInterner,
    RegistryView,
    _selfcheck,
)
from repro.core.controller import Controller, DirectControlPlane
from repro.core.instance import InstanceSpec, reset_instance_sequence
from repro.core.messages import HeartbeatPayload, PNAState
from repro.core.network import Router
from repro.errors import OddCIError
from repro.net.broadcast import BroadcastChannel
from repro.net.crypto import KeyRegistry
from repro.sim.core import Simulator

#: Parameter ids -> census engines.
STORES = {"columnar": ColumnarCensusStore, "dict": DictCensusStore}

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


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
def test_store_differential_fuzz(seed):
    """The module's own seeded fuzz: random touches, cohort groups,
    marks/drops, expiries, wipes and crashes against both engines in
    lockstep, with per-step columnar validation."""
    assert _selfcheck(ops=1500, seed=seed, verbose=False) == 0


def test_capacity_growth_preserves_state():
    interner = NodeInterner()
    store = ColumnarCensusStore(interner, initial_capacity=1)
    handle = store.bind_instance("inst")
    for i in range(100):
        idx = interner.intern(f"n{i}")
        store.touch(idx, PNAState.BUSY, "inst", float(i))
        store.mark_member(handle, idx, float(i))
    store.validate()
    assert store.registry_size() == 100
    assert store.member_count(handle) == 100
    assert store.registry_get("n42") == (42.0, PNAState.BUSY, "inst")


# ------------------------------------------------------------------- views


@pytest.mark.parametrize("backend", ["columnar", "dict"])
def test_registry_view_dict_compat(backend):
    store = STORES[backend]()
    view = RegistryView(store)
    assert view == {} and len(view) == 0 and not view
    view["p1"] = (5.0, PNAState.IDLE, None)
    view["p2"] = (6.0, PNAState.BUSY, "inst-a")
    assert len(view) == 2 and view
    assert "p1" in view and "p9" not in view
    assert view["p2"] == (6.0, PNAState.BUSY, "inst-a")
    assert view.get("p9") is None
    assert sorted(view.keys()) == ["p1", "p2"]
    assert sorted(view.values()) == [(5.0, PNAState.IDLE, None),
                                     (6.0, PNAState.BUSY, "inst-a")]
    assert view == {"p1": (5.0, PNAState.IDLE, None),
                    "p2": (6.0, PNAState.BUSY, "inst-a")}
    with pytest.raises(KeyError):
        view["p9"]
    view.clear()
    assert view == {}


@pytest.mark.parametrize("backend", ["columnar", "dict"])
def test_members_view_dict_compat(backend):
    store = STORES[backend]()
    handle = store.bind_instance("inst")
    view = MembersView(store, handle)
    assert view == {} and not view
    for i, node in enumerate(["a", "b", "c"]):
        store.mark_member(handle, store.interner.intern(node), float(i))
    assert len(view) == 3
    assert view["b"] == 1.0 and view.get("z") is None
    assert "a" in view and "z" not in view
    assert sorted(view.items()) == [("a", 0.0), ("b", 1.0), ("c", 2.0)]
    assert dict(view) == {n: view[n] for n in view}
    with pytest.raises(KeyError):
        view["z"]
    view.clear()
    assert view == {} and store.member_count(handle) == 0


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
    controller = Controller(sim, router, plane, KeyRegistry(),
                            maintenance_interval_s=50.0,
                            census=STORES[backend](router.interner))
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
    return {
        "registry": sorted(controller.registry.items()),
        "members": {iid: sorted(rec.members.items())
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
    sim, router, controller = _build_controller(backend)
    live = []  # instance ids created so far (any status)
    rng_hb = 0

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
    return _census_state(controller)


@pytest.mark.parametrize("seed", [3, 11, 47])
def test_controller_differential_columnar_vs_dict(seed):
    """The tentpole contract: the columnar cohort path and the
    dict-backed per-payload reference produce identical censuses across
    randomized heartbeat / trim / stale / expiry / crash-restore
    sequences."""
    script = _random_script(random.Random(seed))
    columnar = _run_script("columnar", script, columnar_delivery=True)
    reference = _run_script("dict", script, columnar_delivery=False)
    assert columnar == reference
    # The workload actually exercised the interesting paths.
    assert columnar["counters"].get("heartbeats", 0) > 0


def test_columnar_batch_vs_cohort_same_controller_paths():
    """Within the columnar engine, `_receive_cohort` must equal
    `_receive_batch` payload-for-payload (same store, same sequences)."""
    script = _random_script(random.Random(5))
    cohort = _run_script("columnar", script, columnar_delivery=True)
    batch = _run_script("columnar", script, columnar_delivery=False)
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
    assert controller.registry["pna-3"][1] is PNAState.IDLE
    assert "pna-3" not in controller.instances[iid].members
    assert controller.instances[iid].size == 19


def test_small_cohorts_use_per_payload_path():
    sim, router, controller = _build_controller("columnar")
    payloads = [HeartbeatPayload(pna_id=f"pna-{n}", state=PNAState.IDLE,
                                 instance_id=None)
                for n in range(Controller._COHORT_MIN - 1)]
    controller._receive_cohort(*router.heartbeat_columns(payloads))
    assert len(controller.registry) == len(payloads)
    assert controller.counters["heartbeats"] == len(payloads)


def test_columnar_store_validate_after_controller_workload():
    """Shape/invariant discipline holds after a real Controller
    workload (the assertion-based numpy-boundary check)."""
    script = _random_script(random.Random(13))
    sim_state = _run_script("columnar", script, columnar_delivery=True)
    assert sim_state["counters"].get("heartbeats", 0) >= 0
    # validate() runs inside _selfcheck too; here assert on a live store:
    _, router, controller = _build_controller("columnar")
    spec = InstanceSpec(target_size=3, image_name="img", image_bits=1e6)
    iid = controller.create_instance(spec).instance_id
    payloads = [HeartbeatPayload(pna_id=f"p{n}", state=PNAState.BUSY,
                                 instance_id=iid) for n in range(40)]
    controller._receive_cohort(*router.heartbeat_columns(payloads))
    controller.census.validate()
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
    assert controller.registry == {}
    assert controller.instances[iid].size == 0
    sim.run(until=sim.now + 30.0)
    controller.restore()
    assert controller.instances[iid] is record  # identity preserved
    assert controller.census is store  # the injected engine survives
    controller._receive_batch(payloads)
    assert controller.instances[iid].size == 20
    assert len(controller.registry) == 20


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
    assert record.size == 0 and record.members == {}
    assert not controller.census._is_bound(record.census_handle)
    controller.census.validate()
