"""Unit tests for instance records and probability policies."""

import pytest

from repro.core import (
    DeficitProportional,
    FixedProbability,
    InstanceRecord,
    InstanceSpec,
    InstanceStatus,
    new_instance_id,
)
from repro.core.census import ColumnarCensusStore
from repro.core.controller import Controller, DirectControlPlane
from repro.core.messages import HeartbeatPayload, PNAState
from repro.core.network import Router
from repro.errors import ConfigurationError, InstanceError
from repro.net.broadcast import BroadcastChannel
from repro.net.crypto import KeyRegistry
from repro.sim.core import Simulator


def spec(**overrides):
    defaults = dict(target_size=10, image_name="app", image_bits=1e6)
    defaults.update(overrides)
    return InstanceSpec(**defaults)


# -- InstanceSpec -----------------------------------------------------------

def test_spec_validation():
    with pytest.raises(InstanceError):
        spec(target_size=0)
    with pytest.raises(InstanceError):
        spec(image_bits=0)
    with pytest.raises(InstanceError):
        spec(image_name="")
    with pytest.raises(InstanceError):
        spec(lifetime_s=0)
    with pytest.raises(InstanceError):
        spec(heartbeat_interval_s=0)
    with pytest.raises(InstanceError):
        spec(size_tolerance=1.0)


def test_new_instance_ids_unique():
    assert new_instance_id() != new_instance_id()
    assert new_instance_id("x").startswith("x-")


# -- InstanceRecord ------------------------------------------------------------

def record_on_store(*args):
    """A record bound to a fresh columnar store, and a ``mark(node,
    now)`` that refreshes ``node``'s membership in it."""
    store = ColumnarCensusStore()
    r = InstanceRecord(*args, census=store)

    def mark(node, now):
        store.mark_member(r.census_handle, store.interner.intern(node), now)

    return r, store, mark


def test_record_membership_and_deficit():
    r, _store, mark = record_on_store("i-1", spec(target_size=3), 0.0)
    assert r.size == 0 and r.deficit == 3 and r.excess == 0
    mark("a", 1.0)
    mark("b", 1.0)
    assert r.size == 2 and r.deficit == 1
    mark("b", 2.0)  # refresh, not duplicate
    assert r.size == 2
    mark("c", 2.0)
    mark("d", 2.0)
    assert r.excess == 1 and r.deficit == 0


def test_record_expire_members():
    r, store, mark = record_on_store("i", spec(), 0.0)
    mark("old", 10.0)
    mark("new", 100.0)
    assert r.expire_members(cutoff=50.0) == 1
    assert list(store.members_items(r.census_handle)) == [("new", 100.0)]


def test_record_drop_member_idempotent():
    r, store, mark = record_on_store("i", spec(), 0.0)
    mark("a", 0.0)
    idx = store.interner.index_of("a")
    assert store.drop_member(r.census_handle, idx)
    assert not store.drop_member(r.census_handle, idx)
    assert r.size == 0


def test_dismantling_record_rejects_members():
    """The Controller consolidates no member into a DISMANTLING
    instance: a busy heartbeat claiming it is registered, not joined."""
    sim = Simulator(seed=0)
    router = Router(sim)
    plane = DirectControlPlane(
        BroadcastChannel(sim, beta_bps=1e9, name="bcast"))
    controller = Controller(sim, router, plane, KeyRegistry())
    r = controller.create_instance(spec())
    r.status = InstanceStatus.DISMANTLING
    controller._receive_batch([HeartbeatPayload(
        pna_id="a", state=PNAState.BUSY, instance_id=r.instance_id)])
    assert dict(controller.census.registry_items())["a"][1] \
        is PNAState.BUSY
    assert r.size == 0


# -- policies --------------------------------------------------------------------

def test_fixed_probability():
    assert FixedProbability(0.25).probability(5, 100) == 0.25
    with pytest.raises(ConfigurationError):
        FixedProbability(0.0)
    with pytest.raises(ConfigurationError):
        FixedProbability(1.5)


def test_deficit_proportional_basic():
    p = DeficitProportional(safety=1.0)
    assert p.probability(10, 100) == pytest.approx(0.1)
    assert p.probability(100, 100) == 1.0
    assert p.probability(200, 100) == 1.0  # clamped


def test_deficit_proportional_safety_padding():
    p = DeficitProportional(safety=1.5)
    assert p.probability(10, 100) == pytest.approx(0.15)


def test_deficit_proportional_unknown_population():
    p = DeficitProportional()
    assert p.probability(10, 0) == 1.0


def test_deficit_proportional_validation():
    with pytest.raises(ConfigurationError):
        DeficitProportional(safety=0)
    with pytest.raises(ConfigurationError):
        DeficitProportional().probability(0, 100)
