"""One Provider over several networks: shards, placement, routing."""

import pytest

from repro.certify import CertifyPolicy
from repro.core import (
    InstanceStatus,
    NetworkDescriptor,
    OddCISystem,
    split_target,
)
from repro.errors import ConfigurationError, ProvisioningError
from repro.faults import availability_fraction, merged_size_series
from repro.workloads import uniform_bag


def three_networks(capacity=6):
    return [
        NetworkDescriptor(name="desk", capacity=capacity,
                          cost_per_node_hour=0.5),
        NetworkDescriptor(name="dtv", capacity=capacity,
                          cost_per_node_hour=1.0),
        NetworkDescriptor(name="cell", capacity=capacity,
                          cost_per_node_hour=2.0),
    ]


def running_federation(placement="cost", capacity=6, seed=0):
    system = OddCISystem(
        networks=three_networks(capacity), seed=seed, placement=placement,
        maintenance_interval_s=20.0)
    system.build_fleets(heartbeat_interval_s=10.0, dve_poll_interval_s=5.0)
    return system


# -- descriptor & placement math ---------------------------------------------

def test_network_descriptor_validation():
    # The unnamed network is a one-network deployment's only network.
    with pytest.raises(ConfigurationError):
        OddCISystem(networks=[NetworkDescriptor(name="", capacity=4),
                              NetworkDescriptor(name="x", capacity=4)])
    with pytest.raises(ConfigurationError):
        NetworkDescriptor(name="x", capacity=0)
    with pytest.raises(ConfigurationError):
        NetworkDescriptor(name="x", capacity=4, delta_loss=1.5)
    with pytest.raises(ConfigurationError):
        NetworkDescriptor(name="x", capacity=4,
                          device_mix={"settop": 1.3})


def test_split_target_cost_fills_cheapest_first():
    entries = [("dtv", 10, 1.0), ("cell", 10, 2.0), ("desk", 10, 0.5)]
    assert split_target(7, entries, "cost") == {"desk": 7}
    assert split_target(14, entries, "cost") == {"desk": 10, "dtv": 4}
    assert split_target(25, entries, "cost") == {
        "desk": 10, "dtv": 10, "cell": 5}


def test_split_target_spread_is_proportional():
    entries = [("a", 10, 1.0), ("b", 10, 1.0), ("c", 5, 1.0)]
    shares = split_target(10, entries, "spread")
    assert sum(shares.values()) == 10
    assert shares == {"a": 4, "b": 4, "c": 2}


def test_split_target_errors():
    entries = [("a", 3, 1.0)]
    with pytest.raises(ProvisioningError):
        split_target(4, entries)          # headroom exhausted
    with pytest.raises(ProvisioningError):
        split_target(0, entries)          # nonsense target
    with pytest.raises(ConfigurationError):
        split_target(1, entries, "random")  # unknown policy


# -- shard id ranges ----------------------------------------------------------

def test_shard_id_ranges_are_contiguous_and_disjoint():
    system = running_federation()
    previous_hi = 0
    for shard in system.shards:
        lo, hi = shard.id_range
        assert lo == previous_hi
        assert hi - lo == len(shard.pnas) == 6
        assert [system.interner.index_of(p.pna_id) for p in shard.pnas] \
            == list(range(lo, hi))
        previous_hi = hi
    # One shared table covers exactly the federation's fleet.
    assert len(system.interner) == previous_hi == len(system.pnas)


# -- multi-network job routing ------------------------------------------------

def test_job_completes_with_merged_per_network_accounting():
    system = running_federation(placement="cost")
    job = uniform_bag(40, image_bits=1e6, ref_seconds=5.0)
    submission = system.provider.submit_job(
        job, target_size=10, heartbeat_interval_s=10.0,
        release_on_completion=False)
    # cost placement: all of desk (6), remainder on dtv.
    assert submission.shares == {"desk": 6, "dtv": 4}
    system.provider.run_job_to_completion(submission, limit_s=1e5)
    backend = submission.backend
    assert backend.done
    assert sum(backend.assigned_by_network.values()) == \
        backend.tasks_assigned
    assert sum(backend.completed_by_network.values()) == job.n
    assert backend.completed_by_network["desk"] > 0
    assert backend.completed_by_network["dtv"] > 0
    assert backend.completed_by_network["cell"] == 0


def test_status_and_size_series_merge_networks():
    system = running_federation(placement="spread")
    job = uniform_bag(5000, image_bits=1e6, ref_seconds=60.0)
    submission = system.provider.submit_job(
        job, target_size=9, heartbeat_interval_s=10.0)
    system.sim.run(until=120.0)
    status = system.provider.status(submission.instance_id)
    assert status["target_size"] == 9
    assert set(status["networks"]) == {"desk", "dtv", "cell"}
    assert status["size"] == 9
    merged = merged_size_series(
        [s for _n, s in system.provider.size_series(submission.instance_id)])
    assert merged.last() == 9
    assert availability_fraction(merged, 9, until=120.0) > 0.5
    assert system.provider.cost_estimate(submission.instance_id, 120.0) > 0.0


def test_resize_recommits_and_release_evicts():
    system = running_federation(placement="spread")
    job = uniform_bag(5000, image_bits=1e6, ref_seconds=60.0)
    submission = system.provider.submit_job(
        job, target_size=9, heartbeat_interval_s=10.0,
        release_on_completion=False)
    assert sum(submission.shares.values()) == 9
    system.sim.run(until=60.0)
    system.provider.resize(submission.instance_id, 15)
    shares = submission.shares
    assert sum(shares.values()) == 15
    assert all(system.provider.committed(n) == s
               for n, s in shares.items())
    with pytest.raises(ProvisioningError):
        system.provider.resize(submission.instance_id, 99)  # > capacity
    system.provider.release(submission.instance_id)
    assert system.provider.backends() == []
    assert all(system.provider.committed(n) == 0
               for n in ("desk", "dtv", "cell"))


def test_departure_rebalances_to_survivors_and_rejoin_restores():
    system = running_federation(placement="spread")
    job = uniform_bag(5000, image_bits=1e6, ref_seconds=60.0)
    submission = system.provider.submit_job(
        job, target_size=9, heartbeat_interval_s=10.0,
        release_on_completion=False)
    system.sim.run(until=60.0)
    system.shard("cell").depart()
    shares = system.provider.rebalance(submission.instance_id)
    assert set(shares) == {"desk", "dtv"}
    assert sum(shares.values()) == 9
    system.shard("cell").rejoin()
    shares = system.provider.rebalance(submission.instance_id)
    assert set(shares) == {"desk", "dtv", "cell"}
    assert sum(shares.values()) == 9
    # The retired cell instance plus its replacement both appear in the
    # accounting history (size series spans re-creations).
    cell_series = [
        s for n, s in system.provider.size_series(submission.instance_id)
        if n == "cell"]
    assert len(cell_series) == 2


def test_rebalance_degrades_when_survivors_cannot_seat_target():
    system = running_federation(placement="spread", capacity=4)
    job = uniform_bag(5000, image_bits=1e6, ref_seconds=60.0)
    submission = system.provider.submit_job(
        job, target_size=9, heartbeat_interval_s=10.0,
        release_on_completion=False)
    system.sim.run(until=60.0)
    system.shard("desk").depart()
    shares = system.provider.rebalance(submission.instance_id)
    # Best effort: 8 of 9 seats on the two survivors, not an exception.
    assert shares == {"dtv": 4, "cell": 4}
    assert submission.target_size == 9
    system.shard("desk").rejoin()
    assert sum(system.provider.rebalance(
        submission.instance_id).values()) == 9


def test_release_after_restore_reaps_a_crashed_network_instance():
    """A job that finishes while one network's Controller is down
    leaves that network's instance behind, and its share stays
    committed while that instance holds its nodes; after the restore
    the Provider finds it by id and dismantles it, freeing the share."""
    system = running_federation(placement="spread", capacity=4)
    provider = system.provider
    job = uniform_bag(40, image_bits=1e6, ref_seconds=5.0)
    submission = provider.submit_job(
        job, target_size=12, heartbeat_interval_s=10.0)
    backend, dtv = submission.backend, system.shard("dtv")
    while backend.tasks_assigned < job.n and system.sim.now < 500.0:
        system.sim.run(until=system.sim.now + 1.0)
    dtv.controller.crash()
    provider.run_job_to_completion(submission, limit_s=1e5)
    system.sim.run(until=system.sim.now + 30.0)
    assert provider.backends() == []
    dtv.controller.restore()
    system.sim.run(until=system.sim.now + 30.0)
    left = submission.records["dtv"]
    assert left.status is InstanceStatus.ACTIVE and left.size == 4
    assert [provider.committed(n) for n in ("desk", "dtv", "cell")] == [
        0, 4, 0]
    # The next job is seated where nodes are free, not on dtv's.
    second = provider.submit_job(
        uniform_bag(5000, image_bits=1e6, ref_seconds=60.0),
        target_size=8, heartbeat_interval_s=10.0,
        release_on_completion=False)
    assert second.shares == {"desk": 4, "cell": 4}
    provider.release(left.instance_id)
    assert provider.committed("dtv") == 0
    provider.resize(second.instance_id, 12)
    assert second.shares == {"desk": 4, "dtv": 4, "cell": 4}
    system.sim.run(until=system.sim.now + 300.0)
    assert left.status is InstanceStatus.DESTROYED
    assert second.records["dtv"].size == 4
    status = provider.status(left.instance_id)
    assert status["status"] == "destroyed"
    assert set(status["networks"]) == {"dtv"}


# -- convictions --------------------------------------------------------------

@pytest.mark.parametrize("outage", ("crash", "depart"))
def test_conviction_reaches_the_node_network_while_it_is_out(outage):
    """A node convicted while its own network's Controller is crashed,
    or while that network has left, is blacklisted there as on every
    other network: after the restore (or rejoin) it never rejoins an
    instance there."""
    system = running_federation(placement="spread", capacity=4)
    job = uniform_bag(5000, image_bits=1e6, ref_seconds=60.0)
    submission = system.provider.submit_job(
        job, target_size=12, heartbeat_interval_s=10.0,
        certify_policy=CertifyPolicy(mode="static", r=2),
        release_on_completion=False)
    system.sim.run(until=60.0)
    desk = system.shard("desk")
    convict = desk.pnas[0]
    assert convict.instance_id == submission.records["desk"].instance_id
    if outage == "crash":
        desk.controller.crash()
    else:
        desk.depart()
    submission.backend.certifier.quarantine(convict.census_idx, "sabotage")
    system.sim.run(until=90.0)
    if outage == "crash":
        desk.controller.restore()
    else:
        desk.rejoin()
    assert convict.pna_id in desk.controller.blacklist
    assert convict.pna_id in system.shard("dtv").controller.blacklist
    census = desk.controller.census
    member_ids = []

    def probe():
        for record in desk.controller.instances.values():
            member_ids.extend(
                pna_id for pna_id, _seen
                in census.members_items(record.census_handle))

    for t in range(95, 600, 5):
        system.sim.call_at(float(t), probe)
    system.sim.run(until=600.0)
    assert member_ids, "the network's other nodes rejoined"
    assert convict.pna_id not in member_ids
