"""Set-top-box fleets built by ``OddCIDTVSystem.add_receivers``: tuning,
power modes, direct channels, churn, and the receivers' PNA cores as
one block on the system's one shard."""

import pytest

from repro.core.messages import PNAState
from repro.core.pna import PNABlock
from repro.dtv_oddci import PNA_APP_ID, OddCIDTVSystem
from repro.errors import ConfigurationError
from repro.net.message import MEGABYTE
from repro.workloads import uniform_bag
from repro.workloads.devices import PowerMode
from repro.workloads.traces import ChurnModel


def build(n=20, *, delta_bps=150_000.0, delta_latency_s=0.05, **kwargs):
    system = OddCIDTVSystem(seed=5, delta_bps=delta_bps,
                            delta_latency_s=delta_latency_s)
    system.add_receivers(n, **kwargs)
    return system


def powered_count(system):
    return sum(1 for box in system.boxes if box.powered)


def count_in_mode(system, mode):
    return sum(1 for box in system.boxes if box.mode is mode)


def test_population_size_and_tuning():
    system = build(n=20)
    assert len(system.boxes) == 20
    assert system.services[0].tuned_count == 20
    assert all(box.service is system.services[0] for box in system.boxes)
    assert powered_count(system) == 20


def test_mode_distribution_respects_fraction():
    system = build(n=300, in_use_fraction=0.5)
    in_use = count_in_mode(system, PowerMode.IN_USE)
    assert 100 < in_use < 200  # ~150 expected
    assert count_in_mode(system, PowerMode.STANDBY) == 300 - in_use


def test_all_in_use_by_default():
    system = build(n=10)
    assert count_in_mode(system, PowerMode.IN_USE) == 10


def test_each_box_has_direct_channel():
    system = build(n=5)
    ids = {box.direct_channel.uplink.name for box in system.boxes}
    assert len(ids) == 5
    # The box's PNA core speaks over that same channel.
    assert all(pna.channel is box.direct_channel
               for box, pna in zip(system.boxes, system.pnas))


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        build(n=0)
    with pytest.raises(ConfigurationError):
        build(n=1, in_use_fraction=1.5)
    # The direct channel's Link refuses a bad rate or latency.
    with pytest.raises(ConfigurationError):
        build(n=1, delta_bps=0)
    with pytest.raises(ConfigurationError):
        build(n=1, delta_latency_s=-1)


@pytest.mark.parametrize("build_generic", [
    lambda system: system.add_pnas(2), lambda system: system.add_pna(),
    lambda system: system.build_fleets({"": 2})])
def test_generic_fleet_refused_before_registering(build_generic):
    """A DTV system's PNAs run on boxes: add_pnas, add_pna and
    build_fleets refuse before interning or registering any row."""
    system = OddCIDTVSystem(seed=0)
    interned = len(system.router.interner)
    with pytest.raises(ConfigurationError, match="add_receivers"):
        build_generic(system)
    assert len(system.router.interner) == interned
    assert len(system.pnas) == 0 and not system.shards[0].pnas
    system.add_receivers(3)  # the box path still builds the fleet
    assert len(system.pnas) == 3


def test_churn_toggles_receivers():
    churn = ChurnModel(mean_on_s=100.0, mean_off_s=100.0)
    system = build(n=50, churn=churn)
    system.sim.run(until=500.0)
    # Steady-state availability 0.5: expect roughly half powered.
    assert 10 < powered_count(system) < 40


def test_churned_off_receivers_lose_direct_channel():
    churn = ChurnModel(mean_on_s=10.0, mean_off_s=1e9,
                       initial_on_probability=1.0)
    system = build(n=10, churn=churn)
    system.sim.run(until=200.0)
    # Everyone churned off (off sessions astronomically long).
    assert powered_count(system) == 0
    assert all(not box.direct_channel.up for box in system.boxes)
    assert system.online_count() == 0


def test_no_churn_population_is_stable():
    system = build(n=10)
    system.sim.run(until=1000.0)
    assert powered_count(system) == 10


def test_unmounting_the_carousel_destroys_its_xlets():
    """Unmounting a service's carousel destroys the PNA Xlets it
    launched, as re-tuning does: their PNAs go offline and no config
    poll stays queued on the stopped carousel."""
    system = OddCIDTVSystem(seed=5, maintenance_interval_s=100.0)
    boxes = system.add_receivers(2, heartbeat_interval_s=50.0,
                                 dve_poll_interval_s=10.0)
    service = system.services[0]
    carousel = service.carousel
    system.sim.run(until=60.0)
    xlets = [box.app_manager.running_xlet(PNA_APP_ID) for box in boxes]
    assert [x.state.value for x in xlets] == ["started", "started"]
    assert system.online_count() == 2 and carousel._n_reads == 2
    system.sim.schedule_at(60.0, service.unmount_carousel)
    system.sim.run(until=300.0)
    assert [x.state.value for x in xlets] == ["destroyed", "destroyed"]
    assert system.online_count() == 0
    assert carousel._n_reads == 0 and not carousel._reads
    assert all(box.app_manager.running_count == 0 for box in boxes)


def test_receivers_are_one_block_on_the_one_shard():
    """Each ``add_receivers`` call builds its boxes' PNA cores as one
    block on the system's one shard: in box order, ids and direct
    channels named after the box, the shard's id range covering them,
    each view computing on its own box's device model."""
    system = build(n=12, in_use_fraction=0.5)
    system.add_receivers(8)
    shard, = system.shards
    assert [len(part) for part in system.pnas.parts] == [12, 8]
    assert all(type(part) is PNABlock for part in system.pnas.parts)
    assert shard.pnas.parts == system.pnas.parts
    assert list(shard.pnas) == list(system.pnas)
    assert [pna.pna_id for pna in system.pnas] == \
        [box.stb_id for box in system.boxes] == \
        [f"stb-{k}" for k in range(20)]
    assert [pna.census_idx for pna in system.pnas] == \
        list(range(*shard.id_range)) == list(range(20))
    for k, box in enumerate(system.boxes):
        pna = system.pnas[k]
        assert box.direct_channel is pna.channel
        assert pna.channel.uplink.name.startswith(f"stb{k}.direct")
        assert pna.executor == box.execution_time
    assert len({box.mode for box in system.boxes}) == 2


def _busy_oracle(system):
    """``busy_count`` as it was defined per PNA core."""
    return sum(1 for pna in system.pnas
               if pna.online and pna.state is PNAState.BUSY)


def _online_oracle(system):
    """``online_count`` as it was defined per PNA core."""
    return sum(1 for pna in system.pnas if pna.online)


def test_counts_match_per_pna_definitions_over_a_churned_run():
    """``busy_count`` and ``online_count`` are reductions over the
    fleet's rows; across a churned, working run they equal the counts
    over the views."""
    churn = ChurnModel(mean_on_s=400.0, mean_off_s=200.0)
    system = build(n=40, churn=churn)
    system.sim.run(until=60.0)
    job = uniform_bag(2000, image_bits=MEGABYTE, ref_seconds=100.0)
    system.provider.submit_job(job, target_size=20,
                               heartbeat_interval_s=30.0)
    seen = []

    def probe():
        seen.append((system.busy_count(), _busy_oracle(system),
                     system.online_count(), _online_oracle(system)))

    for t in range(60, 2000, 10):
        system.sim.call_at(float(t), probe)
    system.sim.run(until=2000.0)
    assert all(busy == busy_oracle and online == online_oracle
               for busy, busy_oracle, online, online_oracle in seen)
    busy = {row[0] for row in seen}
    online = {row[2] for row in seen}
    assert max(busy) > 0 and len(busy) > 2     # the job ran, and churned
    assert min(online) < 40 and len(online) > 2
