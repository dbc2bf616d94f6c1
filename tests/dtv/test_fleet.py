"""Set-top-box fleets built by ``OddCIDTVSystem.add_receivers``: tuning,
power modes, direct channels and churn."""

import pytest

from repro.dtv_oddci import PNA_APP_ID, OddCIDTVSystem
from repro.errors import ConfigurationError
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
    assert all(system.pna_of(box).channel is box.direct_channel
               for box in system.boxes)


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
