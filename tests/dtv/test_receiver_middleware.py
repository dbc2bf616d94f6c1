"""Integration tests: STB + middleware + carousel-delivered Xlets."""

import pytest

from repro.carousel import CarouselFile
from repro.dtv import (
    AITEntry,
    ApplicationControlCode,
    ApplicationInformationTable,
    Multiplex,
    SetTopBox,
    Xlet,
    XletState,
)
from repro.errors import ConfigurationError, TuningError
from repro.net import DuplexChannel
from repro.sim import Simulator
from repro.workloads.devices import (
    REFERENCE_PC,
    REFERENCE_STB,
    PowerMode,
    STB_IN_USE_OVER_PC,
    STB_IN_USE_OVER_STANDBY,
)
from tests.dtv.ait_edits import without_app


class CountingXlet(Xlet):
    instances = []

    def __init__(self, sim, stb):
        super().__init__(sim, name=f"counting@{stb.stb_id}")
        CountingXlet.instances.append(self)


def xlet_factory(sim, stb):
    return CountingXlet(sim, stb)


def build_world(beta=1e6):
    CountingXlet.instances = []
    sim = Simulator(seed=1)
    mux = Multiplex(sim, total_rate_bps=19e6)
    svc = mux.add_service("tv", av_rate_bps=10e6, data_rate_bps=beta)
    svc.mount_carousel([
        CarouselFile(name="pna.bin", size_bits=1e6,
                     metadata={"xlet_factory": xlet_factory}),
    ])
    return sim, svc


def make_stb(sim, svc, mode=PowerMode.IN_USE):
    ch = DuplexChannel(sim, rate_bps=150e3, name="stb.direct")
    stb = SetTopBox(sim, "stb-0", direct_channel=ch, mode=mode)
    stb.tune(svc)
    return stb


def test_autostart_app_launches_after_carousel_read():
    sim, svc = build_world()
    stb = make_stb(sim, svc)
    ait = ApplicationInformationTable().with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.AUTOSTART,
        carousel_path="pna.bin"))
    svc.publish_ait(ait)
    assert stb.app_manager.running_count == 0  # load in flight
    sim.run(until=30.0)
    assert stb.app_manager.running_count == 1
    xlet = stb.app_manager.running_xlet(1)
    assert xlet.state is XletState.STARTED
    assert stb.app_manager.apps_launched == 1
    # Launch took at least the carousel read time (image 1 Mbit @ 1 Mbps).
    svc.carousel.stop()


def test_non_autostart_entry_not_launched():
    sim, svc = build_world()
    stb = make_stb(sim, svc)
    svc.publish_ait(ApplicationInformationTable().with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.PRESENT,
        carousel_path="pna.bin")))
    sim.run(until=30.0)
    assert stb.app_manager.running_count == 0
    svc.carousel.stop()


def test_destroy_code_kills_running_app():
    sim, svc = build_world()
    stb = make_stb(sim, svc)
    ait = ApplicationInformationTable().with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.AUTOSTART,
        carousel_path="pna.bin"))
    svc.publish_ait(ait)
    sim.run(until=30.0)
    xlet = stb.app_manager.running_xlet(1)
    svc.publish_ait(ait.with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.KILL,
        carousel_path="pna.bin", version=2)))
    sim.run(until=60.0)
    assert stb.app_manager.running_count == 0
    assert xlet.destroyed
    svc.carousel.stop()


def test_app_removed_from_ait_is_killed():
    sim, svc = build_world()
    stb = make_stb(sim, svc)
    ait = ApplicationInformationTable().with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.AUTOSTART,
        carousel_path="pna.bin"))
    svc.publish_ait(ait)
    sim.run(until=30.0)
    svc.publish_ait(without_app(ait, 1))
    assert stb.app_manager.running_count == 0
    svc.carousel.stop()


def test_same_version_not_relaunched():
    sim, svc = build_world()
    stb = make_stb(sim, svc)
    ait = ApplicationInformationTable().with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.AUTOSTART,
        carousel_path="pna.bin"))
    svc.publish_ait(ait)
    sim.run(until=30.0)
    # Republishing the same entry (new table, same entry version): no-op.
    svc.publish_ait(ApplicationInformationTable(
        entries=ait.entries, table_version=ait.table_version + 1))
    sim.run(until=60.0)
    assert stb.app_manager.apps_launched == 1
    svc.carousel.stop()


def test_new_entry_version_replaces_running_app():
    sim, svc = build_world()
    stb = make_stb(sim, svc)
    ait = ApplicationInformationTable().with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.AUTOSTART,
        carousel_path="pna.bin"))
    svc.publish_ait(ait)
    sim.run(until=30.0)
    old = stb.app_manager.running_xlet(1)
    svc.publish_ait(ait.with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.AUTOSTART,
        carousel_path="pna.bin", version=2)))
    sim.run(until=60.0)
    new = stb.app_manager.running_xlet(1)
    assert old.destroyed and new is not old
    assert new.state is XletState.STARTED
    assert stb.app_manager.apps_launched == 2
    svc.carousel.stop()


def test_power_off_kills_apps_and_downs_channel():
    sim, svc = build_world()
    stb = make_stb(sim, svc)
    svc.publish_ait(ApplicationInformationTable().with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.AUTOSTART,
        carousel_path="pna.bin")))
    sim.run(until=30.0)
    assert stb.app_manager.running_count == 1
    stb.set_mode(PowerMode.OFF)
    assert stb.app_manager.running_count == 0
    assert not stb.direct_channel.up
    assert stb.tuned_carousel() is None
    svc.carousel.stop()


def test_power_cycle_relaunches_autostart_app():
    sim, svc = build_world()
    stb = make_stb(sim, svc)
    svc.publish_ait(ApplicationInformationTable().with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.AUTOSTART,
        carousel_path="pna.bin")))
    sim.run(until=30.0)
    stb.set_mode(PowerMode.OFF)
    stb.set_mode(PowerMode.IN_USE)  # tuner remembers the service
    sim.run(until=90.0)
    assert stb.app_manager.running_count == 1
    assert stb.app_manager.apps_launched == 2
    svc.carousel.stop()


def test_off_receiver_misses_ait():
    sim, svc = build_world()
    stb = make_stb(sim, svc)
    stb.set_mode(PowerMode.OFF)
    svc.publish_ait(ApplicationInformationTable().with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.AUTOSTART,
        carousel_path="pna.bin")))
    sim.run(until=30.0)
    assert stb.app_manager.running_count == 0
    svc.carousel.stop()


def test_cannot_tune_while_off():
    sim, svc = build_world()
    ch = DuplexChannel(sim, rate_bps=150e3)
    stb = SetTopBox(sim, "s", direct_channel=ch, mode=PowerMode.OFF)
    with pytest.raises(TuningError):
        stb.tune(svc)
    svc.carousel.stop()


def test_compute_times_match_device_calibration():
    sim, svc = build_world()
    stb = make_stb(sim, svc, mode=PowerMode.IN_USE)
    ref = 10.0  # seconds on the reference PC
    in_use = stb.execution_time(ref)
    stb.set_mode(PowerMode.STANDBY)
    standby = stb.execution_time(ref)
    assert in_use / ref == pytest.approx(STB_IN_USE_OVER_PC)
    assert in_use / standby == pytest.approx(STB_IN_USE_OVER_STANDBY)
    svc.carousel.stop()


def test_compute_while_off_rejected():
    sim = Simulator()
    stb = SetTopBox(sim, "s", mode=PowerMode.OFF)
    with pytest.raises(ConfigurationError):
        stb.execution_time(1.0)


def test_compute_event_duration():
    sim = Simulator()
    stb = SetTopBox(sim, "s", profile=REFERENCE_PC, mode=PowerMode.IN_USE)
    ev = stb.compute(5.0)
    sim.run_until_event(ev)
    assert sim.now == pytest.approx(5.0)


def test_retune_kills_apps():
    sim, svc = build_world()
    stb = make_stb(sim, svc)
    svc.publish_ait(ApplicationInformationTable().with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.AUTOSTART,
        carousel_path="pna.bin")))
    sim.run(until=30.0)
    assert stb.app_manager.running_count == 1
    mux2 = Multiplex(sim, total_rate_bps=19e6)
    other = mux2.add_service("other", av_rate_bps=10e6,
                             data_rate_bps=1e6)
    stb.tune(other)
    assert stb.app_manager.running_count == 0
    assert stb.service is other
    svc.carousel.stop()
