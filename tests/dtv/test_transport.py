"""Unit tests for the transport multiplex and services."""

import pytest

from repro.carousel import CarouselFile
from repro.dtv import (
    AITEntry,
    ApplicationControlCode,
    ApplicationInformationTable,
    Multiplex,
)
from repro.errors import ConfigurationError, DTVError, TuningError
from repro.sim import Simulator


def make_mux(total=19e6):
    sim = Simulator(seed=0)
    return sim, Multiplex(sim, total_rate_bps=total)


def test_add_service_within_capacity():
    sim, mux = make_mux()
    svc = mux.add_service("tv1", av_rate_bps=10e6, data_rate_bps=1e6)
    assert svc.total_rate_bps == 11e6
    assert mux.allocated_rate_bps == 11e6
    assert mux.service(svc.service_id) is svc


def test_over_capacity_rejected():
    sim, mux = make_mux(total=5e6)
    mux.add_service("a", av_rate_bps=3e6, data_rate_bps=1e6)
    with pytest.raises(ConfigurationError):
        mux.add_service("b", av_rate_bps=1e6, data_rate_bps=0.5e6)


def test_unknown_service_raises():
    sim, mux = make_mux()
    with pytest.raises(TuningError):
        mux.service(42)


def test_service_validation():
    sim, mux = make_mux()
    with pytest.raises(ConfigurationError):
        mux.add_service("bad", av_rate_bps=1e6, data_rate_bps=0)


def test_mux_validation():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        Multiplex(sim, total_rate_bps=0)


def test_mount_carousel_once():
    sim, mux = make_mux()
    svc = mux.add_service("tv", av_rate_bps=10e6, data_rate_bps=1e6)
    files = [CarouselFile(name="image", size_bits=1e6)]
    carousel = svc.mount_carousel(files)
    assert svc.carousel is carousel
    with pytest.raises(DTVError):
        svc.mount_carousel(files)
    svc.unmount_carousel()
    assert svc.carousel is None
    with pytest.raises(DTVError):
        svc.unmount_carousel()


def test_ait_publish_and_attach_semantics():
    sim, mux = make_mux()
    svc = mux.add_service("tv", av_rate_bps=10e6, data_rate_bps=1e6)
    snapshots = []
    token = svc.attach(snapshots.append)
    # attach delivers the current (empty) AIT immediately
    assert len(snapshots) == 1 and snapshots[0].entries == ()

    ait = ApplicationInformationTable().with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.AUTOSTART,
        carousel_path="pna.bin"))
    svc.publish_ait(ait)
    assert len(snapshots) == 2
    assert svc.ait.table_version == 2
    assert svc.tuned_count == 1

    svc.detach(token)
    svc.publish_ait(ait.with_entry(AITEntry(
        app_id=2, name="x", control_code=ApplicationControlCode.PRESENT,
        carousel_path="x.bin")))
    assert len(snapshots) == 2  # detached: no more deliveries


def test_ait_version_must_advance():
    sim, mux = make_mux()
    svc = mux.add_service("tv", av_rate_bps=10e6, data_rate_bps=1e6)
    ait = ApplicationInformationTable().with_entry(AITEntry(
        app_id=1, name="pna", control_code=ApplicationControlCode.AUTOSTART,
        carousel_path="pna.bin"))
    svc.publish_ait(ait)
    with pytest.raises(DTVError):
        svc.publish_ait(ait)  # same version again
