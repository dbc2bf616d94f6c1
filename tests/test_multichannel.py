"""Tests for multi-channel OddCI-DTV (Section 4.3 scale-out)."""

import pytest

from repro.certify import CertifyPolicy
from repro.dtv_oddci import FanoutControlPlane, OddCIDTVSystem
from repro.errors import ConfigurationError
from repro.net.message import MEGABYTE, bits_from_bytes
from repro.workloads import ChurnModel, uniform_bag


def build(channels=3, n_receivers=9, **kwargs):
    system = OddCIDTVSystem(
        channels=channels, seed=31, maintenance_interval_s=100.0,
        pna_xlet_bits=bits_from_bytes(64 * 1024))
    system.add_receivers(n_receivers, heartbeat_interval_s=50.0,
                         dve_poll_interval_s=10.0, **kwargs)
    return system


def audience_per_channel(system):
    return [sum(1 for stb in system.boxes if stb.service is service)
            for service in system.services]


def test_invalid_construction():
    with pytest.raises(ConfigurationError):
        OddCIDTVSystem(channels=0)
    with pytest.raises(ConfigurationError):
        FanoutControlPlane([])


def test_one_channel_keeps_the_single_channel_names():
    system = OddCIDTVSystem(seed=5)
    assert [s.name for s in system.services] == ["oddci-dtv"]
    assert system.control_plane.planes == system.planes
    assert system.control_plane.carousel is system.planes[0].carousel
    names = [s.name for s in OddCIDTVSystem(channels=3, seed=5).services]
    assert names == ["oddci-dtv", "oddci-dtv-1", "oddci-dtv-2"]


def test_receivers_distributed_over_channels():
    system = build(channels=3, n_receivers=60)
    assert audience_per_channel(system) == [20, 20, 20]
    assert [s.tuned_count for s in system.services] == [20, 20, 20]


def test_channel_weights_respected():
    system = OddCIDTVSystem(
        channels=2, seed=5, maintenance_interval_s=100.0,
        pna_xlet_bits=bits_from_bytes(64 * 1024))
    system.add_receivers(200, channel_weights=[9.0, 1.0],
                         heartbeat_interval_s=50.0)
    assert audience_per_channel(system) == [180, 20]


def test_largest_remainder_split_per_call():
    system = OddCIDTVSystem(channels=3, seed=5)
    # 10 at 1:1:1 -> quotas 3.33 each; the spare box goes to channel 0.
    system.add_receivers(10)
    assert audience_per_channel(system) == [4, 3, 3]
    # 7 at 5:3:0 -> quotas 4.375 / 2.625 / 0: remainders .375 < .625.
    system.add_receivers(7, channel_weights=[5.0, 3.0, 0.0])
    assert audience_per_channel(system) == [8, 6, 3]


def test_bad_channel_weights_rejected():
    system = OddCIDTVSystem(channels=2, seed=5)
    with pytest.raises(ConfigurationError):
        system.add_receivers(10, channel_weights=[1.0])
    with pytest.raises(ConfigurationError):
        system.add_receivers(10, channel_weights=[0.0, 0.0])
    with pytest.raises(ConfigurationError):
        system.add_receivers(0)


def test_xlets_autostart_on_every_channel():
    system = build(channels=3, n_receivers=9)
    system.sim.run(until=60.0)
    assert system.online_count() == 9


def test_wakeup_reaches_union_of_audiences():
    """One wakeup recruits receivers across all channels — the paper's
    multi-channel scale-out."""
    system = build(channels=3, n_receivers=12)
    system.sim.run(until=60.0)
    job = uniform_bag(2000, image_bits=MEGABYTE, ref_seconds=200.0)
    system.provider.submit_job(job, target_size=12,
                               heartbeat_interval_s=50.0)
    system.sim.run(until=400.0)
    assert system.busy_count() == 12
    # Busy receivers span more than one channel.
    busy_channels = set()
    for stb, pna in zip(system.boxes, system.pnas):
        if pna.online and pna.instance_id is not None:
            busy_channels.add(system.services.index(stb.service))
    assert len(busy_channels) >= 2


def test_job_completes_across_channels():
    system = build(channels=2, n_receivers=6)
    system.sim.run(until=60.0)
    job = uniform_bag(12, image_bits=MEGABYTE, ref_seconds=2.0)
    submission = system.provider.submit_job(job, target_size=6,
                                            heartbeat_interval_s=50.0)
    report = system.provider.run_job_to_completion(submission, limit_s=1e7)
    assert report.n_tasks == 12
    assert report.distinct_workers >= 4


def test_reset_dismantles_on_all_channels():
    system = build(channels=2, n_receivers=6)
    system.sim.run(until=60.0)
    job = uniform_bag(5000, image_bits=MEGABYTE, ref_seconds=500.0,
                      name="mc-image")
    submission = system.provider.submit_job(job, target_size=6,
                                            heartbeat_interval_s=50.0,
                                            release_on_completion=False)
    system.sim.run(until=400.0)
    assert system.busy_count() == 6
    system.provider.release(submission.instance_id)
    system.sim.run(until=800.0)
    assert system.busy_count() == 0
    for plane in system.planes:
        assert "mc-image" not in plane.carousel.file_names


def test_churning_channels_certify_a_bag():
    """Churn and certification on a 3-channel deployment: boxes on every
    channel power-cycle, reload the Xlet from their own carousel, and
    the bag is still certified in full."""
    churn = ChurnModel(mean_on_s=600.0, mean_off_s=120.0,
                       initial_on_probability=1.0)
    system = build(channels=3, n_receivers=12, churn=churn)
    system.sim.run(until=60.0)
    job = uniform_bag(36, image_bits=MEGABYTE, ref_seconds=20.0)
    submission = system.provider.submit_job(
        job, target_size=9, heartbeat_interval_s=50.0, lease_factor=0.5,
        certify_policy=CertifyPolicy(mode="static", r=2))
    powered = []
    while not submission.backend.done:
        system.sim.run(until=system.sim.now + 60.0)
        powered.append(sum(1 for stb in system.boxes if stb.powered))
    certifier = submission.backend.certifier
    assert min(powered) < 12  # the fleet churned during the job
    assert certifier.tasks_certified == 36
    assert certifier.copies_issued >= 72
    assert certifier.escaped_errors == 0
    # Workers came from every channel.
    workers = submission.backend.workers
    assert {system.services.index(stb.service) for stb in system.boxes
            if stb.stb_id in workers} == {0, 1, 2}
