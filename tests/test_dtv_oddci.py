"""Integration tests for OddCI-DTV: the full Section 4 stack.

AIT autostart -> PNA Xlet load from carousel -> config polling ->
wakeup -> image staging via carousel -> DVE task execution on STB
device models -> results at the Backend.
"""

import pytest

from repro.core.messages import PNAState
from repro.dtv.xlet import XletState
from repro.dtv_oddci import CONFIG_FILE, PNA_XLET_FILE, OddCIDTVSystem
from repro.errors import OddCIError
from repro.net.message import MEGABYTE, bits_from_bytes
from repro.workloads import ChurnModel, PowerMode, REFERENCE_PC, uniform_bag


def build(n=6, beta=1_000_000.0, **kwargs):
    system = OddCIDTVSystem(beta_bps=beta, maintenance_interval_s=100.0,
                            seed=13, pna_xlet_bits=bits_from_bytes(64 * 1024),
                            **kwargs)
    system.add_receivers(n, heartbeat_interval_s=50.0,
                         dve_poll_interval_s=10.0)
    return system


def test_carousel_carries_control_files():
    system = build(n=1)
    names = system.control_plane.carousel.file_names
    assert PNA_XLET_FILE in names
    assert CONFIG_FILE in names


def test_pna_xlets_autostart_on_all_receivers():
    system = build(n=5)
    system.sim.run(until=60.0)
    assert system.online_count() == 5
    for stb in system.boxes:
        xlet = stb.app_manager.running_xlet(777)
        assert xlet is not None
        assert xlet.state is XletState.STARTED


def test_full_job_cycle_over_dtv():
    system = build(n=6)
    system.sim.run(until=30.0)  # let Xlets start
    job = uniform_bag(18, image_bits=1 * MEGABYTE, input_bits=4096,
                      ref_seconds=2.0, result_bits=4096, name="dtv-job")
    submission = system.provider.submit_job(
        job, target_size=6, heartbeat_interval_s=50.0)
    report = system.provider.run_job_to_completion(submission, limit_s=1e7)
    assert report.n_tasks == 18
    # STB in use is 20.6x slower: 18 tasks / 6 nodes * 2 s * 20.6 ~ 124 s
    # of compute, plus carousel wakeup (~13 s for 1 MB at 1 Mbps incl.
    # overheads) and I/O.
    assert report.makespan > 120.0
    assert report.distinct_workers <= 6


def test_wakeup_latency_matches_carousel_model():
    """Time from submit to all-busy is on the order of 1.5 cycles."""
    system = build(n=4)
    system.sim.run(until=30.0)
    image_bits = 2 * MEGABYTE
    job = uniform_bag(100, image_bits=image_bits, ref_seconds=1000.0)
    t0 = system.sim.now
    system.provider.submit_job(job, target_size=4, heartbeat_interval_s=50.0)
    while system.busy_count() < 4 and system.sim.now < t0 + 500.0:
        system.sim.step()
    elapsed = system.sim.now - t0
    sched = system.control_plane.carousel.schedule_snapshot(0.0)
    cycle = sched.cycle_time
    # All four must be busy within ~2.5 cycles of the new (larger) carousel.
    assert system.busy_count() == 4
    assert elapsed < 2.5 * cycle + 25.0


def test_stb_standby_executes_faster_than_in_use():
    def run_one(in_use_fraction):
        system = OddCIDTVSystem(beta_bps=4_000_000.0, seed=17,
                                maintenance_interval_s=100.0,
                                pna_xlet_bits=bits_from_bytes(64 * 1024))
        system.add_receivers(3, in_use_fraction=in_use_fraction,
                             heartbeat_interval_s=50.0,
                             dve_poll_interval_s=5.0)
        system.sim.run(until=10.0)
        job = uniform_bag(9, image_bits=MEGABYTE, ref_seconds=10.0,
                          name=f"mode-job-{in_use_fraction}")
        submission = system.provider.submit_job(job, target_size=3,
                                                heartbeat_interval_s=50.0)
        return system.provider.run_job_to_completion(
            submission, limit_s=1e7).makespan

    in_use = run_one(1.0)
    standby = run_one(0.0)
    assert standby < in_use
    # Compute dominates; ratio should approach 1.65.
    assert in_use / standby == pytest.approx(1.65, rel=0.25)


def test_powered_off_receivers_do_not_join():
    system = build(n=6)
    system.sim.run(until=30.0)
    for stb in system.boxes[:3]:
        stb.set_mode(PowerMode.OFF)
    job = uniform_bag(50, image_bits=MEGABYTE, ref_seconds=500.0)
    system.provider.submit_job(job, target_size=6, heartbeat_interval_s=50.0)
    system.sim.run(until=300.0)
    assert system.busy_count() == 3


def test_churned_receiver_relaunches_xlet_and_rejoins():
    system = OddCIDTVSystem(beta_bps=2_000_000.0, seed=19,
                            maintenance_interval_s=60.0,
                            pna_xlet_bits=bits_from_bytes(64 * 1024))
    system.add_receivers(4, heartbeat_interval_s=30.0,
                         dve_poll_interval_s=10.0)
    system.sim.run(until=30.0)
    assert system.online_count() == 4
    stb = system.boxes[0]
    stb.set_mode(PowerMode.OFF)
    system.sim.run(until=60.0)
    assert system.online_count() == 3
    stb.set_mode(PowerMode.IN_USE)
    system.sim.run(until=200.0)
    assert system.online_count() == 4  # Xlet reloaded from carousel
    assert stb.app_manager.apps_launched >= 2


def test_reset_removes_image_from_carousel():
    system = build(n=3)
    system.sim.run(until=30.0)
    job = uniform_bag(500, image_bits=MEGABYTE, ref_seconds=1000.0,
                      name="imagejob")
    submission = system.provider.submit_job(job, target_size=3,
                                            heartbeat_interval_s=50.0,
                                            release_on_completion=False)
    system.sim.run(until=200.0)
    assert submission.job.name in system.control_plane.carousel.file_names
    system.provider.release(submission.instance_id)
    system.sim.run(until=400.0)
    assert submission.job.name not in \
        system.control_plane.carousel.file_names
    assert system.busy_count() == 0


def test_image_name_collision_rejected():
    from repro.core import WakeupPayload, sign_control

    system = build(n=1)
    payload = WakeupPayload(instance_id="i", image_name=CONFIG_FILE,
                            image_bits=1e5, probability=1.0)
    with pytest.raises(OddCIError):
        system.control_plane.publish_wakeup(
            payload, sign_control(system.controller.key, payload))


def test_unknown_stb_factory_rejected():
    system = build(n=1)
    from repro.dtv.receiver import SetTopBox

    ghost = SetTopBox(system.sim, "ghost")
    with pytest.raises(OddCIError):
        system._make_xlet(system.sim, ghost)


def test_heartbeats_flow_from_dtv_pnas():
    system = build(n=3)
    system.sim.run(until=300.0)
    assert system.controller.counters["heartbeats"] > 0
    assert system.controller.census.registry_size() == 3


def test_config_poll_error_propagates_out_of_run():
    """An error in the Xlet's config poll surfaces: a signed control
    payload of unknown type raises out of ``sim.run`` instead of
    silently ending that receiver's polling for good."""
    from repro.carousel.objects import CarouselFile
    from repro.core.messages import sign_control

    class UnknownPayload:
        def signable_fields(self):
            return {"type": "unknown"}

    system = build(n=1)
    system.sim.run(until=60.0)
    assert system.online_count() == 1
    payload = UnknownPayload()
    carousel = system.control_plane.carousel
    config = carousel._files[CONFIG_FILE]
    carousel.replace_file(CarouselFile(
        name=CONFIG_FILE, size_bits=config.size_bits,
        version=config.version + 1,
        metadata={"control": (payload,
                              sign_control(system.controller.key, payload))}))
    with pytest.raises(OddCIError, match="unknown control payload"):
        system.sim.run(until=120.0)
