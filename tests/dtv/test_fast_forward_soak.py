"""Soak test for carousel fast-forward as the DTV default.

``OddCIDTVSystem`` now mounts its carousel with ``fast_forward=True``.
That optimisation must be *invisible*: every simulation output — job
report, census, event-level counters, experiment records — has to be
bit-identical with the flag on and off.  These tests gate the default.
"""

from repro.carousel import ObjectCarousel
from repro.carousel.objects import CarouselFile
from repro.dtv_oddci import OddCIDTVSystem
from repro.experiments.ablations import point_plane_comparison
from repro.net.broadcast import BroadcastChannel
from repro.net.message import MEGABYTE, bits_from_bytes
from repro.sim.core import Simulator
from repro.workloads import uniform_bag


def test_dtv_defaults_to_fast_forward():
    system = OddCIDTVSystem(beta_bps=1_000_000.0, seed=13,
                            pna_xlet_bits=bits_from_bytes(64 * 1024))
    assert system.control_plane.carousel.fast_forward is True


def test_raw_carousel_still_defaults_off():
    # The low-level primitive keeps the conservative default; only the
    # DTV system (whose workloads are soak-tested here) opts in.
    sim = Simulator()
    channel = BroadcastChannel(sim, 1e6)
    carousel = ObjectCarousel(sim, channel,
                              [CarouselFile("f", size_bits=8e6)])
    assert carousel.fast_forward is False


def _run_dtv_job(fast_forward: bool):
    system = OddCIDTVSystem(beta_bps=4_000_000.0, seed=23,
                            maintenance_interval_s=100.0,
                            pna_xlet_bits=bits_from_bytes(64 * 1024),
                            carousel_fast_forward=fast_forward)
    system.add_receivers(3, heartbeat_interval_s=50.0,
                         dve_poll_interval_s=5.0)
    system.sim.run(until=10.0)
    job = uniform_bag(9, image_bits=MEGABYTE, ref_seconds=8.0,
                      name="soak-job")
    submission = system.provider.submit_job(job, target_size=3,
                                            heartbeat_interval_s=50.0)
    report = system.provider.run_job_to_completion(submission, limit_s=1e6)
    system.sim.run(until=system.sim.now + 60.0)
    outputs = {
        "makespan": report.makespan,
        "completed_at": report.completed_at,
        "tasks_assigned": report.tasks_assigned,
        "distinct_workers": report.distinct_workers,
        "online": system.online_count(),
        "cycles": system.control_plane.carousel.cycles_completed,
        "sim_now": system.sim.now,
    }
    return outputs, system.sim.events_executed


def test_dtv_job_outputs_bit_identical_with_and_without_fast_forward():
    # Only semantic outputs must match; the event count legitimately
    # differs (park/wake bookkeeping vs. idle-cycle transmissions —
    # the idle-fleet event saving is asserted in
    # tests/carousel/test_fast_forward.py).
    on, _events_on = _run_dtv_job(True)
    off, _events_off = _run_dtv_job(False)
    assert on == off  # exact float equality, field by field


def test_plane_comparison_records_bit_identical():
    # fast_forward is not a registered a6 parameter: points called directly.
    kwargs = dict(seed=29, n_nodes=4)
    on = [point_plane_comparison(image_mb, fast_forward=True, **kwargs)
          for image_mb in (1.0, 4.0)]
    off = [point_plane_comparison(image_mb, fast_forward=False, **kwargs)
           for image_mb in (1.0, 4.0)]
    assert on == off
