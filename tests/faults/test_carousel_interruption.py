"""Carousel interruption: gaps on the cycle grid, PNA re-join, and the
acceptance-criteria 'blackout' plan on the DTV system."""

import pytest

from repro.dtv_oddci import OddCIDTVSystem
from repro.errors import CarouselError
from repro.faults import active_plan, parse_fault_plan
from repro.workloads import uniform_bag


def dtv_system(plan=None, seed=0, receivers=8):
    with active_plan(plan):
        system = OddCIDTVSystem(seed=seed, maintenance_interval_s=20.0,
                                beta_bps=1_000_000.0)
    system.add_receivers(receivers, heartbeat_interval_s=10.0,
                         dve_poll_interval_s=5.0)
    system.sim.run(until=30.0)  # Xlets autostart
    return system


def test_interrupt_for_validates():
    system = dtv_system()
    carousel = system.control_plane.carousel
    with pytest.raises(CarouselError):
        carousel.interrupt_for(0)
    with pytest.raises(CarouselError):
        carousel.interrupt_for(-3)


def test_interrupted_carousel_skips_cycles_then_resumes():
    plan = parse_fault_plan("carousel_interrupt@40,mag=3")
    system = dtv_system(plan=plan)
    carousel = system.control_plane.carousel
    cycle = carousel._cycle_time
    system.sim.run(until=40.0 + 5 * cycle)
    assert carousel._cycles_skipped == 3
    assert system.fault_injector.fired == [(40.0, "carousel_interrupt")]
    # Transmission resumed: the cycle counter keeps growing after the gap.
    before = carousel.cycles_completed
    system.sim.run(until=system.sim.now + 3 * cycle)
    assert carousel.cycles_completed > before


def test_blackout_plan_completes_workload():
    """Acceptance criteria: controller crash + carousel interruption;
    the job still completes, nothing hangs, MTTR is recorded."""
    plan = parse_fault_plan("blackout")
    system = dtv_system(plan=plan, seed=2, receivers=10)
    job = uniform_bag(24, image_bits=2e6, ref_seconds=20.0)
    submission = system.provider.submit_job(
        job, target_size=6, heartbeat_interval_s=10.0, lease_factor=3.0)
    report = system.provider.run_job_to_completion(submission, limit_s=1e6)
    assert report.n_tasks == 24
    controller = system.controller
    assert controller.counters["crashes"] == 1
    assert controller.alive
    assert len(controller.mttr_history) >= 1
    kinds = [kind for _, kind in system.fault_injector.fired]
    assert kinds[:2] == ["controller_crash", "carousel_interrupt"]


def test_gap_stays_on_cycle_grid():
    """Post-gap transmissions land on the same cycle grid a
    never-interrupted carousel would use (byte-parity of reader
    wakeups)."""
    plain = dtv_system(seed=5)
    faulted = dtv_system(
        plan=parse_fault_plan("carousel_interrupt@40,mag=2"), seed=5)
    for system in (plain, faulted):
        system.sim.run(until=200.0)
    c_plain = plain.control_plane.carousel
    c_fault = faulted.control_plane.carousel
    assert c_fault._cycles_skipped == 2
    # Completed + skipped on the faulted side lines up with the plain
    # side's completed count: the grid itself never shifted.
    assert (c_fault.cycles_completed + c_fault._cycles_skipped
            == c_plain.cycles_completed)
