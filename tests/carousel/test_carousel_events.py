"""Event-driven carousel tests, incl. cross-validation vs the schedule."""

import numpy as np
import pytest

from repro.carousel import (
    CarouselFile,
    CarouselSchedule,
    ObjectCarousel,
    SectionFormat,
)
from repro.errors import CarouselError, FileNotInCarouselError
from repro.net import DEFAULT_HEADER_BITS, BroadcastChannel
from repro.sim import Simulator
from tests.carousel.updates import update_file

RAW = SectionFormat(block_payload_bytes=10**9, section_overhead_bytes=0,
                    control_overhead_bytes=DEFAULT_HEADER_BITS // 8)
# control_overhead equals one message header so the event carousel's
# control message has zero extra payload: wire timing matches the schedule.


def build(beta=1000.0, sizes=(2000.0, 6000.0, 2000.0)):
    sim = Simulator(seed=1)
    channel = BroadcastChannel(sim, beta_bps=beta)
    files = [
        CarouselFile(name="pna", size_bits=sizes[0] - DEFAULT_HEADER_BITS),
        CarouselFile(name="image", size_bits=sizes[1] - DEFAULT_HEADER_BITS),
        CarouselFile(name="config", size_bits=sizes[2] - DEFAULT_HEADER_BITS),
    ]
    carousel = ObjectCarousel(sim, channel, files, section_format=RAW)
    return sim, channel, carousel, files


def test_empty_carousel_rejected():
    sim = Simulator()
    ch = BroadcastChannel(sim, beta_bps=1.0)
    with pytest.raises(CarouselError):
        ObjectCarousel(sim, ch, [])


def test_duplicate_files_rejected():
    sim = Simulator()
    ch = BroadcastChannel(sim, beta_bps=1.0)
    f = CarouselFile(name="a", size_bits=1.0)
    with pytest.raises(CarouselError):
        ObjectCarousel(sim, ch, [f, f])


def test_read_unknown_file_raises():
    sim, _, carousel, _ = build()
    with pytest.raises(FileNotInCarouselError):
        carousel.read("ghost")


def test_read_completes_with_file_value():
    sim, _, carousel, files = build()
    ev = carousel.read("image")
    got = sim.run_until_event(ev, limit=100.0)
    assert got.name == "image"
    assert got.version == 1
    carousel.stop()


def test_cyclic_retransmission_counts_cycles():
    sim, _, carousel, _ = build(beta=10_000.0)
    # one cycle = (control 512 + files 2000+6000+2000 wire bits) / 10 kbps
    # ~= 1.05 s
    sim.run(until=10.0)
    assert carousel.cycles_completed >= 2
    carousel.stop()
    sim.run(until=20.0)
    cycles = carousel.cycles_completed
    sim_after = carousel.cycles_completed
    assert sim_after == cycles  # stopped: no more cycles


def test_event_carousel_matches_analytic_schedule():
    """Reads issued at varied times complete exactly when the analytic
    schedule predicts (dedicated channel)."""
    sim, channel, carousel, files = build(beta=1000.0)
    sched = carousel.schedule_snapshot(origin_time=0.0)
    request_times = [0.0, 0.3, 0.9, 1.7, 2.5, 3.3]
    completions = {}

    def request(name, t):
        def fire():
            ev = carousel.read(name)
            ev.add_callback(
                lambda e: completions.__setitem__((name, t), sim.now))
        sim.schedule_at(t, fire)

    for t in request_times:
        request("image", t)
        request("config", t)
    sim.run(until=30.0)
    carousel.stop()
    for (name, t), actual in completions.items():
        predicted = sched.completion_time(name, t)
        assert actual == pytest.approx(predicted, abs=1e-9), (name, t)
    assert len(completions) == 2 * len(request_times)


def test_update_file_applies_next_cycle_and_bumps_version():
    sim, _, carousel, _ = build()
    first = carousel.read("image")
    sim.run_until_event(first, limit=100.0)
    update_file(carousel, "image")
    # A read issued now gets the *new* version once the next cycle starts.
    second = carousel.read("image")
    got = sim.run_until_event(second, limit=100.0)
    assert got.version == 2
    assert carousel.current_file("image").version == 2
    carousel.stop()


def test_update_unknown_file_raises():
    sim, _, carousel, _ = build()
    with pytest.raises(FileNotInCarouselError):
        update_file(carousel, "ghost")


def test_add_and_remove_file():
    sim, _, carousel, _ = build()
    extra = CarouselFile(name="extra", size_bits=100.0)
    carousel.add_file(extra)
    with pytest.raises(CarouselError):
        carousel.add_file(extra)
    ev = carousel.read("extra")
    got = sim.run_until_event(ev, limit=100.0)
    assert got.name == "extra"
    carousel.remove_file("extra")
    sim.run(until=sim.now + 10.0)
    assert "extra" not in carousel.file_names
    with pytest.raises(FileNotInCarouselError):
        carousel.remove_file("never-there")
    carousel.stop()


def test_update_grows_cycle_time():
    sim, _, carousel, _ = build()
    sched_before = carousel.schedule_snapshot(0.0)
    update_file(carousel, "image", new_size_bits=50_000.0)
    sim.run(until=20.0)
    sched_after = carousel.schedule_snapshot(0.0)
    assert sched_after.cycle_time > sched_before.cycle_time
    carousel.stop()


def test_wakeup_latency_mean_approaches_1_5_cycles_single_file():
    """Event-driven single-file carousel: empirical mean read latency over
    uniform request phases ~ 1.5 cycles (paper Section 5.1)."""
    sim = Simulator(seed=3)
    channel = BroadcastChannel(sim, beta_bps=1000.0)
    image = CarouselFile(name="image", size_bits=10_000.0 - DEFAULT_HEADER_BITS)
    carousel = ObjectCarousel(sim, channel, [image], section_format=RAW)
    sched = carousel.schedule_snapshot(0.0)
    cycle = sched.cycle_time
    rng = np.random.default_rng(0)
    latencies = []
    for t in rng.uniform(0.0, 5 * cycle, size=120):
        def fire(t=t):
            ev = carousel.read("image")
            ev.add_callback(lambda e, t=t: latencies.append(sim.now - t))
        sim.schedule_at(float(t), fire)
    sim.run(until=20 * cycle)
    carousel.stop()
    assert len(latencies) == 120
    mean = float(np.mean(latencies))
    image_airtime = sched.window("image")[1]
    # image airtime dominates the cycle; expect ~ cycle/2 + airtime
    expected = cycle / 2 + image_airtime
    assert mean == pytest.approx(expected, rel=0.15)
