"""Carousel fast-forward: parked cycles are arithmetic, reads are exact.

The fast-forward carousel must be *observationally identical* to the
always-transmitting one: same read completion times (the analytic
schedule's predictions), same cycle counts, same update semantics — it
just stops burning calendar entries while nobody is listening.
"""

import pytest

from repro.carousel import CarouselFile, ObjectCarousel, SectionFormat
from repro.net import DEFAULT_HEADER_BITS, BroadcastChannel
from repro.sim import Simulator
from tests.carousel.updates import update_file

RAW = SectionFormat(block_payload_bytes=10**9, section_overhead_bytes=0,
                    control_overhead_bytes=DEFAULT_HEADER_BITS // 8)


def build(fast_forward, beta=1000.0, sizes=(2000.0, 6000.0, 2000.0)):
    sim = Simulator(seed=1)
    channel = BroadcastChannel(sim, beta_bps=beta)
    files = [
        CarouselFile(name="pna", size_bits=sizes[0] - DEFAULT_HEADER_BITS),
        CarouselFile(name="image", size_bits=sizes[1] - DEFAULT_HEADER_BITS),
        CarouselFile(name="config", size_bits=sizes[2] - DEFAULT_HEADER_BITS),
    ]
    carousel = ObjectCarousel(sim, channel, files, section_format=RAW,
                              fast_forward=fast_forward)
    return sim, channel, carousel


def test_parked_carousel_counts_cycles_arithmetically():
    sim, channel, carousel = build(fast_forward=True)
    cycle = carousel.schedule_snapshot(0.0).cycle_time
    sim.run(until=10.5 * cycle)
    assert carousel.cycles_completed == 10
    # ...without transmitting anything.
    assert channel.transmissions == 0
    carousel.stop()


def test_read_completions_match_analytic_schedule_exactly():
    """Reads at arbitrary phases complete at exactly the instants the
    analytic schedule predicts, as if the carousel had never parked."""
    results = {}
    for ff in (False, True):
        sim, _, carousel = build(fast_forward=ff)
        sched = carousel.schedule_snapshot(0.0)
        completions = {}

        def request(name, t, sim=sim, carousel=carousel,
                    completions=completions):
            def fire():
                ev = carousel.read(name)
                ev.add_callback(
                    lambda e: completions.__setitem__((name, t), sim.now))
            sim.schedule_at(t, fire)

        request_times = [0.0, 0.3, 7.9, 31.7, 32.5, 123.3]
        for t in request_times:
            request("image", t)
            request("config", t)
        sim.run(until=200.0)
        carousel.stop()
        assert len(completions) == 2 * len(request_times)
        for (name, t), actual in completions.items():
            predicted = sched.completion_time(name, t)
            assert actual == pytest.approx(predicted, abs=1e-9), (name, t, ff)
        results[ff] = completions
    assert results[False] == pytest.approx(results[True])


def test_fast_forward_uses_far_fewer_events():
    def run(ff):
        sim, channel, carousel = build(fast_forward=ff)
        sim.run(until=500.0)
        carousel.stop()
        return sim.events_executed, channel.transmissions

    busy_events, busy_tx = run(False)
    idle_events, idle_tx = run(True)
    assert busy_tx > 150  # ~47 cycles x 4 segments
    assert idle_tx == 0
    assert idle_events < busy_events / 50


def test_update_while_parked_applies_at_next_boundary():
    sim, _, carousel = build(fast_forward=True)
    cycle = carousel.schedule_snapshot(0.0).cycle_time

    def bump():
        update_file(carousel, "image", new_size_bits=50_000.0)
    sim.schedule_at(3.4 * cycle, bump)
    # Just before the boundary the old version is still being carried.
    sim.run(until=3.9 * cycle)
    assert carousel.current_file("image").version == 1
    sim.run(until=4.01 * cycle)
    assert carousel.current_file("image").version == 2
    assert carousel.cycles_completed == 4
    # Cycle arithmetic continues with the *new* (longer) cycle time.
    new_cycle = carousel.schedule_snapshot(0.0).cycle_time
    assert new_cycle > cycle
    sim.run(until=4.0 * cycle + 2.5 * new_cycle)
    assert carousel.cycles_completed == 6
    carousel.stop()


def test_read_after_update_sees_new_version():
    sim, _, carousel = build(fast_forward=True)
    cycle = carousel.schedule_snapshot(0.0).cycle_time
    got = []

    def bump():
        update_file(carousel, "image")

    def request():
        carousel.read("image").add_callback(lambda e: got.append(e.value))

    sim.schedule_at(1.5 * cycle, bump)
    sim.schedule_at(5.0 * cycle, request)
    sim.run(until=20 * cycle)
    carousel.stop()
    assert len(got) == 1 and got[0].version == 2


def test_stop_while_parked_materializes_cycles():
    sim, _, carousel = build(fast_forward=True)
    cycle = carousel.schedule_snapshot(0.0).cycle_time

    def halt():
        carousel.stop()
    sim.schedule_at(7.2 * cycle, halt)
    sim.run(until=50 * cycle)
    assert carousel.cycles_completed == 7


def test_mid_window_wake_keeps_cycle_grid():
    """A read that lands *inside* the last file's window must wait for
    the next on-grid cycle, exactly as the always-on carousel would —
    the wake must not start a fresh cycle at the request instant.

    (Single-file carousel: the file's window spans almost the whole
    cycle, so every trailing replay window is skipped on wake.)
    """
    completions = {}
    for ff in (False, True):
        sim = Simulator(seed=1)
        channel = BroadcastChannel(sim, beta_bps=1000.0)
        carousel = ObjectCarousel(
            sim, channel,
            [CarouselFile(name="only", size_bits=9000.0)],
            section_format=RAW, fast_forward=ff)
        cycle = carousel.schedule_snapshot(0.0).cycle_time
        done = []

        def request(sim=sim, carousel=carousel, done=done):
            carousel.read("only").add_callback(lambda e: done.append(sim.now))

        # 40% into cycle 12: well inside the (skipped) file window.
        sim.schedule_at(12.4 * cycle, request)
        sim.run(until=20 * cycle)
        carousel.stop()
        assert len(done) == 1
        completions[ff] = (done[0], carousel.cycles_completed)
    assert completions[True][0] == pytest.approx(completions[False][0],
                                                 abs=1e-9)
    assert completions[True][1] == completions[False][1]
