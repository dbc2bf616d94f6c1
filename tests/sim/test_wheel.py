"""TimerWheel: shared slotted timers (one calendar entry per tick)."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import Simulator, TimerWheel


def test_interval_validation():
    sim = Simulator()
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ConfigurationError):
            TimerWheel(sim, bad)


def test_single_subscriber_ticks_on_timetable():
    sim = Simulator()
    wheel = TimerWheel(sim, 2.5)
    times = []
    wheel.subscribe(times.append)
    sim.run(until=10.1)
    assert times == [2.5, 5.0, 7.5, 10.0]
    assert wheel.ticks == 4


def test_one_calendar_entry_per_tick_for_many_subscribers():
    sim = Simulator()
    wheel = TimerWheel(sim, 1.0)
    fired = [0]

    def on_tick(_t, fired=fired):
        fired[0] += 1

    for _ in range(1000):
        wheel.subscribe(on_tick)
    # 1000 subscribers share ONE pending entry.
    assert sim.queued_events == 1
    sim.run(until=3.5)
    assert fired[0] == 3 * 1000
    assert sim.queued_events == 1  # the next tick, already armed


def test_subscribers_fire_in_subscription_order():
    sim = Simulator()
    wheel = TimerWheel(sim, 1.0)
    order = []
    wheel.subscribe(lambda t: order.append("a"))
    wheel.subscribe(lambda t: order.append("b"))
    wheel.subscribe(lambda t: order.append("c"))
    sim.run(until=1.0)
    assert order == ["a", "b", "c"]


def test_lazy_disarm_and_rearm_resets_origin():
    sim = Simulator()
    wheel = TimerWheel(sim, 1.0)
    times = []
    token = wheel.subscribe(times.append)
    sim.run(until=2.0)
    assert times == [1.0, 2.0]
    wheel.unsubscribe(token)
    sim.run(until=5.25)  # in-flight tick at t=3 finds nobody and disarms
    assert times == [1.0, 2.0]
    assert not wheel.armed
    wheel.subscribe(times.append)  # re-arm: origin = now (5.25)
    sim.run(until=8.0)
    assert times == [1.0, 2.0, 6.25, 7.25]


def test_timetable_is_drift_free():
    sim = Simulator()
    wheel = TimerWheel(sim, 0.1)  # 0.1 accumulates float error if summed
    times = []
    wheel.subscribe(times.append)
    sim.run(until=1000.0)
    # Tick k must be exactly origin + k * interval, not a running sum.
    assert len(times) == 10000
    assert times[-1] == 10000 * 0.1
    assert times[4999] == 5000 * 0.1


def test_unsubscribe_is_idempotent_and_scoped():
    sim = Simulator()
    wheel = TimerWheel(sim, 1.0)
    a, b = [], []
    ta = wheel.subscribe(a.append)
    wheel.subscribe(b.append)
    wheel.unsubscribe(ta)
    wheel.unsubscribe(ta)
    sim.run(until=2.0)
    assert a == [] and b == [1.0, 2.0]
