"""Unit tests for the DES kernel: clock, calendar, events, combinators."""

import math

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import (
    Event,
    Simulator,
    PRIORITY_LATE,
    PRIORITY_URGENT,
)


def test_clock_starts_at_start_time():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_invalid_start_time_rejected():
    with pytest.raises(SchedulingError):
        Simulator(start_time=math.inf)


def test_schedule_and_run_executes_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule_at(sim.now + 3.0, log.append, "c")
    sim.schedule_at(sim.now + 1.0, log.append, "a")
    sim.schedule_at(sim.now + 2.0, log.append, "b")
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fifo_order():
    sim = Simulator()
    log = []
    for tag in "abcde":
        sim.schedule_at(sim.now + 1.0, log.append, tag)
    sim.run()
    assert log == list("abcde")


def test_priority_breaks_ties():
    sim = Simulator()
    log = []
    sim.schedule_at(sim.now + 1.0, log.append, "late", priority=PRIORITY_LATE)
    sim.schedule_at(sim.now + 1.0, log.append, "normal")
    sim.schedule_at(sim.now + 1.0, log.append, "urgent",
                    priority=PRIORITY_URGENT)
    sim.run()
    assert log == ["urgent", "normal", "late"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule_at(sim.now - 1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule_at(sim.now + 5.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(1.0, lambda: None)


def test_non_callable_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.schedule_at(sim.now + 1.0, "not callable")


def test_cancel_prevents_execution():
    sim = Simulator()
    log = []
    handle = sim.schedule_at(sim.now + 1.0, log.append, "x")
    handle.cancel()
    sim.run()
    assert log == []
    assert handle.cancelled and not handle.executed


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule_at(sim.now + 1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_run_until_stops_before_later_events():
    sim = Simulator()
    log = []
    sim.schedule_at(sim.now + 1.0, log.append, "a")
    sim.schedule_at(sim.now + 10.0, log.append, "b")
    sim.run(until=5.0)
    assert log == ["a"]
    assert sim.now == 5.0  # clock advanced to the limit
    sim.run()
    assert log == ["a", "b"]


def test_run_until_in_past_rejected():
    sim = Simulator()
    sim.schedule_at(sim.now + 2.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.run(until=1.0)


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule_at(sim.now + 1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 7


def test_nested_scheduling_from_callback():
    sim = Simulator()
    log = []

    def outer():
        log.append(("outer", sim.now))
        sim.schedule_at(sim.now + 2.0, inner)

    def inner():
        log.append(("inner", sim.now))

    sim.schedule_at(sim.now + 1.0, outer)
    sim.run()
    assert log == [("outer", 1.0), ("inner", 3.0)]


def test_stop_halts_run():
    sim = Simulator()
    log = []
    sim.schedule_at(sim.now + 1.0, log.append, "a")
    sim.schedule_at(sim.now + 2.0, sim.stop)
    sim.schedule_at(sim.now + 3.0, log.append, "b")
    sim.run()
    assert log == ["a"]
    sim.run()
    assert log == ["a", "b"]


def test_step_returns_false_on_empty_calendar():
    sim = Simulator()
    assert sim.step() is False


def test_trace_hook_called():
    seen = []
    sim = Simulator(trace=lambda t, cb, args: seen.append(t))
    sim.schedule_at(sim.now + 1.5, lambda: None)
    sim.run()
    assert seen == [1.5]


# -- Event -----------------------------------------------------------------

def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event("e")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    sim.run()
    assert got == [42]
    assert ev.triggered and ev.ok and ev.value == 42


def test_event_fail_delivers_exception():
    sim = Simulator()
    ev = sim.event("e")
    got = []
    ev.add_callback(lambda e: got.append((e.ok, e.value)))
    err = RuntimeError("boom")
    ev.fail(err)
    sim.run()
    assert got == [(False, err)]


def test_event_double_settle_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_event_value_before_settle_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_callback_on_settled_event_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["v"]


def test_timeout_event():
    sim = Simulator()
    ev = sim.timeout(4.0, value="done")
    sim.run()
    assert ev.triggered and ev.value == "done"
    assert sim.now == 4.0


def test_run_until_event():
    sim = Simulator()
    ev = sim.timeout(2.0, value=7)
    sim.schedule_at(sim.now + 100.0, lambda: None)
    value = sim.run_until_event(ev)
    assert value == 7
    assert sim.now == 2.0


def test_run_until_event_propagates_failure():
    sim = Simulator()
    ev = sim.event()
    sim.schedule_at(sim.now + 1.0, ev.fail, ValueError("bad"))
    with pytest.raises(ValueError):
        sim.run_until_event(ev)


def test_run_until_event_drained_calendar_raises():
    sim = Simulator()
    ev = sim.event()  # never settled
    with pytest.raises(SimulationError):
        sim.run_until_event(ev)


def test_run_until_event_time_limit():
    sim = Simulator()
    ev = sim.event()
    sim.schedule_at(sim.now + 100.0, ev.succeed)
    with pytest.raises(SimulationError):
        sim.run_until_event(ev, limit=10.0)


# -- determinism -------------------------------------------------------------

def test_identical_seeds_identical_streams():
    a = Simulator(seed=123)
    b = Simulator(seed=123)
    assert a.rng("x").random(5).tolist() == b.rng("x").random(5).tolist()


def test_distinct_streams_differ():
    sim = Simulator(seed=123)
    assert sim.rng("x").random(5).tolist() != sim.rng("y").random(5).tolist()


def test_stream_is_cached():
    sim = Simulator(seed=1)
    assert sim.rng("a") is sim.rng("a")
