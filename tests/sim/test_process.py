"""Unit tests for generator-based processes."""

import pytest

from repro.errors import ProcessError
from repro.sim import Interrupt, Simulator


def test_process_sleeps_with_numeric_yield():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield 2.5
        trace.append(sim.now)
        yield 1.5
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == [0.0, 2.5, 4.0]


def test_process_requires_generator():
    sim = Simulator()

    def not_a_generator():
        return 42

    with pytest.raises(ProcessError):
        sim.process(not_a_generator)  # function object, not generator


def test_process_return_value_settles_event():
    sim = Simulator()

    def proc():
        yield 1.0
        return "result"

    p = sim.process(proc())
    assert sim.run_until_event(p) == "result"


def test_process_exception_fails_event():
    sim = Simulator()

    def proc():
        yield 1.0
        raise ValueError("inside")

    p = sim.process(proc())
    with pytest.raises(ValueError):
        sim.run_until_event(p)


def test_process_waits_on_event_and_receives_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def proc():
        value = yield ev
        got.append((sim.now, value))

    sim.process(proc())
    sim.schedule(3.0, ev.succeed, "payload")
    sim.run()
    assert got == [(3.0, "payload")]


def test_failed_event_raises_inside_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def proc():
        try:
            yield ev
        except KeyError as exc:
            caught.append(str(exc))

    sim.process(proc())
    sim.schedule(1.0, ev.fail, KeyError("deliberate"))
    sim.run()
    assert caught == ["'deliberate'"]


def test_process_joins_another_process():
    sim = Simulator()
    order = []

    def child():
        yield 5.0
        order.append(("child-done", sim.now))
        return "child-value"

    def parent():
        value = yield sim.process(child())
        order.append(("parent-got", sim.now, value))

    sim.process(parent())
    sim.run()
    assert order == [("child-done", 5.0), ("parent-got", 5.0, "child-value")]


def test_yield_none_is_zero_delay():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield None
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == [0.0, 0.0]


def test_negative_yield_raises_in_process():
    sim = Simulator()
    errors = []

    def proc():
        try:
            yield -1.0
        except ProcessError as exc:
            errors.append(str(exc))

    sim.process(proc())
    sim.run()
    assert len(errors) == 1


def test_bad_yield_type_raises_in_process():
    sim = Simulator()
    errors = []

    def proc():
        try:
            yield "nonsense"
        except ProcessError:
            errors.append(True)

    sim.process(proc())
    sim.run()
    assert errors == [True]


def test_interrupt_raises_interrupt_with_cause():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 100.0
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    p = sim.process(sleeper())
    sim.schedule(10.0, p.interrupt, "reason")
    sim.run()
    assert log == [(10.0, "reason")]


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 100.0
        except Interrupt:
            pass
        yield 5.0
        log.append(sim.now)

    p = sim.process(sleeper())
    sim.schedule(10.0, p.interrupt)
    sim.run()
    assert log == [15.0]


def test_interrupt_finished_process_raises():
    sim = Simulator()

    def quick():
        yield 1.0

    p = sim.process(quick())
    sim.run()
    with pytest.raises(ProcessError):
        p.interrupt()


def test_stale_wakeup_after_interrupt_ignored():
    """The timeout the process was waiting on must not resume it later."""
    sim = Simulator()
    resumed = []

    def sleeper():
        try:
            yield 50.0
        except Interrupt:
            resumed.append(("interrupted", sim.now))
        yield 100.0
        resumed.append(("woke", sim.now))

    p = sim.process(sleeper())
    sim.schedule(10.0, p.interrupt)
    sim.run()
    # interrupted at 10, then slept 100 -> wakes at 110 exactly once
    assert resumed == [("interrupted", 10.0), ("woke", 110.0)]


def test_alive_reflects_generator_state():
    sim = Simulator()

    def proc():
        yield 1.0

    p = sim.process(proc())
    assert p.alive
    sim.run()
    assert not p.alive


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def proc(tag, period):
        for _ in range(3):
            yield period
            log.append((tag, sim.now))

    sim.process(proc("a", 1.0))
    sim.process(proc("b", 1.0))
    sim.run()
    assert log == [("a", 1.0), ("b", 1.0), ("a", 2.0), ("b", 2.0),
                   ("a", 3.0), ("b", 3.0)]


def test_process_all_of_composition():
    sim = Simulator()

    def proc(duration, value):
        yield duration
        return value

    ps = [sim.process(proc(d, d)) for d in (3.0, 1.0, 2.0)]
    values = sim.run_until_event(sim.all_of(ps))
    assert values == [3.0, 1.0, 2.0]


def test_wait_with_deadline_resumes_on_event_or_timeout():
    """``yield event, max_wait_s``: the event's value when it settles in
    time, ``None`` at the deadline otherwise — and a settle after the
    timeout (or a deadline after the settle) never resumes it again."""
    sim = Simulator()
    trace = []
    early, late = sim.event(), sim.event()

    def proc():
        for target in ((early, 5.0), (late, 5.0), 10.0):
            value = yield target
            trace.append((sim.now, value))

    sim.process(proc())
    sim.schedule(2.0, early.succeed, "early")
    sim.schedule(9.0, late.succeed, "late")
    sim.run()
    assert trace == [(2.0, "early"), (7.0, None), (17.0, None)]


def test_same_instant_deadlines_fire_in_wait_order():
    """Two processes whose waits time out at one instant resume in the
    order the waits began, whatever deadlines each process armed
    before."""
    sim = Simulator()
    order = []

    def first():
        yield sim.timeout(1.0), 9.0      # settles at 1: deadline moot
        yield sim.event(), 10.0          # waits from t=1, due at 11
        order.append(("first", sim.now))

    def second():
        yield 5.0
        yield sim.event(), 6.0           # waits from t=5, due at 11
        order.append(("second", sim.now))

    sim.process(first())
    sim.process(second())
    sim.run()
    assert order == [("first", 11.0), ("second", 11.0)]
