"""Generator-based processes on top of the event kernel.

A *process* is a Python generator driven by the simulator.  At each step
it may yield:

* a number — sleep that many simulated seconds;
* an :class:`~repro.sim.core.Event` — suspend until it settles (the
  ``yield`` expression evaluates to the event's value; a failed event
  raises its exception inside the generator);
* a ``(event, max_wait_s)`` tuple — suspend until the event settles or
  the deadline elapses, whichever is first (the deadline case resumes
  with ``None``; check ``event.triggered`` to tell them apart).  This is
  the cheap form of ``sim.race_timeout`` for retry guards: no combined
  event or cancellable handle is allocated, just one calendar entry per
  wait, so same-instant timeouts fire in the order their waits began;
* another :class:`Process` — join it (value/exception semantics as above);
* ``None`` — yield control for zero simulated time (lets same-time events
  interleave deterministically).

A ``Process`` is itself an :class:`~repro.sim.core.Event` that settles
with the generator's return value, so processes compose: one process can
wait for another, and ``sim.all_of`` works on processes too.

Example
-------
::

    def worker(sim, store):
        while True:
            task = yield store.get()
            yield task.duration        # compute
            done.append(task)

    sim.process(worker(sim, store))
    sim.run()
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import CancelledError, ProcessError
from repro.sim.core import Event, Simulator, PRIORITY_NORMAL

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running simulated process wrapping a generator.

    Settles (as an Event) when the generator returns or raises:
    ``StopIteration`` value on success, the exception on failure.
    """

    __slots__ = ("_gen", "_waiting_on", "_started", "_timer_seq",
                 "_deadline_token", "name_")

    def __init__(self, sim: Simulator, generator: Generator,
                 name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise ProcessError(
                f"Process requires a generator, got {generator!r} — "
                "did you forget to call the generator function?")
        super().__init__(sim, name or getattr(
            generator, "__name__", "process"))
        self._gen = generator
        self._waiting_on: Optional[Event] = None
        self._started = False
        self._timer_seq = 0
        # Token of the pending (event, max_wait_s) wait's calendar entry;
        # 0 when no deadline is pending (see _deadline_fire).
        self._deadline_token = 0
        # Start on the next event-loop tick at the current time so the
        # creator finishes its own step first (deterministic ordering).
        sim.schedule_fast(0.0, self._resume, None,
                          priority=PRIORITY_NORMAL)

    # -- public API ------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is waiting on an event detaches it from that event
        (the event itself is unaffected).
        """
        if self.triggered:
            raise ProcessError(f"cannot interrupt finished process {self.name!r}")
        self.sim.schedule_fast(0.0, self._do_interrupt, cause)

    def _do_interrupt(self, cause: Any) -> None:
        if self.triggered:
            return  # finished in the meantime at the same timestamp
        self._waiting_on = None
        self._timer_seq += 1  # invalidate any outstanding sleep timer
        self._deadline_token = 0  # and any pending wait deadline
        self._step_throw(Interrupt(cause))

    # -- driving the generator -------------------------------------------
    def _resume(self, event: Optional[Event]) -> None:
        """Advance the generator with the settled event's value.

        Registered directly as the waited event's callback (no closure
        per wait).
        """
        if self.triggered:
            return
        if event is not None:
            if self._waiting_on is not event:
                return  # stale wakeup: we were interrupted while waiting
            self._waiting_on = None
            # An event-with-deadline wait's timeout is moot now that the
            # event won; its in-heap entry (if any) dies lazily.
            self._deadline_token = 0
            if not event._ok:
                self._step_throw(event._value)
                return
            self._step_send(event._value)
            return
        self._step_send(None)

    def _step_send(self, value: Any) -> None:
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - forward to waiters
            self.fail(exc)
            return
        self._handle_yield(target)

    def _step_throw(self, exc: BaseException) -> None:
        try:
            target = self._gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - forward to waiters
            self.fail(err)
            return
        self._handle_yield(target)

    def _handle_yield(self, target: Any) -> None:
        sim = self.sim
        if type(target) is tuple:
            # (event, max_wait_s): wait with a deadline.  One fast
            # calendar entry, stale-guarded by the timer token — no
            # combined Event, no cancellable handle.
            try:
                event, deadline = target
            except ValueError:
                self._step_throw(ProcessError(
                    f"process yielded unsupported value {target!r}"))
                return
            if not isinstance(event, Event) or not isinstance(
                    deadline, (int, float)) or deadline < 0:
                self._step_throw(ProcessError(
                    f"process yielded unsupported value {target!r}"))
                return
            self._waiting_on = event
            event.add_callback(self._resume)
            token = self._timer_seq + 1
            self._timer_seq = token
            self._deadline_token = token
            sim.call_at(sim.now + float(deadline), self._deadline_fire,
                        token)
            return
        if isinstance(target, Event):
            self._waiting_on = target
            target.add_callback(self._resume)
            return
        if target is None:
            target = 0.0
        elif not isinstance(target, (int, float)):
            self._step_throw(ProcessError(
                f"process yielded unsupported value {target!r}"))
            return
        elif target < 0:
            self._step_throw(ProcessError(
                f"process yielded negative delay {target!r}"))
            return
        # Numeric sleep fast path: resume directly from the calendar,
        # skipping the intermediate timeout Event.  Ordering is
        # preserved: the old path's urgent resume always ran immediately
        # after its normal-priority succeed (no other entry can sort
        # between them), so a normal-priority direct resume in the
        # timeout's own seq position executes at the identical point.
        token = self._timer_seq + 1
        self._timer_seq = token
        sim.schedule_fast(float(target), self._timer_resume, token)

    def _timer_resume(self, token: int) -> None:
        if self.triggered or token != self._timer_seq:
            return  # interrupted (or finished) while sleeping
        self._step_send(None)

    def _deadline_fire(self, token: int) -> None:
        """A wait's deadline entry came due: the wait times out and the
        process resumes with ``None`` — unless that wait is over (the
        guarded event won, or an interrupt cut it short), in which case
        the entry just dies."""
        if self.triggered or token != self._deadline_token:
            return
        self._deadline_token = 0
        self._waiting_on = None  # detach; a late settle is now stale
        self._step_send(None)
