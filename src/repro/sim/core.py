"""Discrete-event simulation kernel.

The :class:`Simulator` owns a simulated clock and an event calendar: a
binary heap plus a *ready FIFO*.  Entries are plain tuples; ties on time
are broken first by an explicit integer priority (lower runs first) and
then by insertion order, which makes runs fully deterministic.  A fast
entry for the current instant at ``PRIORITY_URGENT`` (most of them: event
settles, carousel polls) is appended to the FIFO instead of sifted
through the heap.  The FIFO holds one instant and one priority in ``seq``
order and drains before the clock advances, so it is always sorted: the
run loops pop the heap only while ``heap[0] < ready[0]``, which dispatches
in exactly the heap-only ``(time, priority, seq)`` order (asyncio keeps
its ``_ready`` deque beside its ``_scheduled`` heap the same way).  A
FIFO *run* item (:meth:`Simulator.call_soon_each`) stands for k entries.

Two scheduling paths share the calendar:

* the **fast path** — :meth:`Simulator.schedule_fast` /
  :meth:`Simulator.call_at` push a 5-tuple ``(time, priority, seq,
  callback, args)`` and return nothing.  Internal layers (event
  settling, processes, links, broadcast) use it: no handle object is
  ever allocated for the ~99% of events nobody cancels.
* the **handle path** — :meth:`Simulator.schedule_at` pushes a 4-tuple
  ``(time, priority, seq, handle)`` and returns a cancellable
  :class:`EventHandle`.

The sequence number is unique per entry, so tuple comparison never
reaches the payload element and the two entry shapes can share one heap.
Cancellation is lazy: cancelled entries stay in the heap and are
discarded when popped; a live-entry counter keeps
:attr:`Simulator.queued_events` O(1).

Two programming styles are supported on top of this kernel:

* plain callbacks scheduled with the methods above;
* generator-based processes (see :mod:`repro.sim.process`) that ``yield``
  timeouts, events and other processes.

The kernel is deliberately free of any domain knowledge — the broadcast,
carousel, DTV and OddCI layers are all built on these primitives.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.rng import derive_generator
from repro.telemetry.trace import channel as _telemetry_channel

__all__ = [
    "EventHandle",
    "Event",
    "Simulator",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LATE",
]

#: Priority for bookkeeping that must run before normal events at equal time.
PRIORITY_URGENT = 0
#: Default priority.
PRIORITY_NORMAL = 10
#: Priority for events that should observe all same-time activity.
PRIORITY_LATE = 20

_INF = math.inf


def _callback_name(callback: Callable) -> str:
    """Deterministic display name for a scheduled callback.

    Qualnames only — never reprs, which embed object addresses and
    would break trace byte-parity across processes.
    """
    name = getattr(callback, "__qualname__", None)
    if name is not None:
        return name
    func = getattr(callback, "func", None)  # functools.partial
    if func is not None:
        return _callback_name(func)
    return type(callback).__name__


class EventHandle:
    """Cancellable reference to a scheduled callback.

    Returned by :meth:`Simulator.schedule_at`.  Calling :meth:`cancel`
    guarantees that the callback will never run; cancelling an already
    executed or cancelled handle is a no-op.
    """

    __slots__ = ("time", "callback", "args", "_sim", "_cancelled",
                 "_executed")

    def __init__(self, time: float, callback: Callable[..., Any],
                 args: tuple, sim: Optional["Simulator"] = None):
        self.time = time
        self.callback = callback
        self.args = args
        self._sim = sim
        self._cancelled = False
        self._executed = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def executed(self) -> bool:
        return self._executed

    @property
    def pending(self) -> bool:
        return not (self._cancelled or self._executed)

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if not (self._executed or self._cancelled):
            self._cancelled = True
            # The heap entry is discarded lazily; account for it now so
            # queued_events stays exact without scanning.
            if self._sim is not None:
                self._sim._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "cancelled" if self._cancelled else
            "executed" if self._executed else "pending"
        )
        return f"<EventHandle t={self.time:.6g} {state} {self.callback!r}>"


class Event:
    """A triggerable one-shot event that callbacks/processes can wait on.

    An ``Event`` starts *pending*; :meth:`succeed` or :meth:`fail` settles
    it exactly once, at which point every registered callback is invoked
    *immediately in simulated time* (same timestamp, urgent priority).

    Processes wait on events by yielding them; see
    :mod:`repro.sim.process`.
    """

    __slots__ = ("sim", "_callbacks", "_ok", "_value", "_settled", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        # Lazily allocated: most events get zero or one callback, so the
        # list is only created on the second registration.
        self._callbacks: Any = None
        self._ok: bool = True
        self._value: Any = None
        self._settled = False

    # -- inspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been settled (succeed or fail)."""
        return self._settled

    @property
    def ok(self) -> bool:
        if not self._settled:
            raise SimulationError("event not yet settled")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._settled:
            raise SimulationError("event not yet settled")
        return self._value

    # -- settling ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Settle the event successfully with ``value``."""
        self._settle(True, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Settle the event with an exception delivered to waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError("Event.fail() requires an exception instance")
        self._settle(False, exc)
        return self

    def _settle(self, ok: bool, value: Any) -> None:
        if self._settled:
            raise SimulationError(f"event {self.name!r} settled twice")
        self._settled = True
        self._ok = ok
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        if callbacks is not None:
            sim = self.sim
            if callbacks.__class__ is list:
                for cb in callbacks:
                    sim.schedule_fast(0.0, cb, self,
                                      priority=PRIORITY_URGENT)
            else:
                sim.schedule_fast(0.0, callbacks, self,
                                  priority=PRIORITY_URGENT)

    # -- waiting -------------------------------------------------------
    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb(event)`` to run when the event settles.

        If the event has already settled the callback is scheduled to run
        at the current simulated time rather than synchronously, keeping
        re-entrancy out of user code.
        """
        if self._settled:
            self.sim.schedule_fast(0.0, cb, self, priority=PRIORITY_URGENT)
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = cb  # single-callback fast path: no list
        elif callbacks.__class__ is list:
            callbacks.append(cb)
        else:
            self._callbacks = [callbacks, cb]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "settled" if self._settled else "pending"
        return f"<Event {self.name!r} {state}>"


#: :meth:`Simulator._dispatch_run` returns after one member watching this
_SETTLED = Event(None, "settled").succeed()


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock (seconds).
    seed:
        Master seed for the named RNG streams (see :meth:`rng`).
    trace:
        Optional callable invoked as ``trace(time, callback, args)``
        before each event executes — useful for debugging and for the
        determinism golden tests.
    """

    def __init__(
        self,
        *,
        start_time: float = 0.0,
        seed: Optional[int] = None,
        trace: Optional[Callable[[float, Callable, tuple], None]] = None,
    ) -> None:
        if not math.isfinite(start_time):
            raise SchedulingError("start_time must be finite")
        self._now = float(start_time)
        #: heap of (time, priority, seq, callback, args) fast entries
        #: and (time, priority, seq, EventHandle) cancellable entries.
        self._heap: list[tuple] = []
        #: same-instant PRIORITY_URGENT fast entries, in seq order
        self._ready: deque = deque()
        self._seq = 0
        self._live = 0
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self.trace = trace
        self._seed = seed
        self._rng_streams: dict[str, Any] = {}
        # Telemetry: the ambient tracer's kernel channel, resolved once.
        # Disabled (the default) leaves _kfast None, so the scheduling
        # hot paths pay exactly one is-None test; enabled installs a
        # dispatch hook through the existing `trace` callback slot, so
        # the run loop gains no new branch either way.
        ktrace = _telemetry_channel("kernel")
        self._ktrace = ktrace
        if ktrace is None:
            self._kfast = None
        else:
            self._kfast = ktrace.counter("kernel.fast_path_scheduled")
            self._khandle = ktrace.counter("kernel.handle_path_scheduled")
            self._install_dispatch_hook(ktrace)

    def _install_dispatch_hook(self, ktrace) -> None:
        """Emit a kernel trace event per dispatched callback.

        Chains with a ``trace`` callback supplied at construction, so
        both observers see every event.  Assigning ``sim.trace`` *after*
        construction replaces the whole hook — standard attribute
        semantics; pass the callback to ``__init__`` to compose.
        """
        emit = ktrace.emit
        user = self.trace

        def _dispatch(time: float, callback: Callable, args: tuple,
                      _emit=emit, _user=user) -> None:
            _emit(time, "dispatch", fn=_callback_name(callback))
            if _user is not None:
                _user(time, callback, args)

        self.trace = _dispatch

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (monotone counter)."""
        return self._events_executed

    @property
    def queued_events(self) -> int:
        """Number of pending (non-cancelled) entries in the calendar.

        O(1): maintained as a live-entry counter (pushes increment it,
        executions and cancellations decrement it; lazy removal of
        cancelled entries does not touch it).
        """
        return self._live

    # -- scheduling ------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Returns a cancellable :class:`EventHandle`.  Internal layers that
        never cancel should prefer :meth:`schedule_fast` / :meth:`call_at`.
        """
        if time < self._now or not math.isfinite(time):
            raise SchedulingError(
                f"cannot schedule at t={time!r} (now={self._now!r})")
        if not callable(callback):
            raise TypeError(f"callback must be callable, got {callback!r}")
        handle = EventHandle(time, callback, args, self)
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if self._kfast is not None:
            self._khandle.value += 1
        heappush(self._heap, (time, priority, seq, handle))
        return handle

    def schedule_fast(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Fast-path scheduling: no :class:`EventHandle` is allocated.

        Semantics are identical to :meth:`schedule` except that the
        entry cannot be cancelled.  This is the hot path used by event
        settling, process resumption and the network layers.
        """
        time = self._now + delay
        if not (delay >= 0.0) or time == _INF:
            raise SchedulingError(f"invalid delay {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        counter = self._kfast
        if counter is not None:
            counter.value += 1
        if delay == 0.0 and priority == PRIORITY_URGENT:
            self._ready.append((time, priority, seq, callback, args))
        else:
            heappush(self._heap, (time, priority, seq, callback, args))

    #: Alias — reads naturally at call sites (`sim.call_later(3, cb)`).
    call_later = schedule_fast

    def call_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Absolute-time fast-path scheduling (no handle, no cancel)."""
        if not (time >= self._now) or time == _INF:
            raise SchedulingError(
                f"cannot schedule at t={time!r} (now={self._now!r})")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        counter = self._kfast
        if counter is not None:
            counter.value += 1
        if time == self._now and priority == PRIORITY_URGENT:
            self._ready.append((time, priority, seq, callback, args))
        else:
            heappush(self._heap, (time, priority, seq, callback, args))

    def call_soon_each(self, callbacks: list, args: tuple) -> None:
        """One ``schedule_fast(0.0, callback, *args,
        priority=PRIORITY_URGENT)`` per callback of the list, in order —
        own seq, own event — held in the FIFO as one *run* item.  The
        kernel takes the list over."""
        n = len(callbacks)
        if not n:
            return
        seq = self._seq
        self._seq = seq + n
        self._live += n
        if self._kfast is not None:
            self._kfast.value += n
        self._ready.append((self._now, PRIORITY_URGENT, seq, callbacks, args))

    def event(self, name: str = "") -> Event:
        """Create a fresh :class:`Event` bound to this simulator."""
        return Event(self, name)

    # -- execution -------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``False`` when the calendar is empty, ``True`` otherwise.
        """
        heap = self._heap
        ready = self._ready
        while True:
            if ready and not (heap and heap[0] < ready[0]):
                entry = ready.popleft()
                if entry[3].__class__ is list:
                    self._dispatch_run(entry, _SETTLED)
                    return True
            elif heap:
                entry = heappop(heap)
            else:
                return False
            if len(entry) == 5:
                callback = entry[3]
                args = entry[4]
            else:
                handle = entry[3]
                if handle._cancelled:
                    continue
                handle._executed = True
                callback = handle.callback
                args = handle.args
            self._now = entry[0]
            self._live -= 1
            self._events_executed += 1
            if self.trace is not None:
                self.trace(self._now, callback, args)
            callback(*args)
            return True

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the calendar drains or ``until`` is reached.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier.  Returns the final clock.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        if until is not None and until < self._now:
            raise SchedulingError(
                f"cannot run until t={until!r} (now={self._now!r})")
        self._running = True
        self._stopped = False
        heap = self._heap
        ready = self._ready
        try:
            # Inlined pop loop — the kernel's hottest few lines.  A FIFO
            # entry is due now, so never past ``until``.
            while not self._stopped:
                if ready and not (heap and heap[0] < ready[0]):
                    time, _, _, callback, args = entry = ready.popleft()
                    if callback.__class__ is list:
                        self._dispatch_run(entry, None)
                        continue
                elif heap:
                    entry = heap[0]
                    if len(entry) == 4 and entry[3]._cancelled:
                        heappop(heap)
                        continue
                    time = entry[0]
                    if until is not None and time > until:
                        break
                    heappop(heap)
                    if len(entry) == 5:
                        callback = entry[3]
                        args = entry[4]
                    else:
                        handle = entry[3]
                        handle._executed = True
                        callback = handle.callback
                        args = handle.args
                else:
                    break
                self._now = time
                self._live -= 1
                self._events_executed += 1
                if self.trace is not None:
                    self.trace(time, callback, args)
                callback(*args)
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def run_until_event(self, event: Event, limit: float = math.inf) -> Any:
        """Run until ``event`` settles; return its value (raise on failure).

        ``limit`` bounds the simulated time; exceeding it raises
        :class:`SimulationError` so a wedged protocol does not spin forever.
        """
        heap = self._heap
        ready = self._ready
        while not event._settled:
            # Inlined step() — provider-driven runs spend their time here.
            if ready and not (heap and heap[0] < ready[0]):
                entry = ready.popleft()
                if entry[3].__class__ is list:
                    if entry[0] > limit:
                        self._dispatch_run(entry, _SETTLED)
                        break
                    self._dispatch_run(entry, event)
                    continue
            elif heap:
                entry = heappop(heap)
            else:
                raise SimulationError(
                    f"calendar drained before event {event.name!r} "
                    "settled")
            if len(entry) == 5:
                callback = entry[3]
                args = entry[4]
            else:
                handle = entry[3]
                if handle._cancelled:
                    continue
                handle._executed = True
                callback = handle.callback
                args = handle.args
            self._now = time = entry[0]
            self._live -= 1
            self._events_executed += 1
            if self.trace is not None:
                self.trace(time, callback, args)
            callback(*args)
            if time > limit:
                break
        else:  # settled; a break is the limit
            if not event.ok:
                raise event.value
            return event.value
        raise SimulationError(
            f"time limit {limit} exceeded waiting for {event.name!r}")

    def _dispatch_run(self, run: tuple, until: Optional[Event]) -> None:
        """Dispatch a popped run item's members, each as an event.  The
        tail goes back to the FIFO front once the heap head sorts before
        the next member (a same-instant entry below ``PRIORITY_URGENT``),
        ``until`` settles (None: :meth:`stop`) or a member raises."""
        time, priority, seq, callbacks, args = run
        heap = self._heap
        head = heap[0] if heap else None
        i = 0
        try:
            for i, callback in enumerate(callbacks, 1):
                self._now = time
                self._live -= 1
                self._events_executed += 1
                if self.trace is not None:
                    self.trace(time, callback, args)
                callback(*args)
                if heap and heap[0] is not head:
                    head = heap[0]
                    if head < (time, priority, seq + i):
                        break
                if self._stopped if until is None else until._settled:
                    break
        finally:
            if i < len(callbacks):
                self._ready.appendleft(
                    (time, priority, seq + i, callbacks[i:], args))

    def stop(self) -> None:
        """Ask a running :meth:`run` loop to return after the current event."""
        self._stopped = True

    # -- processes (provided by repro.sim.process, bound here) ----------
    def process(self, generator) -> "Any":
        """Launch a generator-based process; see :mod:`repro.sim.process`."""
        from repro.sim.process import Process

        return Process(self, generator)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that succeeds after ``delay`` simulated seconds."""
        ev = Event(self, "timeout")
        self.schedule_fast(delay, ev.succeed, value)
        return ev

    # -- RNG streams -----------------------------------------------------
    def rng(self, stream: str = "default"):
        """Return a named, deterministic :class:`numpy.random.Generator`.

        Streams are derived from the simulator seed and the stream name so
        adding a new consumer never perturbs existing streams.
        """
        gen = self._rng_streams.get(stream)
        if gen is None:
            gen = derive_generator(self._seed, stream)
            self._rng_streams[stream] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Simulator t={self._now:.6g} queued={self._live} "
                f"executed={self._events_executed}>")
