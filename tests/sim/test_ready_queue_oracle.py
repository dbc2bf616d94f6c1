"""The kernel's ready FIFO against a heap-only calendar.

:class:`_HeapKernel` keeps the kernel as it was before same-instant
urgent entries got a FIFO beside the heap: every entry is pushed on the
heap, ``step``/``run``/``run_until_event`` pop it alone, and a
``call_soon_each`` run is one ``schedule_fast`` per member.  Random
programs run on both kernels — callbacks that schedule zero-delay and
later entries at URGENT, NORMAL, LATE and negative priority through
``schedule_fast``, ``call_at``, ``schedule_at`` (some cancelled) and
``call_soon_each`` runs, settle and wait on an event, and stop the run
mid-instant (mid-run too) — driven by a random mix of
``run(until=...)``, ``run()``, ``step()`` and ``run_until_event``
(with a limit ahead of, at or behind the clock).  Both must dispatch
the same entries in the same order, at the same clock, with the same
``events_executed`` and ``queued_events`` throughout.
"""

import math
from heapq import heappop, heappush

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError, SimulationError
from repro.sim.core import (PRIORITY_LATE, PRIORITY_NORMAL, PRIORITY_URGENT,
                            EventHandle, Simulator)


class _HeapKernel(Simulator):
    """The oracle: the heap-only calendar and its pop loops."""

    def schedule_fast(self, delay, callback, *args,
                      priority=PRIORITY_NORMAL):
        time = self._now + delay
        if not (delay >= 0.0) or time == math.inf:
            raise SchedulingError(f"invalid delay {delay!r}")
        self._push(time, priority, callback, args)

    call_later = schedule_fast

    def call_soon_each(self, callbacks, args):
        for callback in callbacks:
            self.schedule_fast(0.0, callback, *args, priority=PRIORITY_URGENT)

    def call_at(self, time, callback, *args, priority=PRIORITY_NORMAL):
        if not (time >= self._now) or time == math.inf:
            raise SchedulingError(f"cannot schedule at t={time!r}")
        self._push(time, priority, callback, args)

    def _push(self, time, priority, callback, args):
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heappush(self._heap, (time, priority, seq, callback, args))

    def _pop_live(self):
        """Pop the next live entry as ``(time, callback, args)``."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if len(entry) == 5:
                return entry[0], entry[3], entry[4]
            handle = entry[3]
            if not handle._cancelled:
                handle._executed = True
                return entry[0], handle.callback, handle.args
        return None

    def _dispatch(self, time, callback, args):
        self._now = time
        self._live -= 1
        self._events_executed += 1
        if self.trace is not None:
            self.trace(time, callback, args)
        callback(*args)

    def step(self):
        popped = self._pop_live()
        if popped is None:
            return False
        self._dispatch(*popped)
        return True

    def run(self, until=None):
        if self._running:
            raise SimulationError("re-entrant run")
        if until is not None and until < self._now:
            raise SchedulingError(f"cannot run until t={until!r}")
        self._running = True
        self._stopped = False
        heap = self._heap
        try:
            while heap and not self._stopped:
                entry = heap[0]
                if len(entry) == 4 and entry[3]._cancelled:
                    heappop(heap)
                    continue
                if until is not None and entry[0] > until:
                    break
                self._dispatch(*self._pop_live())
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def run_until_event(self, event, limit=math.inf):
        while not event._settled:
            popped = self._pop_live()
            if popped is None:
                raise SimulationError(
                    f"calendar drained before event {event.name!r} "
                    "settled")
            self._dispatch(*popped)
            if popped[0] > limit:
                raise SimulationError(
                    f"time limit {limit} exceeded waiting for {event.name!r}")
        if not event.ok:
            raise event.value
        return event.value


#: weighted to same-instant URGENT entries, the ones the FIFO takes
_PRIORITIES = (-1, PRIORITY_URGENT, PRIORITY_URGENT, PRIORITY_NORMAL,
               PRIORITY_LATE)
_DELAYS = (0.0, 0.0, 0.0, 0.5, 1.0)
#: node count of a program
_NODES = 6

_schedule = st.tuples(st.sampled_from(("fast", "at", "handle")),
                      st.integers(1, _NODES - 1), st.sampled_from(_DELAYS),
                      st.sampled_from(_PRIORITIES))
#: a ``call_soon_each`` run of these nodes (repeats allowed)
_run = st.tuples(st.just("each"),
                 st.lists(st.integers(1, _NODES - 1), min_size=1,
                          max_size=4).map(tuple))
_other = st.one_of(
    _run,
    st.tuples(st.just("cancel"), st.integers(0, 7)),
    st.tuples(st.just("wait"), st.integers(1, _NODES - 1)),
    st.tuples(st.sampled_from(("stop", "settle"))))
_actions = st.lists(st.one_of(_schedule, _schedule, _other), max_size=4)
_drive = st.lists(st.one_of(
    st.tuples(st.just("run"), st.sampled_from((None, 0.0, 0.5, 1.0, 3.0))),
    st.tuples(st.just("step")),
    st.tuples(st.just("until_event"), st.sampled_from((2.0, 0.0, -1.0)))),
    min_size=1, max_size=6)


def _execute(kernel, roots, nodes, drive):
    """Run one program on a fresh ``kernel``; return its observations."""
    log = []
    sim = kernel(seed=0, trace=lambda time, _cb, args: log.append(
        ("dispatch", time, [getattr(a, "name", a) for a in args])))
    done = sim.event("done")
    handles = []

    def act(actions, source):
        for action in actions:
            kind = action[0]
            if kind in ("fast", "at", "handle"):
                _, target, delay, priority = action
                if target <= source:
                    continue  # node i schedules nodes j > i: finite runs
                if kind == "fast":
                    sim.schedule_fast(delay, node, target, priority=priority)
                elif kind == "at":
                    sim.call_at(sim.now + delay, node, target,
                                priority=priority)
                else:
                    handles.append(sim.schedule_at(
                        sim.now + delay, node, target, priority=priority))
            elif kind == "each":
                members = [t for t in action[1] if t > source]
                if members:
                    sim.call_soon_each(
                        [lambda src, t=t: node(t) for t in members],
                        (source,))
            elif kind == "cancel" and handles:
                handles[action[1] % len(handles)].cancel()
            elif kind == "wait" and action[1] > source:
                done.add_callback(lambda _ev, t=action[1]: node(t))
            elif kind == "stop":
                sim.stop()
            elif kind == "settle" and not done.triggered:
                done.succeed(len(log))

    def node(index):
        log.append((sim.now, index, sim.events_executed, sim.queued_events))
        act(nodes[index], index)

    act(roots, 0)
    for call in drive:
        try:
            if call[0] == "run":
                until = None if call[1] is None else sim.now + call[1]
                result = sim.run(until=until)
            elif call[0] == "step":
                result = sim.step()
            else:
                result = sim.run_until_event(done, limit=sim.now + call[1])
        except SimulationError as exc:
            result = f"{type(exc).__name__}: {exc}"
        log.append((call, result, sim.now, sim.events_executed,
                    sim.queued_events))
    return log, [h.executed for h in handles], [h.pending for h in handles]


def _assert_same(roots, nodes, drive):
    observed = _execute(Simulator, roots, nodes, drive)
    assert observed == _execute(_HeapKernel, roots, nodes, drive)
    return observed


@settings(max_examples=300, deadline=None)
@given(roots=_actions.filter(bool), nodes=st.lists(_actions, min_size=_NODES,
                                      max_size=_NODES), drive=_drive)
# call_at(now, URGENT) beside the zero-delay fast path
@example(roots=[("at", 1, 0.0, PRIORITY_URGENT)],
         nodes=[[], [("fast", 2, 0.0, PRIORITY_URGENT),
                     ("at", 3, 0.0, PRIORITY_URGENT)], [], [], [], []],
         drive=[("run", None)])
# an entry scheduled earlier falls due at the current instant at URGENT:
# it sorts before the FIFO entries of that instant
@example(roots=[("fast", 1, 1.0, PRIORITY_URGENT),
                ("fast", 2, 1.0, PRIORITY_NORMAL)],
         nodes=[[], [], [("fast", 3, 0.0, PRIORITY_URGENT)],
                [("fast", 4, 0.0, PRIORITY_URGENT)], [], []],
         drive=[("run", None)])
# a negative priority sorts before URGENT at the same instant
@example(roots=[("fast", 1, 0.0, PRIORITY_URGENT),
                ("fast", 2, 0.0, -1)],
         nodes=[[], [], [], [], [], []],
         drive=[("step",), ("step",)])
# schedule_at(now, URGENT) stays a cancellable heap entry
@example(roots=[("handle", 1, 0.0, PRIORITY_URGENT),
                ("fast", 2, 0.0, PRIORITY_URGENT)],
         nodes=[[], [], [("cancel", 0), ("handle", 3, 0.0, PRIORITY_URGENT),
                         ("fast", 4, 0.0, PRIORITY_URGENT)], [], [], []],
         drive=[("run", 0.0)])
# stop() mid-instant leaves FIFO entries due; a resumed run takes them
# first, and run(until=...) never advances the clock past them
@example(roots=[("fast", 1, 0.5, PRIORITY_NORMAL)],
         nodes=[[], [("fast", 2, 0.0, PRIORITY_URGENT), ("stop",),
                     ("fast", 3, 0.0, PRIORITY_URGENT)],
                [("fast", 4, 0.5, PRIORITY_URGENT)], [], [], []],
         drive=[("run", None), ("run", 0.0), ("step",), ("run", 1.0)])
# run_until_event through an event's urgent callbacks
@example(roots=[("fast", 1, 0.5, PRIORITY_LATE), ("wait", 2)],
         nodes=[[], [("settle",), ("wait", 3), ("fast", 4, 0.0, -1)],
                [], [], [], []],
         drive=[("until_event", 2.0), ("run", None)])
# a run's member schedules a same-instant entry below URGENT: it runs
# before the run's next member; NORMAL and LATE ones wait for the run
@example(roots=[("each", (1, 2, 3))],
         nodes=[[], [("fast", 4, 0.0, -1), ("fast", 5, 0.0, PRIORITY_LATE)],
                [("at", 5, 0.0, -1), ("fast", 4, 0.0, PRIORITY_NORMAL)],
                [("fast", 4, 0.0, PRIORITY_URGENT)], [], []],
         drive=[("run", None)])
# stop() mid-run: the tail stays due; step() then takes one member at a
# time, and run(until=...) the rest before the clock moves
@example(roots=[("each", (1, 2, 3, 4)), ("fast", 5, 0.5, PRIORITY_NORMAL)],
         nodes=[[], [("stop",)], [("each", (4, 5))], [], [], []],
         drive=[("run", None), ("step",), ("step",), ("run", 0.0),
                ("run", 1.0)])
# run_until_event settles mid-run, and a limit behind the clock raises
# after one member
@example(roots=[("each", (1, 2, 3)), ("wait", 4)],
         nodes=[[], [("settle",)], [("each", (3, 4))], [], [], []],
         drive=[("until_event", 2.0), ("until_event", -1.0),
                ("run", None)])
def test_ready_fifo_dispatches_as_the_heap_only_calendar(roots, nodes, drive):
    _assert_same(roots, nodes, drive)


def test_a_run_is_one_fifo_item_of_k_entries():
    """``call_soon_each`` reserves k consecutive seqs as one FIFO item,
    counted k times in ``queued_events``; the kernel then dispatches k
    events, each traced with the shared args."""
    seen = []
    sim = Simulator(trace=lambda time, cb, args: seen.append((time, args)))
    sim.schedule_fast(0.0, print, priority=PRIORITY_URGENT)
    sim.call_soon_each([seen.append, seen.append, seen.append], ("x",))
    sim.call_soon_each([], ("never",))
    sim.schedule_fast(0.0, len, (), priority=PRIORITY_URGENT)
    assert len(sim._ready) == 3 and sim.queued_events == 5
    assert [entry[2] for entry in sim._ready] == [0, 1, 4]
    sim.step()
    sim.step()  # first member: the tail goes back with seq 2
    assert sim._ready[0][2] == 2 and sim.queued_events == 3
    sim.run()
    assert sim.events_executed == 5 and sim.queued_events == 0
    assert seen[1:] == [(0.0, ("x",)), "x", (0.0, ("x",)), "x",
                        (0.0, ("x",)), "x", (0.0, ((),))]


def test_same_instant_urgent_entries_use_the_fifo():
    """The zero-delay URGENT fast path bypasses the heap, and every
    other entry — later, non-urgent, or with a handle — goes on it."""
    sim = Simulator()
    sim.schedule_fast(0.0, print, priority=PRIORITY_URGENT)
    sim.call_at(sim.now, print, priority=PRIORITY_URGENT)
    assert len(sim._ready) == 2 and not sim._heap
    sim.schedule_fast(0.0, print)
    sim.schedule_fast(0.5, print, priority=PRIORITY_URGENT)
    sim.call_at(1.0, print, priority=PRIORITY_URGENT)
    handle = sim.schedule_at(sim.now, print, priority=PRIORITY_URGENT)
    assert isinstance(handle, EventHandle)
    assert len(sim._ready) == 2 and len(sim._heap) == 4
    assert sim.queued_events == 6
