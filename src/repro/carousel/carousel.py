"""DSM-CC object carousel: cyclic broadcast of a small file system.

Two cooperating views of the same mechanism live here:

* :class:`CarouselSchedule` — the *analytic* view: a pure, deterministic
  periodic timetable (cycle length, per-file windows) supporting
  vectorised completion-time queries for millions of receivers at once.
* :class:`ObjectCarousel` — the *event-driven* view: a simulation process
  that actually transmits each file on a
  :class:`~repro.net.broadcast.BroadcastChannel`, supports versioned
  updates between repetitions, and settles read events from real
  deliveries.

Tests cross-validate the two: on a dedicated channel the event-driven
carousel completes reads at exactly the times the schedule predicts.

Read policies
-------------
``wait_for_start`` (paper's model, default): a receiver must catch the
*beginning* of the file's transmission, so it waits on average half a
cycle and then reads for the file's window — yielding the paper's
W = 1.5·I/β when the image dominates the carousel.

``resume``: block-level acquisition — a receiver that tunes in
mid-transmission keeps the blocks it sees and wraps around, completing in
exactly one cycle from the request.  This is what DSM-CC hardware
actually allows and is studied as an ablation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import CarouselError, FileNotInCarouselError
from repro.carousel.dsmcc import DEFAULT_SECTION_FORMAT, SectionFormat
from repro.carousel.objects import CarouselFile
from repro.net.broadcast import BroadcastChannel
from repro.net.message import DEFAULT_HEADER_BITS, Message
from repro.sim.core import Event, Simulator
from repro.sim.process import Interrupt
from repro.telemetry.trace import channel as _telemetry_channel

__all__ = ["CarouselSchedule", "ObjectCarousel", "READ_POLICIES"]

READ_POLICIES = ("wait_for_start", "resume")

ArrayLike = Union[float, np.ndarray]


class CarouselSchedule:
    """Deterministic periodic timetable of a carousel on a dedicated channel.

    Parameters
    ----------
    files:
        Carousel content, in transmission order.
    beta_bps:
        Spare broadcast capacity β.
    section_format:
        DSM-CC overhead model (wire bits per payload bits).
    origin_time:
        Simulated time at which the first cycle starts.
    """

    def __init__(
        self,
        files: Sequence[CarouselFile],
        beta_bps: float,
        *,
        section_format: SectionFormat = DEFAULT_SECTION_FORMAT,
        origin_time: float = 0.0,
    ) -> None:
        files = list(files)
        if not files:
            raise CarouselError("carousel needs at least one file")
        if beta_bps <= 0:
            raise CarouselError(f"beta_bps must be > 0, got {beta_bps}")
        names = [f.name for f in files]
        if len(set(names)) != len(names):
            raise CarouselError(f"duplicate file names in carousel: {names}")
        self.files = files
        self.beta_bps = float(beta_bps)
        self.section_format = section_format
        self.origin_time = float(origin_time)

        # Layout: control sections first, then each file's window.
        self._windows: Dict[str, Tuple[float, float]] = {}
        offset = section_format.cycle_control_bits() / self.beta_bps
        self.control_duration = offset
        for f in files:
            duration = section_format.wire_bits(f.size_bits) / self.beta_bps
            self._windows[f.name] = (offset, duration)
            offset += duration
        self.cycle_time = offset

    # -- queries -----------------------------------------------------------
    def window(self, name: str) -> Tuple[float, float]:
        """``(offset_within_cycle, duration)`` of a file's transmission."""
        try:
            return self._windows[name]
        except KeyError:
            raise FileNotInCarouselError(
                f"{name!r} not in carousel "
                f"({sorted(self._windows)})") from None

    def file(self, name: str) -> CarouselFile:
        for f in self.files:
            if f.name == name:
                return f
        raise FileNotInCarouselError(f"{name!r} not in carousel")

    def next_start(self, name: str, t: ArrayLike, *,
                   out: Optional[np.ndarray] = None) -> ArrayLike:
        """Absolute time of the first window start at or after ``t``.

        Accepts a scalar or a numpy array of request times (vectorised),
        and writes into and returns ``out`` (not ``t``) when given.
        """
        offset, _ = self.window(name)
        t = np.asarray(t, dtype=float)
        wait = np.empty_like(t) if out is None else out  # offset, phase, wait
        np.subtract(t, self.origin_time, out=wait)
        lo, hi = (wait.min(), wait.max()) if wait.size else (0.0, 0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise CarouselError("request time is not finite")
        if lo < 0:
            raise CarouselError("request precedes carousel origin")
        # fmod is exact and is % on offsets >= 0; offset - phase is in
        # (-cycle, cycle), never -0.0: adding cycle where < 0 is the %.
        if hi >= self.cycle_time:  # below a cycle, fmod is the identity
            np.fmod(wait, self.cycle_time, out=wait)
        np.subtract(offset, wait, out=wait)
        np.add(wait, self.cycle_time, out=wait, where=wait < 0)
        wait += t
        return float(wait) if wait.ndim == 0 and out is None else wait

    def completion_time(
        self,
        name: str,
        t: ArrayLike,
        *,
        policy: str = "wait_for_start",
        out: Optional[np.ndarray] = None,
    ) -> ArrayLike:
        """Absolute time at which a read requested at ``t`` completes.

        Vectorised over ``t`` (``out`` as for :meth:`next_start`).  See
        module docstring for policies.
        """
        if policy not in READ_POLICIES:
            raise CarouselError(
                f"unknown read policy {policy!r}; choose from {READ_POLICIES}")
        offset, duration = self.window(name)
        t_arr = np.asarray(t, dtype=float)
        completion = np.asarray(self.next_start(name, t_arr, out=out))
        completion += duration
        if policy == "resume":
            # Mid-window requests wrap around and finish one full cycle
            # after the request instead of waiting for the next start.
            rel = np.fmod(t_arr - self.origin_time, self.cycle_time)
            in_window = (rel > offset) & (rel < offset + duration)
            np.add(t_arr, self.cycle_time, out=completion, where=in_window)
        return (float(completion) if completion.ndim == 0 and out is None
                else completion)

    def mean_read_time(self, name: str, *, policy: str = "wait_for_start") -> float:
        """Expected read latency for a uniformly random request phase.

        For ``wait_for_start`` this is ``duration + mean_wait`` where the
        wait is uniform on ``[0, cycle)`` → ``duration + cycle/2``; for a
        carousel dominated by the file this reduces to the paper's
        ``1.5 · I/β``.
        """
        offset, duration = self.window(name)
        if policy == "wait_for_start":
            return duration + self.cycle_time / 2.0
        if policy == "resume":
            # Out-of-window phases behave like wait_for_start; in-window
            # phases take exactly one cycle.
            out_frac = 1.0 - duration / self.cycle_time
            # Expected wait for out-of-window request (uniform over the
            # out-of-window arc of length cycle - duration):
            mean_wait_out = (self.cycle_time - duration) / 2.0
            return (out_frac * (mean_wait_out + duration)
                    + (duration / self.cycle_time) * self.cycle_time)
        raise CarouselError(f"unknown read policy {policy!r}")


class ObjectCarousel:
    """Event-driven carousel transmitting on a broadcast channel.

    The carousel runs as a simulation process: each repetition transmits
    the control sections then every file in order.  Content updates
    (:meth:`add_file`, :meth:`replace_file`, :meth:`remove_file`) are
    applied at the next cycle boundary, as real carousel generators do.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: BroadcastChannel,
        files: Iterable[CarouselFile],
        *,
        section_format: SectionFormat = DEFAULT_SECTION_FORMAT,
        name: str = "carousel",
        fast_forward: bool = False,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.section_format = section_format
        self.name = name
        self._files: Dict[str, CarouselFile] = {}
        for f in files:
            if f.name in self._files:
                raise CarouselError(f"duplicate file {f.name!r}")
            self._files[f.name] = f
        if not self._files:
            raise CarouselError("carousel needs at least one file")
        self._pending_updates: Dict[str, Optional[CarouselFile]] = {}
        #: file name -> ``[request times, waiters, Event waiter count]``,
        #: a waiter being a read's event or a listener: reads are queued
        #: at a non-decreasing ``sim.now``, so the reads a window settles
        #: are always a prefix of their file's lists
        self._reads: Dict[str, list] = defaultdict(lambda: [[], [], 0])
        self._n_reads = 0
        self._cycles_completed = 0
        self._skip_cycles = 0
        self._cycles_skipped = 0
        self._running = True
        # Fast-forward: with no reader waiting the carousel's repetitions
        # are pure clockwork — the transmit loop parks and the elapsed
        # cycles are recovered arithmetically on the next read (or at the
        # next boundary when an update is queued).  An idle broadcast
        # channel then costs zero calendar entries.
        self.fast_forward = bool(fast_forward)
        self._parked = False
        self._park_index = 0
        self._park_epoch = 0
        self._wake: Optional[Event] = None
        # Cycle grid: every repetition of the current content epoch
        # starts at ``_epoch_anchor + k * _cycle_time``.  The live loop
        # and the fast-forward replay both derive every transmission
        # instant from this grid with identical float arithmetic, so
        # simulation results are bit-identical with fast_forward on or
        # off.
        self._epoch_anchor = 0.0
        self._epoch_index = 0
        self._cycle_time = 0.0
        self._segments: List[Tuple[CarouselFile, float, float]] = []
        self._trace = _telemetry_channel("carousel")
        self._process = sim.process(self._transmit_loop())

    # -- content management --------------------------------------------------
    @property
    def file_names(self) -> Tuple[str, ...]:
        return tuple(self._files)

    @property
    def cycles_completed(self) -> int:
        """Repetitions finished so far (virtual ones included).

        Sampled *exactly* on a cycle boundary, a parked carousel counts
        the cycle completing at that instant while the live loop's
        increment runs a float ulp later — an inherent fencepost at the
        instant itself.  At any other time the two modes agree exactly.
        """
        if self._parked:
            return self._cycles_completed + self._virtual_cycles()
        return self._cycles_completed

    def current_file(self, name: str) -> CarouselFile:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotInCarouselError(f"{name!r} not in carousel") from None

    def schedule_snapshot(self, origin_time: float) -> CarouselSchedule:
        """Analytic schedule matching the *current* content."""
        return CarouselSchedule(
            list(self._files.values()), self.channel.beta_bps,
            section_format=self.section_format, origin_time=origin_time)

    def add_file(self, file: CarouselFile) -> None:
        """Queue a new file for the next repetition."""
        if file.name in self._files or self._pending_updates.get(file.name):
            raise CarouselError(f"file {file.name!r} already present")
        self._pending_updates[file.name] = file
        self._wake_at_boundary()

    def replace_file(self, file: CarouselFile) -> None:
        """Queue a replacement (new content/metadata) for the next
        repetition.  The replacement's version must advance past the
        currently carried one."""
        current = self._pending_updates.get(file.name) or \
            self._files.get(file.name)
        if current is None:
            raise FileNotInCarouselError(f"{file.name!r} not in carousel")
        if file.version <= current.version:
            raise CarouselError(
                f"replacement of {file.name!r} must advance the version "
                f"({file.version} <= {current.version})")
        self._pending_updates[file.name] = file
        self._wake_at_boundary()

    def remove_file(self, name: str) -> None:
        """Queue removal of ``name`` at the next repetition."""
        if name not in self._files and name not in self._pending_updates:
            raise FileNotInCarouselError(f"{name!r} not in carousel")
        self._pending_updates[name] = None
        self._wake_at_boundary()

    @property
    def cycles_skipped(self) -> int:
        """Repetitions suppressed by :meth:`interrupt_for` so far."""
        return self._cycles_skipped

    def interrupt_for(self, cycles: int) -> None:
        """Suppress the next ``cycles`` repetitions (head-end fault).

        The gap starts at the next cycle boundary — an in-flight
        repetition finishes, as a real carousel generator drains its
        section buffer — and transmission resumes on the *same* cycle
        grid ``cycles`` boundaries later, so receivers re-join exactly
        where the timetable says the post-gap repetitions are.  Pending
        reads survive the gap and complete at the first post-gap
        transmission of their file.  Repeated calls extend the gap.
        """
        cycles = int(cycles)
        if cycles <= 0:
            raise CarouselError(f"cycles must be > 0, got {cycles}")
        if not self._running:
            raise CarouselError(f"carousel {self.name!r} is stopped")
        self._skip_cycles += cycles
        if self._parked and not self._wake.triggered:
            self._wake.succeed(None)

    def stop(self) -> None:
        """Stop transmitting after the in-flight file completes."""
        self._running = False
        if self._parked:
            # Materialize the virtually elapsed cycles before the
            # interrupt tears the parked loop down.
            self._cycles_completed += self._virtual_cycles()
            self._parked = False
        if self._process.alive:
            self._process.interrupt("carousel stopped")

    # -- reading ------------------------------------------------------------
    def read(self, name: str) -> Event:
        """Event completing when the next full transmission of ``name``
        (starting at or after now) has been received.

        The event's value is the :class:`CarouselFile` actually read —
        including its version, so readers observe updates naturally.
        """
        if (name not in self._files
                and self._pending_updates.get(name) is None):
            raise FileNotInCarouselError(f"{name!r} not in carousel")
        ev = self.sim.event(name=f"{self.name}.read({name})")
        self.listen(name, ev, self.sim.now)
        self._reads[name][2] += 1
        return ev

    def listen(self, name: str, callback, now: float) -> None:
        """:meth:`read` for a poll loop, requested at the current
        simulated time ``now``: the settling window gives it one urgent
        calendar entry — the entry a process waiting on the read's event
        would get, in a kernel run with the window's other listeners —
        calling ``callback(file, now)`` with the instant it
        runs at, which a loop re-arming from its callback passes back
        here; no event is built (a read queues its :class:`Event` here,
        settled in place).  ``name`` is not checked: a poll loop re-arms
        every repetition."""
        queue = self._reads[name]
        queue[0].append(now)
        queue[1].append(callback)
        self._n_reads += 1
        if self._parked and not self._wake.triggered:
            self._wake.succeed(None)

    # -- transmission loop -----------------------------------------------------
    def _apply_pending_updates(self) -> None:
        for name, file in self._pending_updates.items():
            if file is None:
                self._files.pop(name, None)
            else:
                self._files[name] = file
        self._pending_updates.clear()

    def _rebuild_timetable(self) -> None:
        """Recompute the per-epoch timetable from the current content.

        Accumulates offsets exactly like :class:`CarouselSchedule` so
        the event-driven carousel matches the analytic view bit-for-bit
        given the same anchor.
        """
        beta = self.channel.beta_bps
        offset = self.section_format.cycle_control_bits() / beta
        segments: List[Tuple[CarouselFile, float, float]] = []
        for f in self._files.values():
            wire = self.section_format.wire_bits(f.size_bits)
            segments.append((f, wire, offset))
            offset += wire / beta
        self._segments = segments
        self._cycle_time = offset

    def _grid_time(self, index: int) -> float:
        """Absolute start time of repetition ``index`` of this epoch."""
        return self._epoch_anchor + index * self._cycle_time

    def _transmit_loop(self):
        try:
            self._epoch_anchor = self.sim.now
            self._epoch_index = 0
            self._rebuild_timetable()
            while self._running:
                if self._skip_cycles:
                    # Interruption gap: advance along the cycle grid
                    # without transmitting.  The grid itself is
                    # untouched, so post-gap instants are the same
                    # floats a never-interrupted carousel would use for
                    # those repetitions.
                    if self.sim.now > self._grid_time(self._epoch_index) \
                            + 1e-9:
                        # A repetition is in progress (fast-forward wake
                        # mid-cycle): it finishes before the gap starts,
                        # exactly as the live loop's in-flight cycle
                        # would — keeps fast_forward on/off identical.
                        self._cycles_completed += 1
                        self._epoch_index += 1
                    skip = self._skip_cycles
                    self._skip_cycles = 0
                    self._cycles_skipped += skip
                    resume = self._grid_time(self._epoch_index + skip)
                    if self._trace is not None:
                        self._trace.emit(
                            self.sim.now, "interrupted", carousel=self.name,
                            skipped=skip, resume=resume)
                    self._epoch_index += skip
                    delay = resume - self.sim.now
                    if delay > 0:
                        yield delay
                    continue
                if self._pending_updates:
                    # Content changes apply between repetitions.  The new
                    # epoch is anchored at the grid boundary — never at
                    # sim.now — so parked and live loops keep identical
                    # float arithmetic.
                    self._epoch_anchor = self._grid_time(self._epoch_index)
                    self._epoch_index = 0
                    self._apply_pending_updates()
                    if not self._files:
                        raise CarouselError(
                            f"carousel {self.name!r} emptied by updates")
                    self._rebuild_timetable()
                if (self.fast_forward and not self._n_reads
                        and not self._pending_updates):
                    yield from self._park()
                    if not self._running:
                        break
                    at_boundary = (self._grid_time(self._epoch_index)
                                   >= self.sim.now - 1e-9)
                    if not self._n_reads or (
                            self._pending_updates and at_boundary):
                        # Boundary wake: updates queued while parked (or
                        # a read landing on the boundary itself with
                        # updates pending) — loop around to apply them
                        # before transmitting, as the live loop would.
                        continue
                    yield from self._replay_tail()
                    continue
                yield from self._transmit_cycle()
        except Interrupt:
            pass
        # Stopped: the queued reads can no longer settle.
        self._reads.clear()
        self._n_reads = 0

    def _transmit_cycle(self):
        """Transmit one full repetition pinned to the cycle grid."""
        trace = self._trace
        if trace is not None:
            trace.emit(self._grid_time(self._epoch_index), "cycle_start",
                       carousel=self.name, cycle=self._cycles_completed + 1,
                       files=len(self._segments))
        yield from self._transmit_from(self._grid_time(self._epoch_index),
                                       None)
        self._cycles_completed += 1
        self._epoch_index += 1

    def _transmit_from(self, cycle_start: float, woke_at: Optional[float]):
        """Transmit the repetition starting at ``cycle_start``.

        When ``woke_at`` is given (fast-forward wake mid-cycle), windows
        that opened before it are skipped — nothing was tuned in, and a
        read requested now could not use them anyway
        (``wait_for_start``).  All transmission instants come from the
        grid, so the two modes are float-for-float identical.
        """
        if woke_at is None or cycle_start >= woke_at - 1e-9:
            # Control sections (DSI/DII) open the repetition.
            control = Message(
                sender=self.name, payload_bits=max(
                    0.0, self.section_format.cycle_control_bits()
                    - DEFAULT_HEADER_BITS),
                payload=("dsmcc-control", self._cycles_completed + 1))
            yield self.channel.transmit_at(control, cycle_start)
        trace = self._trace
        for file, wire, offset in self._segments:
            tx_start = cycle_start + offset
            if woke_at is not None and tx_start < woke_at - 1e-9:
                continue
            if trace is not None:
                trace.emit(tx_start, "transmit", carousel=self.name,
                           file=file.name, version=file.version)
            msg = Message(
                sender=self.name,
                payload_bits=max(0.0, wire - DEFAULT_HEADER_BITS),
                payload=("dsmcc-file", file, tx_start))
            yield self.channel.transmit_at(msg, tx_start)
            self._complete_reads(file, tx_start)

    # -- fast-forward ------------------------------------------------------
    def _virtual_cycles(self) -> int:
        """Whole cycles virtually elapsed since the loop parked."""
        return int((self.sim.now - self._grid_time(self._park_index))
                   / self._cycle_time + 1e-9)

    def _park(self):
        """Suspend transmission; cycles elapse arithmetically on the
        grid until a read (or a boundary wake for a queued update)
        resumes the loop."""
        self._park_index = self._epoch_index
        self._park_epoch += 1
        self._parked = True
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "park", carousel=self.name,
                       cycle=self._cycles_completed)
        self._wake = self.sim.event(name=f"{self.name}.wake")
        yield self._wake
        self._parked = False
        self._wake = None
        elapsed = self._virtual_cycles()
        self._cycles_completed += elapsed
        self._epoch_index = self._park_index + elapsed
        if trace is not None:
            trace.emit(self.sim.now, "wake", carousel=self.name,
                       virtual_cycles=elapsed)

    def _wake_at_boundary(self) -> None:
        """Arm a wake at the next virtual cycle boundary (update queued
        while parked): content changes apply between repetitions, so the
        loop must resume there before the cycle length changes."""
        if not self._parked:
            return
        boundary = self._grid_time(
            self._park_index + self._virtual_cycles() + 1)
        self.sim.call_at(max(boundary, self.sim.now),
                         self._boundary_wake, self._park_epoch)

    def _boundary_wake(self, epoch: int) -> None:
        if (self._parked and epoch == self._park_epoch
                and not self._wake.triggered):
            self._wake.succeed(None)

    def _replay_tail(self):
        """Resume mid-cycle after a read woke the parked loop.

        Transmits the remainder of the in-progress virtual cycle —
        the same grid arithmetic as :meth:`_transmit_cycle`, just with
        already-elapsed windows skipped.
        """
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "replay_tail", carousel=self.name,
                       cycle=self._cycles_completed + 1)
        yield from self._transmit_from(self._grid_time(self._epoch_index),
                                       self.sim.now)
        self._cycles_completed += 1
        self._epoch_index += 1

    def _complete_reads(self, file: CarouselFile, tx_start: float) -> None:
        # The epsilon keeps a read whose request timestamp sits within a
        # float ulp of the window start in *this* window instead of
        # costing it a whole cycle; both transmit paths use the same
        # tolerance, so fast-forward cannot change the outcome.
        queue = self._reads.get(file.name)
        k = bisect_right(queue[0], tx_start + 1e-9) if queue else 0
        if not k:
            return
        times, waiters, events = queue
        settled = waiters[:k]
        del times[:k], waiters[:k]
        self._n_reads -= k
        # Listeners settle as kernel runs, one calendar entry each; a
        # read's Event succeeds in place between them, in queue order.
        args = (file, self.sim.now)
        start = 0
        for i in range(k if events else 0):
            if settled[i].__class__ is Event:
                self.sim.call_soon_each(settled[start:i], args)
                queue[2] -= 1
                settled[i].succeed(file)
                start = i + 1
        self.sim.call_soon_each(settled[start:], args)
