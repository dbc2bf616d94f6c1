"""Shared slotted timers — one calendar entry for N periodic peers.

With 10^5 PNAs heartbeating every ``I`` seconds, per-node timers
dominate the event tier: every period costs N process resumes plus N
delivery events.  A :class:`TimerWheel` collapses a cohort of
same-interval, same-phase subscribers into **one** calendar entry per
tick: subscribers register a callback, the wheel fires every tick and
invokes them in subscription order.

Design points:

* Tick times are computed as ``origin + k * interval`` — never
  accumulated — so a wheel's timetable is drift-free over millions of
  ticks.
* Arming is lazy: the first subscriber arms the wheel (``origin`` is
  set to *now*), and a tick that finds no subscribers disarms it
  without rescheduling.  Re-arming resets the origin, so an idle wheel
  costs nothing.
* Stale in-flight ticks (scheduled before a disarm/re-arm) are killed
  by an epoch counter, mirroring the lazy-cancellation idiom of the
  kernel's handle path.

The wheel is domain-free; the heartbeat cohorts of
:mod:`repro.core.pna` are its first consumer.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.sim.core import Simulator
from repro.telemetry.trace import channel as _telemetry_channel

__all__ = ["TimerWheel"]

#: Tick callback: receives the tick time.
TickFn = Callable[[float], None]


class TimerWheel:
    """A shared periodic ticker with lazy arm/disarm.

    Parameters
    ----------
    interval_s:
        Tick period (must be positive and finite).
    """

    __slots__ = ("sim", "interval_s", "name", "_subs", "_sub_list",
                 "_next_token", "_armed", "_origin", "_k", "_epoch", "ticks",
                 "_trace")

    def __init__(self, sim: Simulator, interval_s: float, *,
                 name: str = "wheel") -> None:
        if not (interval_s > 0) or not math.isfinite(interval_s):
            raise ConfigurationError(
                f"interval_s must be positive and finite, got {interval_s!r}")
        self.sim = sim
        self.interval_s = float(interval_s)
        self.name = name
        self._subs: Dict[int, TickFn] = {}
        #: cached snapshot of ``_subs.values()`` in subscription order,
        #: invalidated on (un)subscribe — avoids a fresh list allocation
        #: on every tick of a stable cohort.
        self._sub_list: Optional[list] = None
        self._next_token = 0
        self._armed = False
        self._origin = 0.0
        self._k = 0
        self._epoch = 0
        self.ticks = 0
        self._trace = _telemetry_channel("kernel")

    # -- subscription ----------------------------------------------------
    @property
    def armed(self) -> bool:
        return self._armed

    def subscribe(self, callback: TickFn) -> int:
        """Register ``callback(tick_time)``; returns an unsubscribe token.

        The first subscriber arms the wheel: ticks run at
        ``now + k * interval_s`` for ``k = 1, 2, ...``.  Subscribers
        joining an armed wheel join its existing timetable.
        """
        token = self._next_token
        self._next_token += 1
        self._subs[token] = callback
        self._sub_list = None
        if not self._armed:
            self._arm()
        return token

    def unsubscribe(self, token: int) -> None:
        """Remove a subscriber (idempotent).

        The wheel disarms lazily: the next tick finds no subscribers and
        simply does not reschedule itself.
        """
        self._subs.pop(token, None)
        self._sub_list = None

    # -- ticking ---------------------------------------------------------
    def _arm(self) -> None:
        self._armed = True
        self._epoch += 1
        self._origin = self.sim.now
        self._k = 0
        self._schedule_next(self._epoch)

    def _schedule_next(self, epoch: int) -> None:
        self._k += 1
        target = self._origin + self._k * self.interval_s
        self.sim.call_at(target, self._fire, epoch, target)

    def _fire(self, epoch: int, tick_time: float) -> None:
        if epoch != self._epoch:
            return  # stale tick from before a disarm/re-arm cycle
        subs = self._subs
        if not subs:
            self._armed = False
            return  # lazy disarm: nobody is listening
        self.ticks += 1
        trace = self._trace
        if trace is not None:
            trace.emit(tick_time, "wheel_flush", wheel=self.name,
                       subscribers=len(subs))
        # The cached snapshot keeps iteration safe against subscriber
        # churn *during* the flush (which also invalidates the cache).
        callbacks = self._sub_list
        if callbacks is None:
            self._sub_list = callbacks = list(subs.values())
        for callback in callbacks:
            callback(tick_time)
        if subs:
            self._schedule_next(epoch)
        else:
            self._armed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "armed" if self._armed else "idle"
        return (f"<TimerWheel {self.name!r} every {self.interval_s:g}s "
                f"{state} subs={len(self._subs)}>")
