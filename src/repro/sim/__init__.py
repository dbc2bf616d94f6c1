"""Discrete-event simulation kernel used by every substrate.

Public surface:

* :class:`~repro.sim.core.Simulator` — clock + event calendar.
* :class:`~repro.sim.core.Event` — triggerable one-shot events.
* :class:`~repro.sim.process.Process` / :class:`~repro.sim.process.Interrupt`
  — generator-based processes.
* :class:`~repro.sim.wheel.TimerWheel` — shared slotted periodic timers.
* Monitors: ``TimeSeries``, ``Counter``.
"""

from repro.sim.core import (
    Event,
    EventHandle,
    Simulator,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)
from repro.sim.monitor import Counter, TimeSeries
from repro.sim.process import Interrupt, Process
from repro.sim.rng import derive_generator, derive_seed
from repro.sim.wheel import TimerWheel

__all__ = [
    "TimerWheel",
    "Simulator",
    "Event",
    "EventHandle",
    "Process",
    "Interrupt",
    "TimeSeries",
    "Counter",
    "derive_seed",
    "derive_generator",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LATE",
]
