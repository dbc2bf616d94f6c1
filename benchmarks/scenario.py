"""Shared pieces of the perf floors in this directory.

Each ``test_*_floor.py`` builds its own scenario from the public API;
what they share lives here: the :data:`SCENARIO` constants (change one
and every recorded number stops being comparable), the GC-off timing
policy, the uniform bag of the wakeup+heartbeat+BoT cycle and the raw
kernel microbench.

Measurement policy: the garbage collector is disabled for the timed
section (the ``timeit`` convention) and restored afterwards.  Wall
numbers are only comparable when runs interleave in fresh processes on
an otherwise idle machine; single runs on a shared host carry ±10%
noise (DESIGN.md §8).
"""

from __future__ import annotations

import gc
import time

from repro.net.message import MEGABYTE
from repro.sim.core import Simulator
from repro.workloads import uniform_bag

SCENARIO = {
    "tasks_per_node": 4,
    "ref_seconds": 5.0,
    "input_bits": 4096.0,
    "result_bits": 4096.0,
    "image_bits": float(MEGABYTE),  # 1 MB staged image
    "heartbeat_interval_s": 10.0,
    "maintenance_interval_s": 60.0,
    "dve_poll_interval_s": 15.0,
    "seed": 1,
    "kernel_tick_s": 1.0,
    "kernel_horizon_s": 30.0,
}


class gc_paused:
    """Disable collection for the timed section; restore on exit."""

    def __enter__(self):
        self._was_enabled = gc.isenabled()
        gc.disable()
        return self

    def __exit__(self, *exc):
        if self._was_enabled:
            gc.enable()
        return False


def cycle_bag(n_nodes: int):
    """The cycle's bag: ``tasks_per_node`` uniform tasks per PNA."""
    return uniform_bag(n_nodes * SCENARIO["tasks_per_node"],
                       image_bits=SCENARIO["image_bits"],
                       input_bits=SCENARIO["input_bits"],
                       ref_seconds=SCENARIO["ref_seconds"],
                       result_bits=SCENARIO["result_bits"])


def run_kernel(n_timers: int) -> dict:
    """Raw kernel churn: ``n_timers`` self-rescheduling callbacks.

    Every build executes the *same* number of events (timers fire once
    per tick until the horizon), so the events/sec ratio between two
    runs is a clean kernel-speed comparison.  A small per-timer phase
    stagger keeps the calendar from degenerating into one giant
    same-time bucket.
    """
    tick = SCENARIO["kernel_tick_s"]
    sim = Simulator(seed=1)
    schedule = sim.schedule_fast

    def timer(i: int) -> None:
        schedule(tick, timer, i)

    for i in range(n_timers):
        schedule(tick + (i % 97) * 1e-6, timer, i)
    with gc_paused():
        t0 = time.perf_counter()
        sim.run(until=SCENARIO["kernel_horizon_s"])
        wall_s = time.perf_counter() - t0
    events = sim.events_executed
    return {"events": events,
            "events_per_sec": events / wall_s if wall_s > 0 else 0.0}
