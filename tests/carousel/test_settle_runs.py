"""A carousel window settles its listeners as kernel runs.

``ObjectCarousel._complete_reads`` hands the listeners a file window
settles to the kernel as ``call_soon_each`` runs, each ``Event`` read
succeeding in place between them.  ``_PerWaiterCarousel`` keeps the
per-waiter settle it replaced — one queue of ``(request_time, waiter)``,
one ``schedule_fast`` per listener and one ``succeed`` per read, in
queue order — as the oracle.  Both must give the same kernel dispatch
sequence, ``events_executed`` and delivered values for

* one window holding reads and listeners interleaved at the same
  request instant, requested exactly at the window start and 1e-9 and
  2e-9 either side of it, with fast-forward on and off;
* listeners that refuse a new version once and take it at the next
  repetition, and a listener member that schedules a same-instant
  entry below ``PRIORITY_URGENT`` (it runs before the next member);
* the PNA Xlet's refused wakeup (a tampered signature) retried by the
  real config listener every repetition until a clean republish lands.
"""

from collections import deque

import pytest

from repro import dtv_oddci
from repro.carousel import CarouselFile, ObjectCarousel, SectionFormat
from repro.core.instance import reset_instance_sequence
from repro.dtv import transport
from repro.dtv_oddci import OddCIDTVSystem
from repro.net import DEFAULT_HEADER_BITS, BroadcastChannel
from repro.net.crypto import reset_key_sequence
from repro.net.message import (MEGABYTE, bits_from_bytes,
                               reset_message_sequence)
from repro.sim.core import PRIORITY_URGENT, Event, Simulator
from repro.workloads import uniform_bag
from repro.workloads.job import reset_job_sequence
from tests.carousel.updates import update_file

RAW = SectionFormat(block_payload_bytes=10**9, section_overhead_bytes=0,
                    control_overhead_bytes=DEFAULT_HEADER_BITS // 8)


class _PerWaiterCarousel(ObjectCarousel):
    """The oracle: every settled waiter handled on its own."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._queues = {}

    def read(self, name):
        ev = self.sim.event(name=f"{self.name}.read({name})")
        self.listen(name, ev, self.sim.now)
        return ev

    def listen(self, name, callback, now):
        self._queues.setdefault(name, deque()).append((now, callback))
        self._n_reads += 1
        if self._parked and not self._wake.triggered:
            self._wake.succeed(None)

    def _complete_reads(self, file, tx_start):
        queue = self._queues.get(file.name)
        now = self.sim.now
        while queue and queue[0][0] <= tx_start + 1e-9:
            waiter = queue.popleft()[1]
            self._n_reads -= 1
            if waiter.__class__ is Event:
                waiter.succeed(file)
            else:
                self.sim.schedule_fast(0.0, waiter, file, now,
                                       priority=PRIORITY_URGENT)


class _Poller:
    """A listener loop: logs each delivery and re-arms until ``stop_at``.

    ``refuse`` leaves each new version unconsumed at its first delivery,
    as a refused control message does; ``preempt`` schedules a
    same-instant entry below ``PRIORITY_URGENT`` at every delivery."""

    def __init__(self, label, sim, carousel, log, *, refuse=False,
                 preempt=False, stop_at=60.0):
        self.label = label
        self.sim = sim
        self.carousel = carousel
        self.log = log
        self.refuse = refuse
        self.preempt = preempt
        self.stop_at = stop_at
        self.consumed = -1
        self.refused = set()

    def __call__(self, file, now):
        self.log.append(("poll", self.sim.now, self.label, file.version,
                         now))
        if file.version > self.consumed:
            if self.refuse and file.version not in self.refused:
                self.refused.add(file.version)
            else:
                self.consumed = file.version
        if self.preempt:
            self.sim.schedule_fast(0.0, self.log.append,
                                   ("preempt", self.label), priority=-1)
        if self.sim.now < self.stop_at:
            self.carousel.listen(file.name, self, now)


def _label(callback):
    if isinstance(callback, _Poller):
        return callback.label
    return getattr(callback, "__qualname__", type(callback).__name__)


def _carousel_run(cls, fast_forward):
    """Dispatch trace, delivery log and kernel counters of one run."""
    trace, log, runs = [], [], []
    sim = Simulator(seed=1, trace=lambda time, cb, args: trace.append(
        (time, _label(cb))))
    channel = BroadcastChannel(sim, beta_bps=1000.0)
    files = [CarouselFile(name=name, size_bits=size - DEFAULT_HEADER_BITS)
             for name, size in (("pna", 2000.0), ("image", 6000.0),
                                ("config", 2000.0))]
    carousel = cls(sim, channel, files, section_format=RAW,
                   fast_forward=fast_forward)
    each = sim.call_soon_each

    def spy(callbacks, args):
        runs.append(len(callbacks))
        each(callbacks, args)

    sim.call_soon_each = spy
    schedule = carousel.schedule_snapshot(0.0)
    offset, _duration = schedule.window("config")

    def request(tag, stop_at):
        # listeners and reads interleaved at one request instant
        for j, kind in enumerate("LELLEL"):
            label = f"{tag}.{j}"
            if kind == "E":
                carousel.read("config").add_callback(
                    lambda ev, label=label: log.append(
                        ("read", sim.now, label, ev.value.version)))
            else:
                carousel.listen("config", _Poller(
                    label, sim, carousel, log, refuse=j == 2,
                    preempt=j == 3, stop_at=stop_at), sim.now)

    starts = {}
    for cycle, dt in enumerate((0.0, -1e-9, 1e-9, -2e-9, 2e-9)):
        start = starts[f"c{cycle}"] = \
            (2 * cycle + 1) * schedule.cycle_time + offset
        sim.schedule_at(start + dt, request, f"c{cycle}", start + 25.0)
    sim.schedule_at(30.0, update_file, carousel, "config")
    sim.schedule_at(47.0, update_file, carousel, "config")
    sim.run(until=110.0)
    # cycles each request group waited for its first settle
    first = {entry[2].split(".")[0]: entry[1] for entry in reversed(log)
             if entry[0] != "preempt"}
    waits = {tag: int((first[tag] - start) // schedule.cycle_time)
             for tag, start in starts.items()}
    return (trace, log, sim.events_executed, sim.queued_events,
            carousel._n_reads, waits, runs)


@pytest.mark.parametrize("fast_forward", [False, True],
                         ids=["live", "fast-forward"])
def test_listener_runs_settle_like_each_waiter_alone(fast_forward):
    got = _carousel_run(ObjectCarousel, fast_forward)
    want = _carousel_run(_PerWaiterCarousel, fast_forward)
    assert got[:6] == want[:6]
    trace, log, events, _queued, _left, waits, runs = got
    assert len(trace) == events
    assert not want[6]  # the oracle never builds a run
    assert max(runs) > 1  # windows settle listeners as runs
    # windows settled reads and listeners together, and a preempting
    # entry ran before the next member
    assert {e[1] for e in log if e[0] == "read"} & \
        {e[1] for e in log if e[0] == "poll"}
    assert log[log.index(("preempt", "c0.3")) + 1][2] == "c0.4"
    # requests at a window start, 1e-9 either side of it and 2e-9 before
    # it settle in that window; 2e-9 after it waits a whole cycle
    assert waits == {"c0": 0, "c1": 0, "c2": 0, "c3": 0, "c4": 1}
    # a refused version is taken at the next repetition
    assert [e[3] for e in log if e[0] == "poll" and e[2] == "c1.2"] == \
        [1, 2, 2, 3]


def _refused_wakeup(sim):
    """The refused-delivery retry of
    tests/faults/test_signature_corruption.py on three boxes."""
    for reset in (reset_instance_sequence, reset_job_sequence,
                  reset_message_sequence, reset_key_sequence):
        reset()
    system = OddCIDTVSystem(sim, beta_bps=1_000_000.0,
                            maintenance_interval_s=100.0,
                            pna_xlet_bits=bits_from_bytes(64 * 1024))
    boxes = system.add_receivers(3, heartbeat_interval_s=50.0,
                                 dve_poll_interval_s=10.0)
    sim.run(until=60.0)
    system.controller.corrupt_signatures(True)
    job = uniform_bag(10, image_bits=1 * MEGABYTE, ref_seconds=100.0)
    submission = system.provider.submit_job(
        job, target_size=2, heartbeat_interval_s=50.0)
    sim.run(until=260.0)
    record = system.controller.instance(submission.instance_id)
    refused_size = record.size
    system.controller.corrupt_signatures(False)
    sim.run(until=600.0)
    return {"refused_size": refused_size, "size": record.size,
            "dropped": [pna.dropped_bad_signature for pna in system.pnas],
            "versions": [box.app_manager.running_xlet(
                dtv_oddci.PNA_APP_ID)._last_config_version
                for box in boxes],
            "events_executed": sim.events_executed}


def test_refused_wakeup_retries_like_each_waiter_alone(monkeypatch):
    results = []
    for cls in (ObjectCarousel, _PerWaiterCarousel):
        monkeypatch.setattr(transport, "ObjectCarousel", cls)
        trace = []
        sim = Simulator(seed=7, trace=lambda time, cb, args, trace=trace:
                        trace.append((time, _label(cb))))
        results.append((trace, _refused_wakeup(sim)))
    assert results[0] == results[1]
    out = results[0][1]
    assert out["refused_size"] == 0 and out["size"] == 2
    assert min(out["dropped"]) > 1
