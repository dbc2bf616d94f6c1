"""Per-file read queues settle exactly what the old list scan settled.

``ObjectCarousel`` keeps one FIFO of pending reads per file name and
settles a window's reads by popping the queue's prefix whose request
time is at most ``tx_start + 1e-9``.  ``_ListScanCarousel`` below keeps
the earlier bookkeeping — one list of every pending read, rescanned and
rebuilt after each file window — as the oracle: the settle order and
times of both must match, with fast-forward on and off, across an
``interrupt_for`` gap and for reads within 1e-9 of a window start.
"""

import pytest

from repro.carousel import CarouselFile, ObjectCarousel, SectionFormat
from repro.errors import FileNotInCarouselError
from repro.net import DEFAULT_HEADER_BITS, BroadcastChannel
from repro.sim import Simulator

RAW = SectionFormat(block_payload_bytes=10**9, section_overhead_bytes=0,
                    control_overhead_bytes=DEFAULT_HEADER_BITS // 8)


class _ListScanCarousel(ObjectCarousel):
    """The former read bookkeeping: one list of ``(name, request_time,
    event)``, every entry rescanned on every file window."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._pending_reads = []

    def read(self, name):
        if (name not in self._files
                and self._pending_updates.get(name) is None):
            raise FileNotInCarouselError(f"{name!r} not in carousel")
        ev = self.sim.event(name=f"{self.name}.read({name})")
        self._pending_reads.append((name, self.sim.now, ev))
        self._n_reads = len(self._pending_reads)
        if self._parked and not self._wake.triggered:
            self._wake.succeed(None)
        return ev

    def _complete_reads(self, file, tx_start):
        for name, request_time, event in self._pending_reads:
            if name == file.name and request_time <= tx_start + 1e-9:
                event.succeed(file)
        self._pending_reads = [p for p in self._pending_reads
                               if not p[2].triggered]
        self._n_reads = len(self._pending_reads)


def _carousel(cls, fast_forward):
    sim = Simulator(seed=1)
    channel = BroadcastChannel(sim, beta_bps=1000.0)
    files = [CarouselFile(name=name, size_bits=size - DEFAULT_HEADER_BITS)
             for name, size in (("pna", 2000.0), ("image", 6000.0),
                                ("config", 2000.0))]
    return sim, cls(sim, channel, files, section_format=RAW,
                    fast_forward=fast_forward)


def _settles(cls, fast_forward, requests, interrupt=None):
    """Settle log ``[(time, request index, file, version)]`` of
    ``requests`` (``(time, name)`` pairs) on a three-file carousel, and
    the reads left pending."""
    sim, carousel = _carousel(cls, fast_forward)
    log = []

    def request(i, name):
        carousel.read(name).add_callback(
            lambda e: log.append((sim.now, i, e.value.name,
                                  e.value.version)))

    for i, (t, name) in enumerate(requests):
        sim.schedule_at(t, request, i, name)
    if interrupt is not None:
        sim.schedule_at(interrupt[0], carousel.interrupt_for, interrupt[1])
    sim.schedule_at(25.0, carousel.update_file, "config")
    sim.run(until=120.0)
    carousel.stop()
    return log, carousel._n_reads


def _requests():
    """Reads at window starts (exact and within 1e-9 either side), mid
    window, several per instant, on every file, over eight cycles."""
    _sim, carousel = _carousel(ObjectCarousel, False)
    schedule = carousel.schedule_snapshot(0.0)
    out = []
    for cycle in range(8):
        base = cycle * schedule.cycle_time
        for name in ("pna", "image", "config"):
            offset, duration = schedule.window(name)
            for dt in (-5e-10, 0.0, 4e-10, 3e-9, 0.4 * duration):
                out.append((base + offset + dt, name))
        out.append((base + 0.53 * schedule.cycle_time, "image"))
        out.append((base + 0.53 * schedule.cycle_time, "config"))
    return sorted(out, key=lambda r: r[0])


@pytest.mark.parametrize("interrupt", [None, (17.0, 2), (43.5, 1)],
                         ids=["plain", "gap-2", "gap-1"])
@pytest.mark.parametrize("fast_forward", [False, True],
                         ids=["live", "fast-forward"])
def test_read_queues_settle_like_the_list_scan(fast_forward, interrupt):
    requests = _requests()
    got, left = _settles(ObjectCarousel, fast_forward, requests, interrupt)
    want, want_left = _settles(_ListScanCarousel, fast_forward, requests,
                               interrupt)
    assert got == want
    assert left == want_left
    # the oracle's list order and the queues' order agree read by read,
    # and the scenario really settles reads on every file
    assert {name for _t, _i, name, _v in got} == {"pna", "image", "config"}
    assert len(got) > 100


def test_fast_forward_does_not_change_settles():
    requests = _requests()
    for interrupt in (None, (17.0, 2)):
        live = _settles(ObjectCarousel, False, requests, interrupt)
        parked = _settles(ObjectCarousel, True, requests, interrupt)
        assert [(round(t, 9), i) for t, i, _n, _v in live[0]] == \
            [(round(t, 9), i) for t, i, _n, _v in parked[0]]
