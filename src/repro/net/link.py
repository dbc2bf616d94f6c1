"""Point-to-point links — the paper's *direct channels*.

Each PNA has an individual full-duplex channel of capacity δ bps linking
it to the Controller and the Backend.  A :class:`Link` is one direction;
a :class:`DuplexChannel` pairs two links.

The transfer model is store-and-forward: a message of ``S`` bits on a
link of rate ``R`` with propagation latency ``L`` completes ``S/R + L``
seconds after its serialization starts.  The link serializes messages one
at a time in FIFO order (it is a single-server queue), which is what a
DSL uplink does.  Optional i.i.d. loss drops messages after
serialization; the completion event then *fails* with
:class:`~repro.errors.LinkDownError` if ``fail_on_loss`` else silently
never delivers (heartbeat-style fire-and-forget).

Storage is columnar: a link's serializer state (busy-until, bits sent,
deliveries, up flag, loss, rate, latency) is one row of a
:class:`LinkTable`.  A :class:`~repro.core.network.Router` moves the
direct channels it registers into its own tables, at the row of the
PNA's interned node index, so a heartbeat cohort reserves every
member's uplink in one :func:`offer_rows` pass; a standalone link takes
a row of its simulator's pooled table the first time it is used.  A
fleet registered in bulk writes its rows as columns and builds no
:class:`Link` up front: its owner materialises one over the row the
first time a scalar path needs it (:meth:`LinkTable.link`).
:meth:`Link.offer` is the scalar row operation and :func:`offer_rows`
the batch kernel; the FIFO reservation math lives in them alone
(``Link._reserve`` behind ``offer``/``send``, and the kernel's
vectorised pass).
"""

from __future__ import annotations

from array import array
from typing import Callable, List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError, LinkDownError, NetworkError
from repro.net.message import Message
from repro.sim.core import Event, Simulator
from repro.telemetry import trace as telemetry

__all__ = ["Link", "LinkTable", "DuplexChannel", "offer_rows",
           "count_deliveries", "column_view", "kbps", "mbps"]


def kbps(value: float) -> float:
    """Kilobits per second → bits per second."""
    return float(value) * 1_000.0


def mbps(value: float) -> float:
    """Megabits per second → bits per second."""
    return float(value) * 1_000_000.0


def column_view(column: array) -> np.ndarray:
    """Zero-copy numpy view of an ``array.array`` column.

    Views must not outlive the call that makes them: a column cannot
    grow while a view exports its buffer.
    """
    return np.frombuffer(column, dtype=column.typecode)


class LinkTable:
    """Serializer state of many links, one row per link.

    Columns are ``array.array`` objects: a scalar read returns a Python
    float or int (never a numpy scalar, whose repr would leak into event
    times and traces), a column keeps its identity as it grows, and
    :func:`offer_rows` views it zero-copy.  ``links[row]`` is the
    :class:`Link` holding the row (``None`` for a free row, or for a
    row written by :meth:`fill` whose link is not built yet); capacity
    grows by doubling, so placing a link writes its row in place.

    A table is used either *pooled* (:meth:`add` hands out recycled
    rows — the simulator's table of standalone links) or *by explicit
    row* (:meth:`put` — a Router's tables, keyed by node index).
    """

    __slots__ = ("busy", "bits", "delivered", "up", "loss", "rate",
                 "latency", "links", "_free", "_make")

    #: column order of a row-state tuple (see :meth:`row`).
    _COLUMNS = ("busy", "bits", "delivered", "up", "loss", "rate",
                "latency")

    def __init__(self, make: Optional[Callable[[int], "Link"]] = None
                 ) -> None:
        self.busy = array("d")
        self.bits = array("d")
        self.delivered = array("q")
        self.up = array("b")
        self.loss = array("d")
        self.rate = array("d")
        self.latency = array("d")
        self.links: List[Optional["Link"]] = []
        self._free: List[int] = []
        #: builds the missing :class:`Link` of a row written by fill()
        self._make = make

    def __len__(self) -> int:
        return len(self.links)

    def reserve(self, n: int) -> None:
        """Grow every column to at least ``n`` (zero-filled, free) rows."""
        grow = n - len(self.links)
        if grow <= 0:
            return
        for name in self._COLUMNS:
            column = getattr(self, name)
            column.frombytes(bytes(column.itemsize * grow))
        self.links.extend([None] * grow)

    def row(self, r: int) -> tuple:
        """Row ``r``'s state in :attr:`_COLUMNS` order."""
        return (self.busy[r], self.bits[r], self.delivered[r], self.up[r],
                self.loss[r], self.rate[r], self.latency[r])

    def fill(self, lo: int, hi: int, state: tuple) -> None:
        """Write ``state`` into rows ``[lo, hi)``, without links."""
        for name, value in zip(self._COLUMNS, state):
            column_view(getattr(self, name))[lo:hi] = value

    def link(self, r: int) -> "Link":
        """The :class:`Link` of row ``r``, built on first use."""
        link = self.links[r]
        return self._make(r) if link is None else link

    def put(self, link: "Link", r: int, state: tuple) -> int:
        """Write ``state`` into row ``r`` and hand the row to ``link``."""
        if r >= len(self.links):
            self.reserve(max(r + 1, 2 * len(self.links)))
        (self.busy[r], self.bits[r], self.delivered[r], self.up[r],
         self.loss[r], self.rate[r], self.latency[r]) = state
        self.links[r] = link
        return r

    def add(self, link: "Link", state: tuple) -> int:
        """Pooled placement: a recycled row if any, else a new one."""
        free = self._free
        if not free:
            grown = len(self.links)
            self.reserve(max(2 * grown, 8))
            free.extend(range(len(self.links) - 1, grown - 1, -1))
        return self.put(link, free.pop(), state)

    def release(self, r: int) -> None:
        """Free row ``r`` (pooled tables recycle it)."""
        self.links[r] = None
        self._free.append(r)

    @classmethod
    def of(cls, sim: Simulator) -> "LinkTable":
        """The simulator's pooled table of standalone links."""
        table = getattr(sim, "_link_table", None)
        if table is None:
            table = sim._link_table = cls()
        return table


class Link:
    """Unidirectional FIFO link with finite rate and propagation latency.

    Parameters
    ----------
    rate_bps:
        Serialization rate in bits/second (the paper's δ for direct
        channels).
    latency_s:
        One-way propagation delay added after serialization.
    loss:
        Probability that a message is lost in flight (i.i.d. per message).
    """

    __slots__ = (
        "sim", "name", "_rng_stream", "_ev_name", "_t", "_row", "_init",
        "_dropped", "_refused", "_receiver", "_trace", "_m_dropped",
        "_m_refused",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        latency_s: float = 0.0,
        *,
        loss: float = 0.0,
        name: str = "link",
        rng_stream: Optional[str] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"rate_bps must be > 0, got {rate_bps}")
        if latency_s < 0:
            raise ConfigurationError(f"latency_s must be >= 0, got {latency_s}")
        if not 0.0 <= loss < 1.0:
            raise ConfigurationError(f"loss must be in [0, 1), got {loss}")
        self.sim = sim
        self.name = name
        if rng_stream is not None:
            self._rng_stream = rng_stream
        # The row state until the link is placed in a table (lazily, see
        # __getattr__): a direct channel moves straight into its
        # Router's table without ever taking a pooled row.
        self._init = (sim.now, 0.0, 0, 1, float(loss), float(rate_bps),
                      float(latency_s))
        self._dropped = 0
        self._refused = 0
        self._receiver: Optional[Callable[[Message], None]] = None
        self._trace = telemetry.channel("net")
        t = self._trace
        self._m_dropped = t.counter("link.dropped") if t else None
        self._m_refused = t.counter("link.refused") if t else None

    def __getattr__(self, attr: str):
        # Lazily derived names: building a 10^6-link fleet should not
        # pay two f-string allocations per link for strings that only
        # the loss draw (``_rng_stream``) and the Event-returning send
        # path (``_ev_name``) ever read.
        if attr == "_rng_stream":
            value = f"link:{self.name}"
        elif attr == "_ev_name":
            value = self.name + ".send"
        elif attr in ("_t", "_row"):
            # First use of a link no table has taken: a pooled row.
            self.move_to(LinkTable.of(self.sim))
            return getattr(self, attr)
        else:
            raise AttributeError(attr)
        setattr(self, attr, value)
        return value

    def move_to(self, table: LinkTable, row: Optional[int] = None) -> int:
        """Move this link's state into ``table`` (at ``row``, or a pooled
        row when ``None``); returns the new row."""
        try:
            state = self._init
        except AttributeError:  # placed: carry the row over
            old, r = self._t, self._row
            state = old.row(r)
            old.release(r)
        else:
            del self._init
        self._t = table
        self._row = (table.add(self, state) if row is None
                     else table.put(self, row, state))
        return self._row

    def detach(self) -> None:
        """Move back to the simulator's pooled table (the owner of the
        current row no longer tracks this link)."""
        self.move_to(LinkTable.of(self.sim))

    # -- state ---------------------------------------------------------
    @property
    def rate_bps(self) -> float:
        return self._t.rate[self._row]

    @property
    def latency_s(self) -> float:
        return self._t.latency[self._row]

    @property
    def loss(self) -> float:
        return self._t.loss[self._row]

    @property
    def up(self) -> bool:
        return bool(self._t.up[self._row])

    def set_up(self, up: bool) -> None:
        """Administratively enable/disable the link (models node power)."""
        t, r = self._t, self._row
        t.up[r] = 1 if up else 0
        if not up:
            # Anything queued behind the serialization point stays queued
            # in the sender's model; the link itself is memoryless.
            t.busy[r] = self.sim.now

    @property
    def delivered(self) -> int:
        return self._t.delivered[self._row]

    @property
    def dropped(self) -> int:
        """Messages lost in flight (the i.i.d. loss draw)."""
        return self._dropped

    @property
    def refused(self) -> int:
        """Fire-and-forget messages silently swallowed by a down link."""
        return self._refused

    def _drop(self, reason: str) -> None:
        """Account (and trace) one message the receiver will never see."""
        if reason == "down":
            self._refused += 1
        else:
            self._dropped += 1
        t = self._trace
        if t is not None:
            t.emit(self.sim.now, "dropped", link=self.name, reason=reason)
            (self._m_refused if reason == "down" else self._m_dropped).inc()

    @property
    def bits_sent(self) -> float:
        return self._t.bits[self._row]

    @property
    def utilization_horizon(self) -> float:
        """Simulated time until which the serializer is committed."""
        return max(self._t.busy[self._row], self.sim.now)

    def attach(self, receiver: Callable[[Message], None]) -> None:
        """Register the delivery callback (the receiving component)."""
        self._receiver = receiver

    # -- transfer --------------------------------------------------------
    def serialization_time(self, message: Message) -> float:
        """Time to clock the message onto the wire."""
        return message.size_bits / self.rate_bps

    def _reserve(self, size_bits: float) -> float:
        """FIFO serializer reservation; returns the end of serialization."""
        t, r = self._t, self._row
        now = self.sim.now
        busy = t.busy
        start = busy[r]
        if now > start:
            start = now
        done = start + size_bits / t.rate[r]
        busy[r] = done
        t.bits[r] += size_bits
        return done

    def _lost(self) -> bool:
        """The i.i.d. loss draw (no draw on a loss-free link)."""
        loss = self._t.loss[self._row]
        return loss > 0.0 and bool(
            self.sim.rng(self._rng_stream).random() < loss)

    def send(self, message: Message, *, fail_on_loss: bool = False) -> Event:
        """Queue ``message`` for transmission; returns a completion event.

        The event succeeds with the message at delivery time; on loss it
        either fails (``fail_on_loss``) or never settles.  Sending on a
        downed link fails immediately.
        """
        ev = Event(self.sim, self._ev_name)
        if not self._t.up[self._row]:
            self.sim.schedule_fast(
                0.0, ev.fail, LinkDownError(f"link {self.name!r} is down"))
            return ev
        deliver_at = self._reserve(message.size_bits) + self.latency_s
        if self._lost():
            self._drop("loss")
            if fail_on_loss:
                self.sim.call_at(
                    deliver_at, ev.fail,
                    LinkDownError(f"message {message.msg_id} lost on "
                                  f"{self.name!r}"))
            return ev
        self.sim.call_at(deliver_at, self._deliver, message, ev)
        return ev

    def send_quiet(self, message: Message) -> None:
        """Fire-and-forget :meth:`send` — no completion :class:`Event`.

        For callers that ignore the completion event (requests, replies,
        heartbeats): identical FIFO math, byte accounting and loss draw
        (same RNG stream, same order), but no Event is allocated and a
        down link or a lost message simply never delivers (counted in
        :attr:`refused` / :attr:`dropped` and traced as ``net.dropped``).
        """
        deliver_at = self.offer(message.size_bits)
        if deliver_at is not None:
            self.sim.call_at(deliver_at, self._deliver_quiet, message)

    def _deliver_quiet(self, message: Message) -> None:
        self._t.delivered[self._row] += 1
        receiver = self._receiver
        if receiver is not None:
            receiver(message)

    def offer(self, size_bits: float) -> Optional[float]:
        """Reserve serializer time for ``size_bits``; return delivery time.

        The scalar row operation: :meth:`send` without the
        :class:`Message`/:class:`Event` allocations.  The FIFO math, byte
        accounting and the loss draw (same RNG stream, same order) are
        identical to :meth:`send`, so swapping one path for the other
        never perturbs timing or random streams; :func:`offer_rows` is
        the same operation over many rows.

        Returns ``None`` when the link is down or the message is lost
        (the caller counts the delivery at the returned time via
        :meth:`count_delivery`).
        """
        if not self._t.up[self._row]:
            self._drop("down")
            return None
        done = self._reserve(size_bits)
        if self._lost():
            self._drop("loss")
            return None
        return done + self._t.latency[self._row]

    def count_delivery(self) -> None:
        """Account one delivery arranged through :meth:`offer`."""
        self._t.delivered[self._row] += 1

    def _deliver(self, message: Message, ev: Event) -> None:
        self._t.delivered[self._row] += 1
        if self._receiver is not None:
            self._receiver(message)
        ev.succeed(message)

    def transfer_time(self, size_bits: float) -> float:
        """Unloaded end-to-end time for an abstract payload of this size."""
        if size_bits < 0:
            raise NetworkError(f"negative size {size_bits!r}")
        return size_bits / self.rate_bps + self.latency_s


def offer_rows(table: LinkTable, rows: np.ndarray,
               size_bits: Union[float, np.ndarray], now: float, *,
               distinct: bool = False) -> np.ndarray:
    """:meth:`Link.offer` on every row of ``rows``, in order.

    Returns the delivery times (float64, NaN where the link was down or
    the message lost).  Loss-free up rows are reserved in one vectorised
    pass — the same IEEE operations in the same order as the scalar
    path, so the results are bit-identical.  Lossy or down rows go
    through :meth:`Link.offer` one by one in row order, so loss draws,
    drop counters and ``net.dropped`` trace events are exactly the
    sequential ones.  A row repeated in ``rows`` must see its earlier
    reservations: its repeats take the scalar path after the vectorised
    pass (``distinct=True`` skips that check for callers that guarantee
    distinct rows).  ``size_bits`` is one size or one per row.
    """
    n = rows.size
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    sized = np.ndim(size_bits) > 0
    vec = (column_view(table.up)[rows] != 0) \
        & (column_view(table.loss)[rows] == 0.0)
    if not distinct:
        order = np.argsort(rows, kind="stable")
        ranked = rows[order]
        first = np.empty(n, dtype=bool)
        first[order[0]] = True
        first[order[1:]] = ranked[1:] != ranked[:-1]
        vec &= first
    whole = bool(vec.all())
    fast = rows if whole else rows[vec]
    if fast.size:
        size = size_bits if not sized or whole else size_bits[vec]
        busy = column_view(table.busy)
        done = np.maximum(busy[fast], now)
        done += size / column_view(table.rate)[fast]
        busy[fast] = done
        bits = column_view(table.bits)
        bits[fast] += size
        done += column_view(table.latency)[fast]
        if whole:
            return done
        out[vec] = done
    for k in np.flatnonzero(~vec).tolist():
        deliver_at = table.link(int(rows[k])).offer(
            float(size_bits[k]) if sized else size_bits)
        out[k] = np.nan if deliver_at is None else deliver_at
    return out


def count_deliveries(table: LinkTable, rows: np.ndarray) -> None:
    """:meth:`Link.count_delivery` on every row of ``rows`` (repeats
    count once per occurrence)."""
    np.add.at(column_view(table.delivered), rows, 1)


class DuplexChannel:
    """A full-duplex direct channel: independent uplink and downlink.

    This is the per-PNA channel from the paper (capacity δ each way).
    """

    __slots__ = ("name", "uplink", "downlink")

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        latency_s: float = 0.0,
        *,
        loss: float = 0.0,
        name: str = "channel",
    ) -> None:
        self.name = name
        self.uplink = Link(sim, rate_bps, latency_s, loss=loss,
                           name=f"{name}.up")
        self.downlink = Link(sim, rate_bps, latency_s, loss=loss,
                             name=f"{name}.down")

    def set_up(self, up: bool) -> None:
        self.uplink.set_up(up)
        self.downlink.set_up(up)

    @property
    def up(self) -> bool:
        return self.uplink.up and self.downlink.up
