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
:class:`LinkTable` (loss, rate and latency once per distinct
profile).  A :class:`~repro.core.network.Router` moves the direct
channels it registers into its own tables, at the row of the
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
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError, LinkDownError
from repro.net.message import Message
from repro.sim.core import Event, Simulator
from repro.telemetry import trace as telemetry

__all__ = ["Link", "LinkTable", "HeldColumns", "DuplexChannel", "offer_rows",
           "count_deliveries", "column_view", "all_distinct", "as_index"]


def column_view(column: array) -> np.ndarray:
    """Zero-copy numpy view of an ``array.array`` column.

    A ``'q'`` column is viewed as ``np.int64``, not ``np.longlong``: the
    bits are the same, but only the canonical type hits ``ufunc.at``'s
    indexed fast loop.  Views must not outlive the call that makes
    them: a column cannot grow while a view exports its buffer.
    """
    code = column.typecode
    return np.frombuffer(column, dtype=np.int64 if code == "q" else code)


def all_distinct(values: np.ndarray) -> bool:
    """True when no value repeats, in O(n log n): a sort and an
    adjacent compare (plain ``np.unique`` is a hash table, far slower
    on large columns), skipped when ``values`` is already ascending."""
    if values.size < 2 or bool((values[1:] > values[:-1]).all()):
        return True
    ranked = np.sort(values)
    return bool((ranked[1:] != ranked[:-1]).all())


def as_index(rows) -> Union[slice, np.ndarray]:
    """``slice(lo, hi)`` when ``rows`` (an int array or a ``range``) is
    the ascending run ``lo, lo + 1, ..., hi - 1``, else ``rows`` itself.
    Either form selects the same elements in the same order; through a
    slice a read is a view (copy it to keep it past a write) and a write
    needs no scatter."""
    if type(rows) is range:
        return slice(rows.start, rows.stop)
    n = rows.size
    if n and rows[n - 1] - rows[0] == n - 1 and (
            n == 1 or bool((rows[1:] > rows[:-1]).all())):
        lo = int(rows[0])
        return slice(lo, lo + n)
    return rows


class HeldColumns:
    """``array`` columns of ``_n`` rows, named in ``_COLUMNS``, whose
    rows past a column's length all hold its *held* value (``_held``): a
    number, or a ``range`` ``h`` for the run ``h.start + r`` at row ``r``.
    A pass that writes one value (or a ``range``) into every row of a
    column no row has grown (``len`` 0), or its held value into any
    rows, only sets that value (:meth:`store`); any other write, and a
    row read, first grow the column filled with it (:meth:`column`, the
    one path that grows one).  So a column a lockstep cohort keeps at
    one value, or at ``k + c``, costs no rows."""

    __slots__ = ("_n", "_held", "_short")
    _COLUMNS: tuple = ()

    def reserve(self, n: int) -> None:
        """Grow to at least ``n`` rows."""
        if n > self._n:
            self._n, self._short = n, True

    def column(self, name: str) -> array:
        """Column ``name``, grown to ``_n`` rows with its held value."""
        column = getattr(self, name)
        have = len(column)
        if have < self._n:
            column.frombytes(bytes((self._n - have) * column.itemsize))
            held = self._held[name]
            if type(held) is range:
                column_view(column)[have:] = np.arange(
                    held.start + have, held.start + self._n)
            elif held:
                column_view(column)[have:] = held
        return column

    def grown(self) -> "HeldColumns":
        """These columns, each grown to ``_n`` rows."""
        if self._short:
            self._short = False
            for name in self._COLUMNS:
                self.column(name)
        return self

    def value(self, name: str, row: int):
        """Column ``name`` at ``row``, growing nothing."""
        try:
            return getattr(self, name)[row]
        except IndexError:  # past the column: its held value
            held = self._held[name]
            return held.start + row if type(held) is range else held

    def values(self, name: str, rows: Union[slice, np.ndarray]):
        """Column ``name`` at ``rows``: its held value (a run's: a
        ``range`` over a slice, else an array), or a view."""
        if len(getattr(self, name)):
            return column_view(self.column(name))[rows]
        held = self._held[name]
        if type(held) is not range:
            return held
        if type(rows) is slice:
            return range(held.start + rows.start, held.start + rows.stop)
        return rows + held.start

    def view(self, name: str, rows: Union[slice, np.ndarray]) -> np.ndarray:
        """:meth:`values` as an array (a held value broadcast, read-only)."""
        values = self.values(name, rows)
        if type(values) is range:
            return np.arange(values.start, values.stop)
        n = len(range(self._n)[rows]) if type(rows) is slice else len(rows)
        return values if np.ndim(values) else np.broadcast_to(
            np.array(values, getattr(self, name).typecode), (n,))

    def store(self, name: str, rows: Union[slice, np.ndarray],
              values) -> None:
        """Write ``values`` (a ``range``: its run) into column ``name`` at
        ``rows`` (an :func:`as_index`), held as described above when it
        can be."""
        whole = type(rows) is slice and rows == slice(0, self._n)
        held = self._held[name]
        if type(values) is range:
            if type(rows) is slice and not len(getattr(self, name)) and (
                    whole or type(held) is range
                    and held.start == values.start - rows.start):
                start = values.start - rows.start
                self._held[name] = range(start, start)
                return
            values = np.arange(values.start, values.stop)
        one = np.asarray(values)
        if not len(getattr(self, name)) and (one.ndim == 0 or one.size and (
                one.strides == (0,) or bool((one == one.flat[0]).all()))):
            value = one.flat[0].item()
            if whole or type(held) is not range and value == held:
                self._held[name] = value
                return
        column_view(self.column(name))[rows] = values

    def bump(self, name: str, rows: Union[slice, np.ndarray]) -> None:
        """Add one to column ``name`` at ``rows`` (as :meth:`store`)."""
        self.store(name, rows, self.values(name, rows) + 1)


class LinkTable(HeldColumns):
    """Serializer state of many links, one row per link.

    Columns are ``array.array`` objects: a scalar read returns a Python
    float or int (never a numpy scalar, whose repr would leak into event
    times and traces), a column keeps its identity as it grows, and
    :func:`offer_rows` views it zero-copy.  A link never changes its
    loss, rate and latency, so they are kept once per distinct triple, a
    *profile*: row ``r``'s are ``loss[p]``, ``rate[p]`` and
    ``latency[p]`` at ``p = profile[r]`` (profile 0 is a free row's
    zeros).  ``links`` maps each row a :class:`Link` holds to it (a
    free row, or one written by :meth:`fill` whose link is not built
    yet, has none); capacity grows by doubling, so placing a link writes
    its row in place.  The per-row columns are :class:`HeldColumns`
    (each held at 0 until a pass sets it), so rows :meth:`fill` leaves
    at a held value cost nothing until a row or a pass needs them, and
    a lockstep fleet's ``busy``, ``bits`` and ``delivered`` stay one
    value each.

    A table is used either *pooled* (:meth:`add` hands out recycled
    rows — the simulator's table of standalone links) or *by explicit
    row* (:meth:`put` — a Router's tables, keyed by node index).
    """

    __slots__ = ("busy", "bits", "delivered", "up", "profile", "loss",
                 "rate", "latency", "_profiles", "links", "_free", "_make")

    #: the per-row columns (a row-state tuple, see :meth:`row`, holds
    #: the first four, then the profile's loss, rate and latency)
    _COLUMNS = ("busy", "bits", "delivered", "up", "profile")

    def __init__(self, make: Optional[Callable[[int], "Link"]] = None
                 ) -> None:
        self.busy = array("d")
        self.bits = array("d")
        self.delivered = array("q")
        self.up = array("b")
        self.profile = array("i")
        self.loss = array("d", (0.0,))
        self.rate = array("d", (0.0,))
        self.latency = array("d", (0.0,))
        #: profile by its (loss, rate, latency)
        self._profiles: Dict[tuple, int] = {(0.0, 0.0, 0.0): 0}
        self.links: Dict[int, "Link"] = {}
        self._free: List[int] = []
        #: builds the missing :class:`Link` of a row written by fill()
        self._make = make
        self._n, self._short = 0, False
        self._held = dict.fromkeys(self._COLUMNS, 0)

    def __len__(self) -> int:
        return self._n

    def _profile_of(self, state: tuple) -> int:
        """The profile of ``state``'s loss, rate and latency, added on
        first use."""
        triple = state[4:]
        p = self._profiles.get(triple)
        if p is None:
            p = self._profiles[triple] = len(self.rate)
            for column, value in zip((self.loss, self.rate, self.latency),
                                     triple):
                column.append(value)
        return p

    def row(self, r: int) -> tuple:
        """Row ``r``'s state: busy, bits, delivered, up, loss, rate,
        latency."""
        self.grown()
        p = self.profile[r]
        return (self.busy[r], self.bits[r], self.delivered[r], self.up[r],
                self.loss[p], self.rate[p], self.latency[p])

    def at(self, column: array, rows: Union[slice, np.ndarray]):
        """The ``loss``, ``rate`` or ``latency`` of the links at
        ``rows``: one value when the table has one profile besides the
        free rows' (a homogeneous fleet), else one per row."""
        if len(column) == 2:
            return column[1]
        return column_view(column)[self.values("profile", rows)]

    def lossless(self, rows: Union[slice, np.ndarray]):
        """Whether each of ``rows``' links is up and loss-free: a mask,
        or one answer for them all while ``up`` is held."""
        return (self.values("up", rows) != 0) \
            & (self.at(self.loss, rows) == 0.0)

    def fill(self, lo: int, hi: int, state: tuple) -> None:
        """Write ``state`` into the new rows ``[lo, hi)``, without links
        (:meth:`store`: a block that is every row leaves each column
        held)."""
        for name, value in zip(self._COLUMNS, (
                *state[:4], self._profile_of(state))):
            self.store(name, slice(lo, hi), value)

    def link(self, r: int) -> "Link":
        """The :class:`Link` of row ``r``, built on first use."""
        link = self.links.get(r)
        return self._make(r) if link is None else link

    def put(self, link: "Link", r: int, state: tuple) -> int:
        """Write ``state`` into row ``r`` and hand the row to ``link``."""
        if r >= self._n:
            self.reserve(max(r + 1, 2 * self._n))
        self.grown()
        (self.busy[r], self.bits[r], self.delivered[r], self.up[r]) = \
            state[:4]
        self.profile[r] = self._profile_of(state)
        self.links[r] = link
        return r

    def add(self, link: "Link", state: tuple) -> int:
        """Pooled placement: a recycled row if any, else a new one."""
        free = self._free
        if not free:
            grown = self._n
            self.reserve(max(2 * grown, 8))
            free.extend(range(self._n - 1, grown - 1, -1))
        return self.put(link, free.pop(), state)

    def release(self, r: int) -> None:
        """Free row ``r`` (pooled tables recycle it)."""
        self.links.pop(r, None)
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
    ) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"rate_bps must be > 0, got {rate_bps}")
        if latency_s < 0:
            raise ConfigurationError(f"latency_s must be >= 0, got {latency_s}")
        if not 0.0 <= loss < 1.0:
            raise ConfigurationError(f"loss must be in [0, 1), got {loss}")
        self.sim = sim
        self.name = name
        # The row state until the link is placed in a table (lazily, see
        # __getattr__): a direct channel moves straight into its
        # Router's table without ever taking a pooled row.
        self._init = (sim.now, 0.0, 0, 1, float(loss), float(rate_bps),
                      float(latency_s))
        self._dropped = 0
        self._refused = 0
        self._receiver: Optional[Callable[[Message], None]] = None
        self._trace = telemetry.channel("net")
        registry = telemetry.metrics_registry()
        self._m_dropped = self._m_refused = None
        if registry is not None:
            self._m_dropped = registry.counter("link.dropped")
            self._m_refused = registry.counter("link.refused")

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
        t = self._t
        return t.rate[t.profile[self._row]]

    @property
    def latency_s(self) -> float:
        t = self._t
        return t.latency[t.profile[self._row]]

    @property
    def loss(self) -> float:
        t = self._t
        return t.loss[t.profile[self._row]]

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
        if self._m_dropped is not None:
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
    def _reserve(self, size_bits: float) -> float:
        """FIFO serializer reservation; returns the end of serialization."""
        t, r = self._t, self._row
        now = self.sim.now
        busy = t.busy
        start = busy[r]
        if now > start:
            start = now
        done = start + size_bits / t.rate[t.profile[r]]
        busy[r] = done
        t.bits[r] += size_bits
        return done

    def _lost(self) -> bool:
        """The i.i.d. loss draw (no draw on a loss-free link)."""
        t = self._t
        loss = t.loss[t.profile[self._row]]
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
        t, r = self._t, self._row
        if not t.up[r]:
            self._drop("down")
            return None
        done = self._reserve(size_bits)
        if self._lost():
            self._drop("loss")
            return None
        return done + t.latency[t.profile[r]]

    def count_delivery(self) -> None:
        """Account one delivery arranged through :meth:`offer`."""
        self._t.delivered[self._row] += 1

    def _deliver(self, message: Message, ev: Event) -> None:
        self._t.delivered[self._row] += 1
        if self._receiver is not None:
            self._receiver(message)
        ev.succeed(message)


def offer_rows(table: LinkTable, rows: Union[slice, np.ndarray],
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
    distinct rows; a slice from :func:`as_index` is distinct).
    ``size_bits`` is one size or one per row.
    """
    n = rows.stop - rows.start if type(rows) is slice else rows.size
    if n == 0:
        return np.empty(0)
    sized = np.ndim(size_bits) > 0
    vec = np.broadcast_to(table.lossless(rows), (n,))
    if not distinct and type(rows) is not slice:
        order = np.argsort(rows, kind="stable")
        ranked = rows[order]
        first = np.empty(n, dtype=bool)
        first[order[0]] = True
        first[order[1:]] = ranked[1:] != ranked[:-1]
        vec = vec & first
    whole = bool(vec.all())
    if not whole and type(rows) is slice:
        rows = np.arange(rows.start, rows.stop)
    fast = rows if whole else rows[vec]
    if whole or fast.size:
        size = size_bits if not sized or whole else size_bits[vec]
        done = np.maximum(table.values("busy", fast), now)
        done += size / table.at(table.rate, fast)
        table.store("busy", fast, done)
        table.store("bits", fast, table.values("bits", fast) + size)
        done += table.at(table.latency, fast)
        if whole:
            return done if np.ndim(done) else np.broadcast_to(done, (n,))
    out = np.empty(n, dtype=np.float64)
    if fast.size:
        out[vec] = done
    for k in np.flatnonzero(~vec).tolist():
        deliver_at = table.link(int(rows[k])).offer(
            float(size_bits[k]) if sized else size_bits)
        out[k] = np.nan if deliver_at is None else deliver_at
    return out


def count_deliveries(table: LinkTable, rows: Union[slice, np.ndarray]
                     ) -> None:
    """:meth:`Link.count_delivery` on every row of ``rows`` (repeats
    count once per occurrence)."""
    if type(rows) is slice:
        table.bump("delivered", rows)
    else:
        np.add.at(column_view(table.column("delivered")), rows, 1)


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
