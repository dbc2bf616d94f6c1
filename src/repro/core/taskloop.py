"""Macro-PNA task engine — cohort-vectorised DVE client loops.

A woken PNA's DVE runs the voluntary-computing client loop of the
staged image (paper Section 3.2): request a task from the Backend,
compute it, ship the result back, repeat.  One generator frame per node
would cost every poll a process resume, an event allocation and two
calendar entries, which caps the event tier near 10^5 nodes.  This
module runs the protocol as a **cohort engine**: one engine
per (backend, instance) holds every member's in-flight state in
columnar arrays (struct-of-arrays, mirroring
:class:`~repro.core.census.ColumnarCensusStore`) and drives all members
off a shared **time-bucket wheel** — one calendar entry per *distinct
action instant*, not per member.  A bucket is an ordered list of
same-kind **runs**, each a slot column plus the payload columns its
kind needs, so a homogeneous cohort polls, computes and ships results
on a handful of calendar entries per round with no per-member object.

Equivalence contract (DESIGN.md §12): the engine replays exactly the
per-PNA reference semantics —

* link math goes through :meth:`~repro.net.link.Link.offer` or, for
  runs of at least ``_BULK_MIN`` members, its batch kernel
  :func:`~repro.net.link.offer_rows` (identical FIFO serialization,
  byte accounting and loss draws, same RNG streams, same order);
* the Backend serves cohort arrivals **in member order**, which equals
  the reference path's calendar order because bucket insertion happens
  chronologically during earlier processing;
* request timeouts, at-least-once result shipping, duplicate and
  undeliverable accounting follow the reference path case by case;
* when the job's ``done_event`` settles mid-bucket, the rest of the
  bucket is **deferred** to a fresh same-instant calendar entry so
  urgent completion callbacks (auto-release) interleave exactly as they
  do between the reference path's per-member deliveries.

A wakeup naming a backend id with no registered task server (the bare
capacity of ``Provider.request_instance*`` and the serve tier) starts
no client loop: :func:`engine_for` returns ``None`` and the node holds
its slot and keeps heartbeating.  The per-PNA generator loop is the
differential oracle, kept in ``tests/core/per_pna_dve.py`` and selected
by patching names in :mod:`repro.core.pna`, the way tests hand the
Controller the dict census store of ``tests/core/dict_census.py``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Any, List, Optional, Sequence, TYPE_CHECKING

import numpy as _np

from repro.errors import OddCIError
from repro.core.messages import CONTROL_PAYLOAD_BITS, NoWork, TaskAssignment
from repro.net.link import (HeldColumns, all_distinct, as_index,
                            column_view, count_deliveries, offer_rows)
from repro.net.message import DEFAULT_HEADER_BITS
from repro.sim.core import Simulator
from repro.workloads.job import TaskTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.backend import Backend
    from repro.core.network import Router
    from repro.core.pna import PNA

__all__ = ["CohortTaskEngine", "CohortDVE", "engine_for",
           "identity_executor"]

#: Wire size of a task request, a NoWork reply and an ack-less result
#: header: the control payload plus the message header.
_CONTROL_BITS = CONTROL_PAYLOAD_BITS + DEFAULT_HEADER_BITS

# Member phases (columnar ``_phase`` values).
_JOINED = 0        # slot created, first request not yet sent
_AWAIT_REPLY = 1   # request in flight, waiting for assignment / NoWork
_COMPUTING = 2     # task accepted, compute timer pending
_AWAIT_ACK = 3     # result in flight, waiting for delivery confirmation
_SLEEPING = 4      # NoWork(retry): parked on the poll wheel
_DONE = 5          # NoWork(None): bag dry, loop finished

# Run kinds.  A run is a list ``[kind, slots, *columns]``: ``slots``
# holds member slots in insertion order and the columns, aligned with
# it, hold only what the kind needs.  Entries are filed in
# chronological processing order and a filing extends the bucket's last
# run when it has the same kind, so a bucket replays its runs — and each
# run its members — in the reference path's seq order.  A column is an
# ``array`` of the type in :data:`_TYPES`; one filed by a column pass
# is kept as a ``range`` when it runs ``k, k + 1, ...`` (a lockstep
# hop's slots, a bag's task ids) and as a zero-stride numpy array when
# it holds one value (a uniform bag's sizes), so a hop costs O(1)
# bytes.  A per-member path first turns a run's columns into arrays
# (:meth:`CohortTaskEngine._arrays`), so its reads are Python numbers.
_K_SEND = 0        # member sends a task request now
_K_REQ_ARR = 1     # request arrives at the Backend
_K_ASSIGN_ARR = 2  # + task_id, ref_seconds, result_bits: assignment
                   #   arrives
_K_NOWORK_ARR = 3  # + retry (NaN = stop): NoWork arrives
_K_COMPUTE = 4     # compute finishes; ship the result
_K_RESULT_ARR = 5  # + task_id, token, digest: result arrives; copied
                   #   at send time
_K_DEADLINE = 6    # request/ack timeout check; the deadline is the
                   #   bucket's instant

#: each kind's column types: slots, then the payload columns
_TYPES = {_K_ASSIGN_ARR: "qqdd", _K_NOWORK_ARR: "qd", _K_RESULT_ARR: "qqiq"}

#: The member columns a lockstep hop writes one value into, with their
#: type and join value: the engine's :class:`~repro.net.link.HeldColumns`,
#: held as that value until a pass or a per-member path needs rows apart.
_HELD = {"_deadline": ("d", -1.0), "_token": ("i", 0),
         "_result_bits": ("d", 0.0), "_digest": ("q", 0),
         "_completed": ("i", 0), "_retrans": ("i", 0)}

#: Minimum run length for the numpy bulk branches (member masks, compute
#: times, link reservations, delivery counts); below it, scalar
#: operations win.
_BULK_MIN = 32

_NAN = float("nan")


def _view(column) -> _np.ndarray:
    """A run column (or a column pass's values) as a numpy array."""
    if type(column) is array:
        return column_view(column)
    if type(column) is range:
        return _np.arange(column.start, column.stop)
    return column


def _slots(slots):
    """A run's slots as a ``range`` or a numpy array, without a copy."""
    return slots if type(slots) is range else _view(slots)


def _append(column: array, values) -> array:
    """``column`` with ``values`` appended, at the column's type."""
    column.frombytes(memoryview(_np.ascontiguousarray(
        _view(values), dtype=column.typecode)).cast("B"))
    return column


def _extend(column, values, typecode: str):
    """Run column ``column`` (empty for a new run) followed by
    ``values``.  It stays compact while each part is and continues the
    last: a ``range`` while the values run ``k, k + 1, ...``, a
    zero-stride array while they repeat one value (by bits: -0.0 is not
    0.0); else it becomes an ``array`` of ``typecode``."""
    n = len(values)
    if type(values) is not range and n > 1:
        first = values[:1]
        if values.dtype.kind == "i" and values[n - 1] - first[0] == n - 1 \
                and bool((values[1:] > values[:-1]).all()):
            values = range(int(first[0]), int(first[0]) + n)
        elif bool((values.view(f"i{values.itemsize}")
                   == first.view(f"i{values.itemsize}")).all()):
            values = _np.broadcast_to(first.copy(), (n,))
    if type(values) is range or n > 1 and values.strides == (0,):
        if not len(column):
            return values
        if type(column) is type(values) is range \
                and column.stop == values.start:
            return range(column.start, values.stop)
        if type(column) is type(values) is _np.ndarray \
                and column[:1].tobytes() == values[:1].tobytes():
            return _np.broadcast_to(column[:1], (len(column) + n,))
    if type(column) is not array:
        column = _append(array(typecode), column)
    return _append(column, values)


def _arrays(run: list) -> list:
    """``run`` with every column an ``array``."""
    for i in range(1, len(run)):
        if type(run[i]) is not array:
            typecode = _TYPES.get(run[0], "q")[i - 1]
            run[i] = _append(array(typecode), run[i])
    return run


def _groups(times: _np.ndarray) -> list:
    """Split member positions by instant: ``[(time, positions)]``, each
    group's positions ascending and ``None`` meaning "every member".
    NaN times (nothing filed) are left out; group order is immaterial —
    each group goes to its own bucket."""
    if not times.size:
        return []
    t0 = times[0]
    if bool((times == t0).all()):
        return [(float(t0), None)]
    pos = _np.flatnonzero(times == times)
    if not pos.size:
        return []
    if pos.size < times.size:
        t0 = times[pos[0]]
        if bool((times[pos] == t0).all()):
            return [(float(t0), pos)]
        order = pos[_np.argsort(times[pos], kind="stable")]
    else:
        order = _np.argsort(times, kind="stable")
    ranked = times[order]
    cuts = (_np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
    starts = [0] + cuts
    ends = cuts + [order.size]
    return [(float(ranked[a]), order[a:b]) for a, b in zip(starts, ends)]


def engine_for(router: "Router", backend_id: str,
               instance_id: str) -> Optional["CohortTaskEngine"]:
    """Get or create the engine for ``(backend, instance)``.

    Returns ``None`` when no task server is registered under
    ``backend_id``: bare capacity, or a Backend after ``shutdown()``.
    The caller then starts no client loop.
    """
    backend = router._task_servers.get(backend_id)
    if backend is None:
        return None
    engine = router._task_engines.get(instance_id)
    if engine is None or engine.backend is not backend:
        engine = CohortTaskEngine(router.sim, router, backend, instance_id)
        router._task_engines[instance_id] = engine
        engine.code = len(router._engines)
        router._engines.append(engine)
    return engine


class CohortTaskEngine(HeldColumns):
    """Drives the DVE client loop of many members in columnar state.

    One engine per (Backend, instance).  Member slots are append-only;
    a destroyed member (reset, shutdown) is tombstoned and its pending
    bucket entries lapse lazily — the DVE disposal contract.  A loop
    over members one by one first grows the _HELD columns
    (:meth:`grown`), so its reads and writes are plain ``array`` ones.
    """

    _COLUMNS = tuple(_HELD)

    __slots__ = (
        "sim", "router", "backend", "backend_id", "instance_id", "code",
        "_buckets", "_memo_t", "_memo_bucket", "_compact",
        # columnar member state (struct-of-arrays)
        "_phase", "_deadline", "_token", "_task_id", "_result_bits",
        "_digest", "_completed", "_retrans", "_destroyed", "_row",
        # one entry per join_many call
        "_join_first", "_join_timeout", "_join_executor", "_plain",
        "members_joined",
    )

    def __init__(self, sim: Simulator, router: "Router",
                 backend: "Backend", instance_id: str) -> None:
        self.sim = sim
        self.router = router
        self.backend = backend
        self.backend_id = backend.backend_id
        self.instance_id = instance_id
        #: the engine's index in ``router._engines`` (set by
        #: engine_for): the value of its members' ``dve_engine`` rows
        self.code = 0
        #: time -> ordered run list; each distinct instant owns exactly
        #: one calendar entry (the DVE poll wheel generalised to every
        #: phase of the task loop).
        self._buckets: dict = {}
        #: instants whose bucket's last run may hold a column that is
        #: not an ``array`` (filed compact by :meth:`_file`)
        self._compact: set = set()
        # (time, list) memo for consecutive same-instant filings — the
        # common shape when a cohort marches in lockstep.  Invalidated
        # whenever a bucket is popped for firing.
        self._memo_t: Optional[float] = None
        self._memo_bucket: Optional[list] = None
        self._phase = array("b")
        self._task_id = array("q")
        #: the _HELD columns: ``_token`` is the number of the member's
        #: last result send; ``_digest`` the result digest of its
        #: current task: 0 = honest (wire ``None``); adversarial digests
        #: are always negative, so 0 can never collide
        #: (repro.certify.adversary digest model).
        for name, (code, _value) in _HELD.items():
            setattr(self, name, array(code))
        self._n, self._short = 0, False
        self._held = {name: value for name, (_c, value) in _HELD.items()}
        self._destroyed = array("b")
        #: the member's node index (int32): its links' row in the
        #: router's link tables and its row in the node columns and
        #: ``adversaries`` (every member is a PNA registered on
        #: ``router``).
        self._row = array("i")
        #: per join_many call (consecutive calls that share both
        #: merge): its first slot, request timeout and executor
        self._join_first: List[int] = []
        self._join_timeout: List[float] = []
        self._join_executor: List[Any] = []
        #: every member computes on :func:`identity_executor` (compute
        #: time is the task's)
        self._plain = True
        self.members_joined = 0

    # -- membership ------------------------------------------------------
    def join(self, pna: "PNA", timeout_s: float) -> int:
        """Add a member; returns its slot (:meth:`join_many` of one)."""
        return self.join_many([pna.census_idx], pna.executor, timeout_s)

    def join_many(self, rows: Sequence[int], executor: Any,
                  timeout_s: float) -> int:
        """Add the PNAs at node indices ``rows``, which all run on
        ``executor`` with request timeout ``timeout_s``, in order, as
        column appends (a held column that holds the join value takes
        none); returns the first slot.  Each member's first
        request goes out at the current instant (matching the reference
        DVE, whose process resume fires later in the same instant)."""
        k = len(rows)
        first = len(self._phase)
        columns = [(self._phase, _JOINED), (self._task_id, -1),
                   (self._destroyed, 0)]
        self.reserve(first + k)
        for name, (_code, value) in _HELD.items():
            if len(getattr(self, name)) == first > 0:  # grown: append
                columns.append((getattr(self, name), value))
            else:
                self.store(name, slice(first, first + k), value)
        for column, value in columns:
            column.frombytes(array(column.typecode, (value,)).tobytes() * k)
        self._row.frombytes(_np.asarray(rows, _np.int32).tobytes())
        if not self._join_first or timeout_s != self._join_timeout[-1] \
                or executor != self._join_executor[-1]:
            self._join_first.append(first)
            self._join_timeout.append(timeout_s)
            self._join_executor.append(executor)
        self._plain = self._plain and executor is identity_executor
        self.members_joined += k
        if k < _BULK_MIN:
            self._run_at(self.sim.now, _K_SEND)[1].extend(
                range(first, first + k))
        else:
            self._file(((_K_SEND, _np.full(k, self.sim.now),
                         range(first, first + k), ()),))
        return first

    def timeout_of(self, slot: int) -> float:
        """Member ``slot``'s request timeout."""
        return self._join_timeout[bisect_right(self._join_first, slot) - 1]

    def _deadlines(self, slots, now: float) -> _np.ndarray:
        """``now`` plus the request timeout of each member at ``slots``
        (a range or an array)."""
        if len(self._join_first) == 1:
            return _np.broadcast_to(now + self._join_timeout[0], len(slots))
        return now + _np.array(self._join_timeout)[_np.searchsorted(
            self._join_first, _view(slots), side="right") - 1]

    def destroy(self, slot: int) -> None:
        """Tombstone a member (idempotent); pending entries lapse."""
        self._destroyed[slot] = 1

    # -- bucket wheel ----------------------------------------------------
    def _run_at(self, time: float, kind: int, bulk: bool = False) -> list:
        """The run that an entry of ``kind`` filed at ``time`` joins: the
        bucket's last run when it has that kind, else a fresh run (in a
        fresh bucket, with its one calendar entry, for a new instant).
        Its columns are arrays to append to, unless ``bulk``."""
        if time == self._memo_t:
            bucket = self._memo_bucket
        else:
            bucket = self._buckets.get(time)
            if bucket is None:
                bucket = self._buckets[time] = []
                self.sim.call_at(time, self._fire, time)
            self._memo_t = time
            self._memo_bucket = bucket
        if bucket and bucket[-1][0] == kind:
            if not bulk and time in self._compact:
                self._compact.discard(time)
                _arrays(bucket[-1])
            return bucket[-1]
        types = _TYPES.get(kind)
        run = [kind, array("q")] if types is None \
            else [kind, *map(array, types)]
        bucket.append(run)
        return run

    def _file(self, streams: Sequence[tuple]) -> None:
        """File the entries of one member-ordered bulk pass.

        ``streams`` lists ``(kind, times, slots, columns)`` in per-member
        op order: a member's entry in an earlier stream was filed before
        its entry in a later one.  ``times`` (float64) is NaN where a
        member files nothing; ``columns`` are the kind's payload columns
        aligned with ``slots`` (numpy arrays, or a ``range`` of slots).
        When the streams land on disjoint instants, each same-instant
        group extends one run in one step; otherwise the entries are
        filed member by member, which keeps a shared bucket's
        interleaving.
        """
        grouped = [_groups(times) for _kind, times, _s, _c in streams]
        if len(grouped) > 1:
            instants = [t for groups in grouped for t, _pos in groups]
            if len(set(instants)) < len(instants):
                self._file_members(streams)
                return
        for (kind, _times, slots, columns), groups in zip(streams, grouped):
            types = _TYPES.get(kind, "q")
            for time, pos in groups:
                run = self._run_at(time, kind, bulk=True)
                for i, values in enumerate((slots, *columns), 1):
                    run[i] = _extend(run[i], values if pos is None
                                     else _view(values)[pos], types[i - 1])
                    if type(run[i]) is not array:
                        self._compact.add(time)

    def _file_members(self, streams: Sequence[tuple]) -> None:
        """:meth:`_file`, one member (and within it one stream) at a
        time."""
        streams = [(kind, times.tolist(), _view(slots).tolist(),
                    [c.tolist() for c in columns])
                   for kind, times, slots, columns in streams]
        for k in range(len(streams[0][2])):
            for kind, times, slots, columns in streams:
                time = times[k]
                if time != time:
                    continue
                run = self._run_at(time, kind)
                run[1].append(slots[k])
                for column, values in zip(run[2:], columns):
                    column.append(values[k])

    def _fire(self, time: float) -> None:
        # Popping kills the memo: a later same-instant filing (join)
        # must not write into the dead list.
        self._memo_t = None
        self._memo_bucket = None
        self._compact.discard(time)
        self._run_runs(self._buckets.pop(time), 0, 0, time)

    def _run_runs(self, runs: list, r: int, start: int, now: float) -> None:
        """Replay ``runs[r:]``, the first from member ``start`` on.

        Result arrivals can settle the job's ``done_event``; when that
        happens mid-bucket the remainder is re-scheduled at the same
        instant so urgent completion callbacks run first — exactly the
        interleaving of the per-member reference path.
        """
        n = len(runs)
        while r < n:
            run = runs[r]
            kind = run[0]
            r += 1
            if kind == _K_RESULT_ARR:
                stop = self._handle_result_arrivals(run, start, now)
                start = 0
                if stop is not None:
                    if stop < len(run[1]):
                        self.sim.call_at(now, self._run_runs, runs, r - 1,
                                         stop, now)
                    elif r < n:
                        self.sim.call_at(now, self._run_runs, runs, r, 0,
                                         now)
                    return
            elif kind == _K_REQ_ARR:
                self._handle_request_arrivals(run, now)
            elif kind == _K_ASSIGN_ARR:
                self._handle_assign_arrivals(run, now)
            elif kind == _K_SEND:
                self._batch_send_requests(run, now)
            elif kind == _K_COMPUTE:
                self._batch_send_results(run, now)
            elif kind == _K_NOWORK_ARR:
                self._handle_nowork_arrivals(run, now)
            else:  # _K_DEADLINE
                self._handle_deadlines(run, now)

    # -- column helpers --------------------------------------------------
    def _index(self, slots) -> tuple:
        """``slots``' index, their members' rows and the rows' index:
        each index a slice over a contiguous run (:func:`as_index`; a
        ``range`` of slots is one)."""
        si = slice(slots.start, slots.stop) if type(slots) is range \
            else as_index(_view(slots))
        rows = column_view(self._row)[si]
        return si, rows, as_index(rows)

    def _alive(self, slots) -> tuple:
        """A long run's members that are not destroyed (a ``range`` when
        ``slots`` is one and all are), and their :meth:`_index`."""
        live = _slots(slots)
        index = self._index(live)
        keep = column_view(self._destroyed)[index[0]] == 0
        if keep.all():
            return live, index
        live = _view(live)[keep]
        return live, self._index(live)

    def _count_deliveries(self, table: Any, slots: array
                          ) -> Optional[tuple]:
        """One delivery on the member's row of ``table`` per slot of
        ``slots``; returns a long run's :meth:`_index`, ``None`` for a
        short one (which stays in plain Python)."""
        if len(slots) < _BULK_MIN:
            delivered, rows = table.column("delivered"), self._row
            for slot in slots:
                delivered[rows[slot]] += 1
            return None
        index = self._index(slots)
        count_deliveries(table, index[2])
        return index

    def _offerable(self, index: tuple) -> _np.ndarray:
        """Mask of members that still take a reply: alive, awaiting one,
        and online (the reference DVE drops a reply otherwise)."""
        si, _rows, ri = index
        return ((column_view(self._destroyed)[si] == 0)
                & (column_view(self._phase)[si] == _AWAIT_REPLY)
                & (column_view(self.router.pna_online)[ri] != 0))

    # -- request path ----------------------------------------------------
    def _send_request(self, slot: int, now: float) -> None:
        deliver_at = self.router.uplinks.link(self._row[slot]).offer(
            _CONTROL_BITS)
        if deliver_at is not None:
            self._run_at(deliver_at, _K_REQ_ARR)[1].append(slot)
        self._phase[slot] = _AWAIT_REPLY
        deadline = now + self._join_timeout[
            bisect_right(self._join_first, slot) - 1]
        self._deadline[slot] = deadline
        self._run_at(deadline, _K_DEADLINE)[1].append(slot)

    def _batch_send_requests(self, run: list, now: float) -> None:
        """``_send_request`` over a run — the 10^6-node hot loop.

        The run's uplinks are reserved first, in member order (nothing
        below touches links or RNG streams, so this equals the per-member
        op order offer → arrival entry → phase → deadline entry).  A
        member listed twice sends twice, as it would one by one.
        """
        slots = run[1]
        destroyed = self._destroyed
        if len(slots) < _BULK_MIN:
            self.grown()
            for slot in slots:
                if not destroyed[slot]:
                    self._send_request(slot, now)
            return
        live, index = self._alive(slots)
        if len(live):
            self._send_requests(live, index, now)

    def _send_requests(self, live: _np.ndarray, index: tuple,
                       now: float) -> None:
        si, _rows, ri = index
        arrivals = offer_rows(self.router.uplinks, ri, _CONTROL_BITS, now)
        column_view(self._phase)[si] = _AWAIT_REPLY
        deadlines = self._deadlines(live, now)
        self.store("_deadline", si, deadlines)
        self._file(((_K_REQ_ARR, arrivals, live, ()),
                    (_K_DEADLINE, deadlines, live, ())))

    def _handle_request_arrivals(self, run: list, now: float) -> None:
        router = self.router
        slots = run[1]
        n = len(slots)
        # Delivery counting comes first: within one arrival instant
        # nothing observes the counters mid-handler, so count-then-
        # dispatch and dispatch-then-count are end-state identical (the
        # differential suite checks final link counts).
        index = self._count_deliveries(router.uplinks, slots)
        rows = list(map(self._row.__getitem__, slots)) if index is None \
            else index[1]
        if router._receivers.get(self.backend_id) is None:
            # Backend crashed or shut down while the cohort was in
            # flight — same arrival-time check as the bare-payload path.
            router.undeliverable += n
            return
        replies = self.backend.receive_request_cohort(rows, self.instance_id)
        linked = router._pna_linked
        if type(replies) is TaskTable:
            # one task per member, as columns; a node that vanished
            # between request and reply is skipped
            sv = _slots(slots)
            _si, rows, ri = self._index(sv) if index is None else index
            # a uniform bag's one input size stays one number
            sizes = replies.input_bits
            sizes = (float(sizes[0]) if sizes.strides == (0,) else sizes) \
                + _CONTROL_BITS
            columns = (replies.task_id, replies.ref_seconds,
                       replies.result_bits)
            keep = column_view(linked)[ri] != 0
            if not keep.all():
                sv, ri = _view(sv)[keep], rows[keep]
                sizes = sizes[keep] if _np.ndim(sizes) else sizes
                columns = tuple(column[keep] for column in columns)
            self._file(((_K_ASSIGN_ARR,
                         offer_rows(router.downlinks, ri, sizes, now), sv,
                         columns),))
            return
        # replies one by one (certified copies and probes, replicas,
        # backoff leases, a dry bag): each downlink in member order
        downlinks = router.downlinks
        if index is not None:
            rows = rows.tolist()
        for slot, row, reply in zip(slots, rows, replies):
            if not linked[row]:
                continue  # node vanished between request and reply
            if type(reply) is NoWork:
                deliver_at = downlinks.link(row).offer(_CONTROL_BITS)
                if deliver_at is not None:
                    retry = reply.retry_after_s
                    into = self._run_at(deliver_at, _K_NOWORK_ARR)
                    into[1].append(slot)
                    into[2].append(_NAN if retry is None else retry)
            else:  # a task: the assignment carries the staged input
                deliver_at = downlinks.link(row).offer(
                    _CONTROL_BITS + reply.input_bits)
                if deliver_at is not None:
                    into = self._run_at(deliver_at, _K_ASSIGN_ARR)
                    into[1].append(slot)
                    into[2].append(reply.task_id)
                    into[3].append(reply.ref_seconds)
                    into[4].append(reply.result_bits)

    # -- assignment / compute path --------------------------------------
    def _accept_assignment(self, slot: int, task_id: int, ref_seconds: float,
                           result_bits: float, now: float) -> None:
        self._task_id[slot] = task_id
        self._result_bits[slot] = result_bits
        self._deadline[slot] = -1.0
        self._phase[slot] = _COMPUTING
        # Behaviour profile captured at accept time (the reference DVE
        # reads it before its compute yield): a mid-task adversary flip
        # never splits one task's semantics.
        adv = self.router.adversaries.get(self._row[slot])
        executor = self._join_executor[
            bisect_right(self._join_first, slot) - 1]
        if adv is None:
            self._digest[slot] = 0
            compute_s = executor(ref_seconds)
        else:
            d = adv.digest(task_id)
            self._digest[slot] = 0 if d is None else d
            compute_s = adv.compute_seconds(executor(ref_seconds))
        self._run_at(now + compute_s, _K_COMPUTE)[1].append(slot)

    def _handle_assign_arrivals(self, run: list, now: float) -> None:
        slots = run[1]
        index = self._count_deliveries(self.router.downlinks, slots)
        if index is not None and self._accept_bulk(run, index, now):
            return
        task_ids, refs, results = _arrays(run)[2:]
        self.grown()
        destroyed = self._destroyed
        phase = self._phase
        online, rows = self.router.pna_online, self._row
        for k, slot in enumerate(slots):
            if destroyed[slot] or phase[slot] != _AWAIT_REPLY \
                    or not online[rows[slot]]:
                continue  # reset/stale: the reference DVE drops it too
            self._accept_assignment(slot, task_ids[k], refs[k], results[k],
                                    now)

    def _accept_bulk(self, run: list, index: tuple, now: float) -> bool:
        """Accept a run of assignments in column passes; ``False`` (with
        nothing changed) when the run needs the per-member loop: a
        member listed twice, or one off the reference-PC executor or
        with a behaviour profile.  Then the completion instants come
        out of one vectorised add — scalar-bit-identical (same op
        order)."""
        sv = _slots(run[1])
        live = self._offerable(index)
        whole = bool(live.all())
        ls = sv if whole else _view(sv)[live]
        if not len(ls):
            return True
        li = index[0] if whole else as_index(ls)
        if type(li) is not slice and not all_distinct(ls) \
                or not self._plain:
            return False
        adversaries = self.router.adversaries
        if adversaries and not adversaries.keys().isdisjoint(
                column_view(self._row)[li].tolist()):
            return False
        task_ids, refs, results = (_view(c) if whole else _view(c)[live]
                                   for c in run[2:])
        column_view(self._task_id)[li] = task_ids
        self.store("_result_bits", li, results)
        self.store("_digest", li, 0)
        self.store("_deadline", li, -1.0)
        column_view(self._phase)[li] = _COMPUTING
        self._file(((_K_COMPUTE, now + refs, ls, ()),))
        return True

    def _handle_nowork_arrivals(self, run: list, now: float) -> None:
        slots, retries = run[1], run[2]
        index = self._count_deliveries(self.router.downlinks, slots)
        if index is not None:
            live = self._offerable(index)
            ls = _view(slots)[live]
            if all_distinct(ls):
                retry = _view(retries)[live]
                self.store("_deadline", as_index(ls), -1.0)
                column_view(self._phase)[ls] = _np.where(
                    retry != retry, _DONE, _SLEEPING)
                # The poll wheel: every member NoWork'd at this instant
                # shares the same retry bucket — one calendar entry
                # re-polls the whole cohort.
                self._file(((_K_SEND, retry + now, ls, ()),))
                return
        self.grown()
        for slot, retry in zip(slots, _arrays(run)[2]):
            self._park(slot, retry, now)

    def _park(self, slot: int, retry: float, now: float) -> None:
        """Apply one NoWork reply: stop (``retry`` NaN), or sleep until
        the retry instant."""
        if self._destroyed[slot] or self._phase[slot] != _AWAIT_REPLY \
                or not self.router.pna_online[self._row[slot]]:
            return
        self._deadline[slot] = -1.0
        if retry != retry:
            self._phase[slot] = _DONE  # bag is dry: stop
        else:
            self._phase[slot] = _SLEEPING
            self._run_at(now + retry, _K_SEND)[1].append(slot)

    # -- result path -----------------------------------------------------
    def _send_result(self, slot: int, now: float) -> None:
        self._phase[slot] = _AWAIT_ACK
        token = self._token[slot] + 1
        self._token[slot] = token
        deliver_at = self.router.uplinks.link(self._row[slot]).offer(
            CONTROL_PAYLOAD_BITS + self._result_bits[slot]
            + DEFAULT_HEADER_BITS)
        if deliver_at is not None:
            # The digest rides the entry (copied at send time): a stale
            # retransmitted copy must carry the digest of the task it
            # was computed for, never a newer task's slot value.
            run = self._run_at(deliver_at, _K_RESULT_ARR)
            run[1].append(slot)
            run[2].append(self._task_id[slot])
            run[3].append(token)
            run[4].append(self._digest[slot])
        deadline = now + self._join_timeout[
            bisect_right(self._join_first, slot) - 1]
        self._deadline[slot] = deadline
        self._run_at(deadline, _K_DEADLINE)[1].append(slot)

    def _batch_send_results(self, run: list, now: float) -> None:
        """``_send_result`` over a compute-completion run; same op order
        per member, uplinks reserved first (see
        ``_batch_send_requests``)."""
        slots = run[1]
        destroyed = self._destroyed
        if len(slots) >= _BULK_MIN:
            live, index = self._alive(slots)
            if type(index[0]) is slice or all_distinct(live):
                if len(live):
                    self._send_results(live, index, now)
                return
        self.grown()
        for slot in slots:
            if not destroyed[slot]:
                self._send_result(slot, now)

    def _send_results(self, live: _np.ndarray, index: tuple,
                      now: float) -> None:
        si, _rows, ri = index
        column_view(self._phase)[si] = _AWAIT_ACK
        tokens = _np.broadcast_to(self.values("_token", si) + 1, len(live))
        self.store("_token", si, tokens)
        # Same left-to-right sum as the scalar path.
        sizes = CONTROL_PAYLOAD_BITS + self.values("_result_bits", si)
        sizes += DEFAULT_HEADER_BITS
        arrivals = offer_rows(self.router.uplinks, ri, sizes, now)
        deadlines = self._deadlines(live, now)
        self.store("_deadline", si, deadlines)
        digests = _np.broadcast_to(self.values("_digest", si), len(live))
        self._file(((_K_RESULT_ARR, arrivals, live,
                     (column_view(self._task_id)[si], tokens, digests)),
                    (_K_DEADLINE, deadlines, live, ())))

    def _handle_result_arrivals(self, run: list, start: int,
                                now: float) -> Optional[int]:
        """Process the result arrivals ``run[start:]``; returns the
        position to defer from when ``done_event`` settles mid-run,
        else ``None``."""
        router = self.router
        backend = self.backend
        # Constant within one call: no sim callback runs mid-handler,
        # and a mid-run settle defers the remainder to a fresh call
        # (which re-evaluates after the urgent auto-release unregisters).
        gone = router._receivers.get(self.backend_id) is None
        certifier = backend.certifier
        # A certified backend votes per copy (and a vote can quarantine
        # a member of this very run), and a traced run on a lossy or
        # down link must interleave each member's ``backend.complete``
        # with its next request's ``net.dropped``: both keep the
        # per-member loop.
        if len(run[1]) - start >= _BULK_MIN and certifier is None:
            sv = _slots(run[1])[start:]
            index = self._index(sv)
            if gone or backend._trace is None \
                    or bool(_np.all(router.uplinks.lossless(index[2]))):
                return self._results_bulk(run, start, now, gone, sv, index)
        slots, task_ids, tokens, digests = _arrays(run)[1:]
        self.grown()
        delivered = router.uplinks.column("delivered")
        member_rows = self._row
        done_event = backend.done_event
        # Settling is monotonic and only this loop can flip it here.
        was_settled = done_event._settled
        for k in range(start, len(slots)):
            slot = slots[k]
            row = member_rows[slot]
            delivered[row] += 1
            if gone:
                router.undeliverable += 1
            elif certifier is None:
                backend._take_result(row, task_ids[k])
            else:
                digest = digests[k]
                certifier.on_result(row, task_ids[k],
                                    digest if digest != 0 else None)
            # The member advances only when the *awaited* copy lands
            # (stale retransmitted copies settle a stale notify event in
            # the reference path — a no-op there too).  The next request
            # goes out inline.
            if not self._destroyed[slot] and self._phase[slot] == _AWAIT_ACK \
                    and self._token[slot] == tokens[k]:
                self._completed[slot] += 1
                self._send_request(slot, now)
            if not was_settled and done_event._settled:
                return k + 1
        return None

    def _results_bulk(self, run: list, start: int, now: float, gone: bool,
                      sv: _np.ndarray, index: tuple) -> Optional[int]:
        """The result arrivals ``run[start:]`` in column passes: the
        Backend takes them in order (stopping where ``done_event``
        settles), then the members whose awaited copy landed send their
        next request in one batch."""
        end = len(run[1])
        stop = None
        if gone:
            self.router.undeliverable += end - start
        else:
            settled = self.backend.receive_result_cohort(
                index[1], _view(run[2])[start:])
            if settled is not None:
                end = stop = start + settled + 1
        if end - start < len(sv):
            sv = sv[:end - start]
            index = self._index(sv)
        si = index[0]
        count_deliveries(self.router.uplinks, index[2])
        advance = ((column_view(self._destroyed)[si] == 0)
                   & (column_view(self._phase)[si] == _AWAIT_ACK)
                   & (self.values("_token", si)
                      == _view(run[3])[start:end]))
        if not advance.all():
            sv = _view(sv)[advance]
            index = self._index(sv)
        if len(sv):
            # One awaited copy per member: tokens are unique per send.
            self.store("_completed", index[0],
                        self.values("_completed", index[0]) + 1)
            self._send_requests(sv, index, now)
        return stop

    # -- timeouts --------------------------------------------------------
    def _handle_deadlines(self, run: list, now: float) -> None:
        slots = run[1]
        destroyed = self._destroyed
        if len(slots) >= _BULK_MIN or self._short:
            # Nearly every deadline is stale (the reply or ack came in
            # time): mask them out in one pass (any run while a column
            # may be held, so a held deadline grows no row).  A resend
            # only pushes its own member's deadline later, so the
            # survivors are a superset of the scalar loop's and it
            # re-checks each.
            si = self._index(slots)[0]
            due = (column_view(destroyed)[si] == 0) \
                & (self.values("_deadline", si) == now)
            if not due.any():
                return
            slots = _view(slots)[due].tolist()
        self.grown()
        deadlines = self._deadline
        phase = self._phase
        retrans = self._retrans
        for slot in slots:
            if destroyed[slot] or deadlines[slot] != now:
                continue  # reply/ack arrived in time: stale timeout
            state = phase[slot]
            if state == _AWAIT_REPLY:
                retrans[slot] += 1
                self._send_request(slot, now)
            elif state == _AWAIT_ACK:
                retrans[slot] += 1
                self._send_result(slot, now)

    # -- out-of-band replies (API compatibility) ------------------------
    def inject_reply(self, slot: int, payload: Any) -> None:
        """Deliver a backend reply that arrived outside the engine's own
        buckets (a test double poking ``dve.on_backend_message``)."""
        if self._destroyed[slot] or self._phase[slot] != _AWAIT_REPLY:
            return
        self.grown()
        now = self.sim.now
        if isinstance(payload, (TaskAssignment,)):
            self._accept_assignment(slot, payload.task_id,
                                    payload.ref_seconds,
                                    payload.result_bits, now)
        elif isinstance(payload, NoWork):
            retry = payload.retry_after_s
            self._park(slot, _NAN if retry is None else retry, now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CohortTaskEngine {self.backend_id!r}/{self.instance_id!r} "
                f"members={self.members_joined} "
                f"buckets={len(self._buckets)}>")


def identity_executor(ref_seconds: float) -> float:
    """Reference-PC timing: local seconds == reference seconds.

    Module-level so the engine's bulk branch can recognise it by
    identity; :class:`~repro.core.pna.PNA` uses it as the default
    executor.
    """
    return ref_seconds


class CohortDVE:
    """A PNA's DVE: a facade over one engine slot, no generator
    frame."""

    __slots__ = ("sim", "pna", "instance_id", "backend_id",
                 "poll_interval_s", "request_timeout_s", "destroyed",
                 "_engine", "_slot")

    def __init__(
        self,
        engine: CohortTaskEngine,
        pna: "PNA",
        instance_id: str,
        backend_id: str,
        *,
        poll_interval_s: float = 30.0,
        request_timeout_s: Optional[float] = None,
        slot: Optional[int] = None,
    ) -> None:
        if poll_interval_s <= 0:
            raise OddCIError("poll_interval_s must be > 0")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise OddCIError("request_timeout_s must be > 0")
        self.sim = engine.sim
        self.pna = pna
        self.instance_id = instance_id
        self.backend_id = backend_id
        self.poll_interval_s = poll_interval_s
        self.request_timeout_s = request_timeout_s or \
            max(4.0 * poll_interval_s, 60.0)
        self.destroyed = False
        self._engine = engine
        # ``slot``: the facade of a member that joined in bulk
        self._slot = engine.join(pna, self.request_timeout_s) \
            if slot is None else slot

    @property
    def tasks_completed(self) -> int:
        return int(self._engine.values("_completed", self._slot))

    @property
    def retransmissions(self) -> int:
        return int(self._engine.values("_retrans", self._slot))

    def on_backend_message(self, payload) -> None:
        if self.destroyed:
            return
        self._engine.inject_reply(self._slot, payload)

    def destroy(self) -> None:
        """Tear the environment down (reset handling).  Idempotent."""
        if self.destroyed:
            return
        self.destroyed = True
        self._engine.destroy(self._slot)
