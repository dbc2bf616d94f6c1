"""Macro-PNA task engine — cohort-vectorised DVE client loops.

The per-PNA :class:`~repro.core.dve.DVE` runs one generator frame per
node: every poll costs a process resume, an event allocation and two
calendar entries, which caps the event tier near 10^5 nodes.  This
module collapses the same protocol into a **cohort engine**: one engine
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

The per-PNA :class:`~repro.core.dve.DVE` stays as the differential
oracle.  :class:`~repro.core.pna.PNA` falls back to it whenever
:func:`engine_for` returns ``None``; tests reach it by patching
``repro.core.pna.engine_for`` (the ``--per-pna-oracle`` pytest option
does so for a whole run), the way they hand the Controller a
:class:`~repro.core.census.DictCensusStore`.
"""

from __future__ import annotations

from array import array
from operator import attrgetter
from typing import Any, List, Optional, Sequence, TYPE_CHECKING

import numpy as _np

from repro.errors import OddCIError
from repro.core.messages import NoWork, TaskAssignment
from repro.net.link import column_view, count_deliveries, offer_rows
from repro.net.message import DEFAULT_HEADER_BITS
from repro.sim.core import Simulator
from repro.workloads.job import TaskTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.backend import Backend
    from repro.core.network import Router
    from repro.core.pna import PNA

__all__ = ["CohortTaskEngine", "CohortDVE", "engine_for",
           "identity_executor"]

#: Wire size of small protocol payloads — kept in sync with
#: :data:`repro.core.dve.CONTROL_PAYLOAD_BITS` (not imported to avoid a
#: module cycle; guarded by a unit test).
CONTROL_PAYLOAD_BITS = 64 * 8

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

# Run kinds.  A run is a list ``[kind, slots, *columns]``: ``slots`` is
# an ``array('q')`` of member slots in insertion order and the columns,
# aligned with it, hold only what the kind needs.  Entries are filed in
# chronological processing order and a filing extends the bucket's last
# run when it has the same kind, so a bucket replays its runs — and each
# run its members — in the reference path's seq order.
_K_SEND = 0        # member sends a task request now
_K_REQ_ARR = 1     # request arrives at the Backend
_K_ASSIGN_ARR = 2  # + task_id (array 'q'), ref_seconds, result_bits
                   #   (array 'd'): assignment arrives
_K_NOWORK_ARR = 3  # + retry (array 'd', NaN = stop): NoWork arrives
_K_COMPUTE = 4     # compute finishes; ship the result
_K_RESULT_ARR = 5  # + task_id, token, digest (array 'q'): result
                   #   arrives; copied at send time
_K_DEADLINE = 6    # request/ack timeout check; the deadline is the
                   #   bucket's instant

#: Minimum run length for the numpy bulk branches (member masks, compute
#: times, link reservations, delivery counts); below it, scalar
#: operations win.
_BULK_MIN = 32

_NAN = float("nan")
_adversary = attrgetter("adversary")
_executor = attrgetter("executor")
_pna_id = attrgetter("pna_id")


def _new_run(kind: int) -> list:
    if kind == _K_RESULT_ARR:
        return [kind, array("q"), array("q"), array("q"), array("q")]
    if kind == _K_ASSIGN_ARR:
        return [kind, array("q"), array("q"), array("d"), array("d")]
    if kind == _K_NOWORK_ARR:
        return [kind, array("q"), array("d")]
    return [kind, array("q")]


def _distinct(slots: _np.ndarray) -> bool:
    """True when no slot repeats (runs are usually already ascending)."""
    if slots.size < 2 or bool((slots[1:] > slots[:-1]).all()):
        return True
    ranked = _np.sort(slots)
    return bool((ranked[1:] != ranked[:-1]).all())


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

    Returns ``None`` when no cohort-capable Backend is registered under
    ``backend_id`` — the caller then falls back to the per-PNA path
    (test doubles and custom components keep their exact semantics).
    """
    backend = router._task_servers.get(backend_id)
    if backend is None:
        return None
    engine = router._task_engines.get(instance_id)
    if engine is None or engine.backend is not backend:
        engine = CohortTaskEngine(router.sim, router, backend, instance_id)
        router._task_engines[instance_id] = engine
    return engine


class CohortTaskEngine:
    """Drives the DVE client loop of many members in columnar state.

    One engine per (Backend, instance).  Member slots are append-only;
    a destroyed member (reset, shutdown) is tombstoned and its pending
    bucket entries lapse lazily — the DVE disposal contract.
    """

    __slots__ = (
        "sim", "router", "backend", "backend_id", "instance_id",
        "_buckets", "_memo_t", "_memo_bucket",
        # columnar member state (struct-of-arrays)
        "_phase", "_deadline", "_token", "_task_id", "_result_bits",
        "_digest", "_completed", "_retrans", "_destroyed", "_timeout",
        "_row", "_plain",
        # object columns
        "_pna", "_pna_id", "_executor", "members_joined",
    )

    def __init__(self, sim: Simulator, router: "Router",
                 backend: "Backend", instance_id: str) -> None:
        self.sim = sim
        self.router = router
        self.backend = backend
        self.backend_id = backend.backend_id
        self.instance_id = instance_id
        #: time -> ordered run list; each distinct instant owns exactly
        #: one calendar entry (the DVE poll wheel generalised to every
        #: phase of the task loop).
        self._buckets: dict = {}
        # (time, list) memo for consecutive same-instant filings — the
        # common shape when a cohort marches in lockstep.  Invalidated
        # whenever a bucket is popped for firing.
        self._memo_t: Optional[float] = None
        self._memo_bucket: Optional[list] = None
        self._phase = array("b")
        self._deadline = array("d")
        self._token = array("q")
        self._task_id = array("q")
        self._result_bits = array("d")
        #: result digest of the member's current task: 0 = honest
        #: (wire ``None``); adversarial digests are always negative, so
        #: 0 can never collide (repro.certify.adversary digest model).
        self._digest = array("q")
        self._completed = array("q")
        self._retrans = array("q")
        self._destroyed = array("b")
        self._timeout = array("d")
        #: the member's node index: its links' row in the router's link
        #: tables (every member is a PNA registered on ``router``).
        self._row = array("q")
        #: 1 when the member computes on the reference-PC executor
        #: (:func:`identity_executor`): its compute time is the task's.
        self._plain = array("b")
        self._pna: List[Any] = []
        self._pna_id: List[str] = []
        self._executor: List[Any] = []
        self.members_joined = 0

    # -- membership ------------------------------------------------------
    def join(self, pna: "PNA", timeout_s: float) -> int:
        """Add a member; returns its slot (:meth:`join_many` of one)."""
        return self.join_many([pna], [pna.census_idx], [timeout_s])

    def join_many(self, pnas: List["PNA"], rows: Sequence[int],
                  timeouts: Sequence[float]) -> int:
        """Add ``pnas`` (node indices ``rows``, request timeouts
        ``timeouts``) in order, as column appends; returns the first
        slot.  Each member's first request goes out at the current
        instant (matching the reference DVE, whose process resume fires
        later in the same instant)."""
        k = len(pnas)
        first = len(self._phase)
        for column, value in ((self._phase, _JOINED), (self._deadline, -1.0),
                              (self._token, 0), (self._task_id, -1),
                              (self._result_bits, 0.0), (self._digest, 0),
                              (self._completed, 0), (self._retrans, 0),
                              (self._destroyed, 0)):
            column.frombytes(array(column.typecode, (value,)).tobytes() * k)
        for column, values in ((self._timeout, timeouts), (self._row, rows),
                               (self._plain, [p.executor is identity_executor
                                              for p in pnas])):
            column.frombytes(_np.asarray(values, column.typecode).tobytes())
        self._pna.extend(pnas)
        self._pna_id.extend(map(_pna_id, pnas))
        self._executor.extend(map(_executor, pnas))
        self.members_joined += k
        self._run_at(self.sim.now, _K_SEND)[1].frombytes(
            _np.arange(first, first + k, dtype=_np.int64).tobytes())
        return first

    def destroy(self, slot: int) -> None:
        """Tombstone a member (idempotent); pending entries lapse."""
        self._destroyed[slot] = 1

    # -- bucket wheel ----------------------------------------------------
    def _run_at(self, time: float, kind: int) -> list:
        """The run that an entry of ``kind`` filed at ``time`` joins: the
        bucket's last run when it has that kind, else a fresh run (in a
        fresh bucket, with its one calendar entry, for a new instant)."""
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
            return bucket[-1]
        run = _new_run(kind)
        bucket.append(run)
        return run

    def _file(self, streams: Sequence[tuple]) -> None:
        """File the entries of one member-ordered bulk pass.

        ``streams`` lists ``(kind, times, slots, columns)`` in per-member
        op order: a member's entry in an earlier stream was filed before
        its entry in a later one.  ``times`` (float64) is NaN where a
        member files nothing; ``columns`` are the kind's payload columns
        aligned with ``slots`` (numpy arrays of the run's types).  When
        the streams land on disjoint instants, each same-instant group
        extends one run in one step; otherwise the entries are filed
        member by member, which keeps a shared bucket's interleaving.
        """
        grouped = [_groups(times) for _kind, times, _s, _c in streams]
        if len(grouped) > 1:
            instants = [t for groups in grouped for t, _pos in groups]
            if len(set(instants)) < len(instants):
                self._file_members(streams)
                return
        for (kind, _times, slots, columns), groups in zip(streams, grouped):
            for time, pos in groups:
                run = self._run_at(time, kind)
                for column, values in zip(run[1:], (slots, *columns)):
                    column.frombytes(memoryview(
                        values if pos is None else values[pos]).cast("B"))

    def _file_members(self, streams: Sequence[tuple]) -> None:
        """:meth:`_file`, one member (and within it one stream) at a
        time."""
        streams = [(kind, times.tolist(), slots.tolist(),
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
    def _count_deliveries(self, table: Any, slots: array) -> None:
        """One delivery on the member's row of ``table`` per slot of
        ``slots``."""
        if len(slots) < _BULK_MIN:
            delivered, rows = table.delivered, self._row
            for slot in slots:
                delivered[rows[slot]] += 1
            return
        count_deliveries(table, column_view(self._row)[column_view(slots)])

    def _offerable(self, slots: _np.ndarray) -> _np.ndarray:
        """Mask of members that still take a reply: alive, awaiting one,
        and online (the reference DVE drops a reply otherwise)."""
        rows = column_view(self._row)[slots]
        return ((column_view(self._destroyed)[slots] == 0)
                & (column_view(self._phase)[slots] == _AWAIT_REPLY)
                & (column_view(self.router.pna_online)[rows] != 0))

    # -- request path ----------------------------------------------------
    def _send_request(self, slot: int, now: float) -> None:
        deliver_at = self.router.uplinks.link(self._row[slot]).offer(
            _CONTROL_BITS)
        if deliver_at is not None:
            self._run_at(deliver_at, _K_REQ_ARR)[1].append(slot)
        self._phase[slot] = _AWAIT_REPLY
        deadline = now + self._timeout[slot]
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
            for slot in slots:
                if not destroyed[slot]:
                    self._send_request(slot, now)
            return
        live = column_view(slots)
        live = live[column_view(destroyed)[live] == 0]
        if live.size:
            self._send_requests(live, now)

    def _send_requests(self, live: _np.ndarray, now: float) -> None:
        arrivals = offer_rows(self.router.uplinks,
                              column_view(self._row)[live], _CONTROL_BITS,
                              now)
        column_view(self._phase)[live] = _AWAIT_REPLY
        deadlines = now + column_view(self._timeout)[live]
        column_view(self._deadline)[live] = deadlines
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
        self._count_deliveries(router.uplinks, slots)
        if router._payload_receivers.get(self.backend_id) is None:
            # Backend crashed or shut down while the cohort was in
            # flight — same arrival-time check as the bare-payload path.
            router.undeliverable += n
            return
        requesters = list(map(self._pna_id.__getitem__, slots))
        replies = self.backend.receive_request_cohort(requesters,
                                                      self.instance_id)
        linked = router._pna_linked
        if type(replies) is TaskTable:
            # one task per member, as columns; a node that vanished
            # between request and reply is skipped
            rows = column_view(self._row)[column_view(slots)]
            keep = column_view(linked)[rows] != 0
            arrivals = offer_rows(router.downlinks, rows[keep],
                                  replies.input_bits[keep] + _CONTROL_BITS,
                                  now)
            self._file(((_K_ASSIGN_ARR, arrivals, column_view(slots)[keep],
                         (replies.task_id[keep], replies.ref_seconds[keep],
                          replies.result_bits[keep])),))
            return
        # replies one by one (certified copies and probes, replicas,
        # backoff leases, a dry bag): each downlink in member order
        downlinks = router.downlinks
        member_rows = self._row
        for slot, reply in zip(slots, replies):
            row = member_rows[slot]
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
        adv = self._pna[slot].adversary
        if adv is None:
            self._digest[slot] = 0
            compute_s = self._executor[slot](ref_seconds)
        else:
            d = adv.digest(task_id)
            self._digest[slot] = 0 if d is None else d
            compute_s = adv.compute_seconds(
                self._executor[slot](ref_seconds))
        self._run_at(now + compute_s, _K_COMPUTE)[1].append(slot)

    def _handle_assign_arrivals(self, run: list, now: float) -> None:
        slots = run[1]
        self._count_deliveries(self.router.downlinks, slots)
        if len(slots) >= _BULK_MIN and self._accept_bulk(run, now):
            return
        task_ids, refs, results = run[2], run[3], run[4]
        destroyed = self._destroyed
        phase = self._phase
        pnas = self._pna
        for k, slot in enumerate(slots):
            if destroyed[slot] or phase[slot] != _AWAIT_REPLY \
                    or not pnas[slot].online:
                continue  # reset/stale: the reference DVE drops it too
            self._accept_assignment(slot, task_ids[k], refs[k], results[k],
                                    now)

    def _accept_bulk(self, run: list, now: float) -> bool:
        """Accept a run of assignments in column passes; ``False`` (with
        nothing changed) when the run needs the per-member loop: a
        member listed twice, or one off the reference-PC executor or
        with a behaviour profile.  Then the completion instants come
        out of one vectorised add — scalar-bit-identical (same op
        order)."""
        sv = column_view(run[1])
        live = self._offerable(sv)
        whole = bool(live.all())
        ls = sv if whole else sv[live]
        if not ls.size:
            return True
        if not _distinct(ls) or not column_view(self._plain)[ls].all():
            return False
        advs = list(map(_adversary, map(self._pna.__getitem__,
                                        ls.tolist())))
        if advs.count(None) != len(advs):
            return False
        task_ids, refs, results = (column_view(c) if whole
                                   else column_view(c)[live]
                                   for c in run[2:])
        column_view(self._task_id)[ls] = task_ids
        column_view(self._result_bits)[ls] = results
        column_view(self._digest)[ls] = 0
        column_view(self._deadline)[ls] = -1.0
        column_view(self._phase)[ls] = _COMPUTING
        self._file(((_K_COMPUTE, now + refs, ls, ()),))
        return True

    def _handle_nowork_arrivals(self, run: list, now: float) -> None:
        slots, retries = run[1], run[2]
        self._count_deliveries(self.router.downlinks, slots)
        if len(slots) >= _BULK_MIN:
            sv = column_view(slots)
            live = self._offerable(sv)
            ls = sv[live]
            if _distinct(ls):
                retry = column_view(retries)[live]
                column_view(self._deadline)[ls] = -1.0
                column_view(self._phase)[ls] = _np.where(
                    retry != retry, _DONE, _SLEEPING)
                # The poll wheel: every member NoWork'd at this instant
                # shares the same retry bucket — one calendar entry
                # re-polls the whole cohort.
                self._file(((_K_SEND, retry + now, ls, ()),))
                return
        for slot, retry in zip(slots, retries):
            self._park(slot, retry, now)

    def _park(self, slot: int, retry: float, now: float) -> None:
        """Apply one NoWork reply: stop (``retry`` NaN), or sleep until
        the retry instant."""
        if self._destroyed[slot] or self._phase[slot] != _AWAIT_REPLY \
                or not self._pna[slot].online:
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
        deadline = now + self._timeout[slot]
        self._deadline[slot] = deadline
        self._run_at(deadline, _K_DEADLINE)[1].append(slot)

    def _batch_send_results(self, run: list, now: float) -> None:
        """``_send_result`` over a compute-completion run; same op order
        per member, uplinks reserved first (see
        ``_batch_send_requests``)."""
        slots = run[1]
        destroyed = self._destroyed
        if len(slots) >= _BULK_MIN:
            live = column_view(slots)
            live = live[column_view(destroyed)[live] == 0]
            if _distinct(live):
                if live.size:
                    self._send_results(live, now)
                return
        for slot in slots:
            if not destroyed[slot]:
                self._send_result(slot, now)

    def _send_results(self, live: _np.ndarray, now: float) -> None:
        column_view(self._phase)[live] = _AWAIT_ACK
        tokens = column_view(self._token)
        tokens[live] += 1
        # Same left-to-right sum as the scalar path.
        sizes = CONTROL_PAYLOAD_BITS + column_view(self._result_bits)[live]
        sizes += DEFAULT_HEADER_BITS
        arrivals = offer_rows(self.router.uplinks,
                              column_view(self._row)[live], sizes, now)
        deadlines = now + column_view(self._timeout)[live]
        column_view(self._deadline)[live] = deadlines
        self._file(((_K_RESULT_ARR, arrivals, live,
                     (column_view(self._task_id)[live], tokens[live],
                      column_view(self._digest)[live])),
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
        gone = router._payload_receivers.get(self.backend_id) is None
        # A certified backend votes per copy (and a vote can quarantine
        # a member of this very run), and a traced run on a lossy or
        # down link must interleave each member's ``backend.complete``
        # with its next request's ``net.dropped``: both keep the
        # per-member loop.
        if len(run[1]) - start >= _BULK_MIN \
                and getattr(backend, "certifier", None) is None:
            sv = column_view(run[1])[start:]
            rows = column_view(self._row)[sv]
            uplinks = router.uplinks
            if gone or backend._trace is None or bool(
                    ((column_view(uplinks.up)[rows] != 0)
                     & (column_view(uplinks.loss)[rows] == 0.0)).all()):
                return self._results_bulk(run, start, now, gone, sv, rows)
        slots, task_ids, tokens, digests = run[1], run[2], run[3], run[4]
        delivered, member_rows = router.uplinks.delivered, self._row
        pna_ids = self._pna_id
        receive_result = backend.receive_result
        done_event = backend.done_event
        # Settling is monotonic and only this loop can flip it here.
        was_settled = done_event._settled
        for k in range(start, len(slots)):
            slot = slots[k]
            delivered[member_rows[slot]] += 1
            if gone:
                router.undeliverable += 1
            else:
                digest = digests[k]
                receive_result(pna_ids[slot], task_ids[k],
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
                      sv: _np.ndarray, rows: _np.ndarray) -> Optional[int]:
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
                list(map(self._pna_id.__getitem__, run[1][start:])),
                column_view(run[2])[start:])
            if settled is not None:
                end = stop = start + settled + 1
        if end - start < len(sv):
            sv = sv[:end - start]
            rows = rows[:end - start]
        count_deliveries(self.router.uplinks, rows)
        advance = ((column_view(self._destroyed)[sv] == 0)
                   & (column_view(self._phase)[sv] == _AWAIT_ACK)
                   & (column_view(self._token)[sv]
                      == column_view(run[3])[start:end]))
        live = sv[advance]
        if live.size:
            # One awaited copy per member: tokens are unique per send.
            column_view(self._completed)[live] += 1
            self._send_requests(live, now)
        return stop

    # -- timeouts --------------------------------------------------------
    def _handle_deadlines(self, run: list, now: float) -> None:
        slots = run[1]
        destroyed = self._destroyed
        deadlines = self._deadline
        if len(slots) >= _BULK_MIN:
            # Nearly every deadline is stale (the reply or ack came in
            # time): mask them out in one pass.  A resend only pushes
            # its own member's deadline later, so the survivors are a
            # superset of the scalar loop's and it re-checks each.
            sv = column_view(slots)
            due = sv[(column_view(destroyed)[sv] == 0)
                     & (column_view(deadlines)[sv] == now)]
            if not due.size:
                return
            slots = due.tolist()
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
    """DVE facade over one engine slot — same surface as
    :class:`~repro.core.dve.DVE`, no generator frame."""

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
        return self._engine._completed[self._slot]

    @property
    def retransmissions(self) -> int:
        return self._engine._retrans[self._slot]

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
