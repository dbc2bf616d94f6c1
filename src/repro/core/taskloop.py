"""Macro-PNA task engine — cohort-vectorised DVE client loops.

The per-PNA :class:`~repro.core.dve.DVE` runs one generator frame per
node: every poll costs a process resume, an event allocation and two
calendar entries, which caps the event tier near 10^5 nodes.  This
module collapses the same protocol into a **cohort engine**: one engine
per (backend, instance) holds every member's in-flight state in
columnar arrays (struct-of-arrays, mirroring
:class:`~repro.core.census.ColumnarCensusStore`) and drives all members
off a shared **time-bucket wheel** — one calendar entry per *distinct
action instant*, not per member.  With a homogeneous fleet the whole
cohort polls, computes and ships results on a handful of calendar
entries per round.

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
from typing import Any, List, Optional, TYPE_CHECKING

import numpy as _np

from repro.errors import OddCIError
from repro.core.messages import NoWork, TaskAssignment
from repro.net.link import column_view, count_deliveries, offer_rows
from repro.net.message import DEFAULT_HEADER_BITS
from repro.sim.core import Simulator

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

# Member phases (columnar ``_phase`` values).
_JOINED = 0        # slot created, first request not yet sent
_AWAIT_REPLY = 1   # request in flight, waiting for assignment / NoWork
_COMPUTING = 2     # task accepted, compute timer pending
_AWAIT_ACK = 3     # result in flight, waiting for delivery confirmation
_SLEEPING = 4      # NoWork(retry): parked on the poll wheel
_DONE = 5          # NoWork(None): bag dry, loop finished

# Bucket entry kinds.  Entries are small tuples ``(kind, slot, ...)``
# appended in chronological processing order; a bucket replays them in
# insertion order, which mirrors the reference path's seq order.
_K_SEND = 0        # member sends a task request now
_K_REQ_ARR = 1     # request arrives at the Backend
_K_ASSIGN_ARR = 2  # (kind, slot, task): assignment arrives at the member
_K_NOWORK_ARR = 3  # (kind, slot, retry): NoWork arrives at the member
_K_COMPUTE = 4     # compute finishes; ship the result
_K_RESULT_ARR = 5  # (kind, slot, task_id, token): result arrives
_K_DEADLINE = 6    # (kind, slot, deadline): request/ack timeout check

#: Minimum run length for the numpy bulk branches (compute times, link
#: reservations, delivery counts); below it, scalar operations win.
_BULK_MIN = 32


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
        "_row",
        # object columns
        "_pna", "_pna_id", "_uplink", "_downlink", "_executor",
        "members_joined",
    )

    def __init__(self, sim: Simulator, router: "Router",
                 backend: "Backend", instance_id: str) -> None:
        self.sim = sim
        self.router = router
        self.backend = backend
        self.backend_id = backend.backend_id
        self.instance_id = instance_id
        #: time -> ordered entry list; each distinct instant owns exactly
        #: one calendar entry (the DVE poll wheel generalised to every
        #: phase of the task loop).
        self._buckets: dict = {}
        # (time, list) memo for consecutive same-instant appends — the
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
        self._pna: List[Any] = []
        self._pna_id: List[str] = []
        self._uplink: List[Any] = []
        self._downlink: List[Any] = []
        self._executor: List[Any] = []
        self.members_joined = 0

    # -- membership ------------------------------------------------------
    def join(self, pna: "PNA", timeout_s: float) -> int:
        """Add a member; returns its slot.  The first request goes out
        at the current instant (matching the reference DVE, whose
        process resume fires later in the same instant)."""
        slot = len(self._phase)
        self._phase.append(_JOINED)
        self._deadline.append(-1.0)
        self._token.append(0)
        self._task_id.append(-1)
        self._result_bits.append(0.0)
        self._digest.append(0)
        self._completed.append(0)
        self._retrans.append(0)
        self._destroyed.append(0)
        self._timeout.append(timeout_s)
        self._row.append(pna.census_idx)
        self._pna.append(pna)
        self._pna_id.append(pna.pna_id)
        self._uplink.append(pna.channel.uplink)
        self._downlink.append(pna.channel.downlink)
        self._executor.append(pna.executor)
        self.members_joined += 1
        self._append(self.sim.now, (_K_SEND, slot))
        return slot

    def destroy(self, slot: int) -> None:
        """Tombstone a member (idempotent); pending entries lapse."""
        self._destroyed[slot] = 1

    # -- bucket wheel ----------------------------------------------------
    def _append(self, time: float, entry: tuple) -> None:
        if time == self._memo_t:
            self._memo_bucket.append(entry)
            return
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = [entry]
            self.sim.call_at(time, self._fire, time)
        else:
            bucket.append(entry)
        self._memo_t = time
        self._memo_bucket = bucket

    def _fire(self, time: float) -> None:
        # Popping kills the memo: a later same-instant _append (join)
        # must not write into the dead list.
        self._memo_t = None
        self._memo_bucket = None
        self._run_entries(self._buckets.pop(time), 0, time)

    def _run_entries(self, entries: list, start: int, now: float) -> None:
        """Replay ``entries[start:]`` grouped into same-kind runs.

        Result arrivals can settle the job's ``done_event``; when that
        happens mid-bucket the remainder is re-scheduled at the same
        instant so urgent completion callbacks run first — exactly the
        interleaving of the per-member reference path.
        """
        i = start
        n = len(entries)
        while i < n:
            kind = entries[i][0]
            j = i + 1
            while j < n and entries[j][0] == kind:
                j += 1
            if kind == _K_RESULT_ARR:
                deferred = self._handle_result_arrivals(entries, i, j, now)
                if deferred is not None and deferred < n:
                    self.sim.call_at(now, self._run_entries, entries,
                                     deferred, now)
                    return
            elif kind == _K_REQ_ARR:
                self._handle_request_arrivals(entries, i, j, now)
            elif kind == _K_ASSIGN_ARR:
                self._handle_assign_arrivals(entries, i, j, now)
            elif kind == _K_SEND:
                self._batch_send_requests(entries, i, j, now)
            elif kind == _K_COMPUTE:
                self._batch_send_results(entries, i, j, now)
            elif kind == _K_NOWORK_ARR:
                self._handle_nowork_arrivals(entries, i, j, now)
            else:  # _K_DEADLINE
                self._handle_deadlines(entries, i, j, now)
            i = j

    # -- link math -------------------------------------------------------
    def _rows(self, slots: List[int]) -> Any:
        return column_view(self._row)[
            _np.fromiter(slots, _np.int64, len(slots))]

    def _offer_slots(self, links: List[Any], table: Any, slots: List[int],
                     size_bits: Any, now: float) -> List[Optional[float]]:
        """``links[slot].offer(size)`` for each slot, in order; returns
        the delivery times (``None`` where dropped).  ``size_bits`` is
        one size or a list, one per slot."""
        sized = isinstance(size_bits, list)
        if len(slots) < _BULK_MIN:
            if sized:
                return [links[slot].offer(size)
                        for slot, size in zip(slots, size_bits)]
            return [links[slot].offer(size_bits) for slot in slots]
        out = offer_rows(table, self._rows(slots),
                         _np.array(size_bits) if sized else size_bits, now)
        return [None if t != t else t for t in out.tolist()]

    def _count_deliveries(self, links: List[Any], table: Any,
                          entries: list, i: int, j: int) -> None:
        """One delivery on ``links[slot]`` per entry of the run."""
        if j - i < _BULK_MIN:
            for k in range(i, j):
                links[entries[k][1]].count_delivery()
            return
        count_deliveries(table,
                         self._rows([entries[k][1] for k in range(i, j)]))

    # -- request path ----------------------------------------------------
    def _send_request(self, slot: int, now: float) -> None:
        deliver_at = self._uplink[slot].offer(
            CONTROL_PAYLOAD_BITS + DEFAULT_HEADER_BITS)
        if deliver_at is not None:
            self._append(deliver_at, (_K_REQ_ARR, slot))
        self._phase[slot] = _AWAIT_REPLY
        deadline = now + self._timeout[slot]
        self._deadline[slot] = deadline
        self._append(deadline, (_K_DEADLINE, slot, deadline))

    def _batch_send_requests(self, entries: list, i: int, j: int,
                             now: float) -> None:
        """Fused ``_send_request`` over a run — the 10^6-node hot loop.

        The run's uplinks are reserved first, in member order (nothing
        below touches links or RNG streams, so this equals the per-member
        op order offer → arrival entry → phase → deadline entry); the
        two bucket lookups are memoized, since a homogeneous run lands
        every member on the same arrival/deadline instants.
        """
        destroyed = self._destroyed
        phase = self._phase
        deadlines = self._deadline
        timeouts = self._timeout
        buckets = self._buckets
        call_at = self.sim.call_at
        fire = self._fire
        live = [entries[k][1] for k in range(i, j)
                if not destroyed[entries[k][1]]]
        arrivals = self._offer_slots(
            self._uplink, self.router.uplinks, live,
            CONTROL_PAYLOAD_BITS + DEFAULT_HEADER_BITS, now)
        bt = bd = None
        bt_list = bd_list = None
        for slot, deliver_at in zip(live, arrivals):
            if deliver_at is not None:
                if deliver_at != bt:
                    bt = deliver_at
                    bt_list = buckets.get(deliver_at)
                    if bt_list is None:
                        bt_list = buckets[deliver_at] = []
                        call_at(deliver_at, fire, deliver_at)
                bt_list.append((_K_REQ_ARR, slot))
            phase[slot] = _AWAIT_REPLY
            deadline = now + timeouts[slot]
            deadlines[slot] = deadline
            if deadline != bd:
                bd = deadline
                bd_list = buckets.get(deadline)
                if bd_list is None:
                    bd_list = buckets[deadline] = []
                    call_at(deadline, fire, deadline)
            bd_list.append((_K_DEADLINE, slot, deadline))

    def _handle_request_arrivals(self, entries: list, i: int, j: int,
                                 now: float) -> None:
        router = self.router
        # Delivery counting comes first: within one arrival instant
        # nothing observes the counters mid-handler, so count-then-
        # dispatch and dispatch-then-count are end-state identical (the
        # differential suite checks final link counts).
        self._count_deliveries(self._uplink, router.uplinks, entries, i, j)
        if router._payload_receivers.get(self.backend_id) is None:
            # Backend crashed or shut down while the cohort was in
            # flight — same arrival-time check as the bare-payload path.
            router.undeliverable += j - i
            return
        pna_ids = self._pna_id
        requesters = [pna_ids[entries[k][1]] for k in range(i, j)]
        replies = self.backend.receive_request_cohort(requesters,
                                                      self.instance_id)
        channels = router._pna_channels
        control_bits = CONTROL_PAYLOAD_BITS + DEFAULT_HEADER_BITS
        slots = []
        sizes = []
        sent = []
        for k in range(i, j):
            slot = entries[k][1]
            if pna_ids[slot] not in channels:
                continue  # node vanished between request and reply
            reply = replies[k - i]
            slots.append(slot)
            if type(reply) is NoWork:
                sizes.append(control_bits)
                sent.append((_K_NOWORK_ARR, slot, reply.retry_after_s))
            else:  # a Task: the assignment carries the staged input
                sizes.append(control_bits + reply.input_bits)
                sent.append((_K_ASSIGN_ARR, slot, reply))
        arrivals = self._offer_slots(self._downlink, router.downlinks,
                                     slots, sizes, now)
        buckets = self._buckets
        call_at = self.sim.call_at
        fire = self._fire
        bt = None
        bt_list = None
        for entry, deliver_at in zip(sent, arrivals):
            if deliver_at is None:
                continue
            if deliver_at != bt:
                bt = deliver_at
                bt_list = buckets.get(deliver_at)
                if bt_list is None:
                    bt_list = buckets[deliver_at] = []
                    call_at(deliver_at, fire, deliver_at)
            bt_list.append(entry)

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
        self._append(now + compute_s, (_K_COMPUTE, slot))

    def _handle_assign_arrivals(self, entries: list, i: int, j: int,
                                now: float) -> None:
        self._count_deliveries(self._downlink, self.router.downlinks,
                               entries, i, j)
        destroyed = self._destroyed
        phase = self._phase
        pnas = self._pna
        executors = self._executor
        identity = identity_executor
        live = []
        for k in range(i, j):
            e = entries[k]
            slot = e[1]
            if destroyed[slot] or phase[slot] != _AWAIT_REPLY \
                    or not pnas[slot].online:
                continue  # reset/stale: the reference DVE drops it too
            live.append(e)
        if len(live) >= _BULK_MIN and all(
                executors[e[1]] is identity and pnas[e[1]].adversary is None
                for e in live):
            # Bulk branch: identity executors (reference-PC nodes) let
            # the whole run's completion instants come out of one
            # vectorised add — scalar-bit-identical (same op order).
            # Adversarial members fall to the scalar loop, which
            # consults their behaviour profile per slot.
            refs = _np.fromiter((e[2].ref_seconds for e in live),
                                _np.float64, len(live))
            completions = (refs + now).tolist()
            task_ids = self._task_id
            result_bits = self._result_bits
            digests = self._digest
            deadlines = self._deadline
            buckets = self._buckets
            call_at = self.sim.call_at
            fire = self._fire
            bt = None
            bt_list = None
            for e, done_at in zip(live, completions):
                slot = e[1]
                task = e[2]
                task_ids[slot] = task.task_id
                result_bits[slot] = task.result_bits
                digests[slot] = 0
                deadlines[slot] = -1.0
                phase[slot] = _COMPUTING
                if done_at != bt:
                    bt = done_at
                    bt_list = buckets.get(done_at)
                    if bt_list is None:
                        bt_list = buckets[done_at] = []
                        call_at(done_at, fire, done_at)
                bt_list.append((_K_COMPUTE, slot))
            return
        for e in live:
            task = e[2]
            self._accept_assignment(e[1], task.task_id, task.ref_seconds,
                                    task.result_bits, now)

    def _handle_nowork_arrivals(self, entries: list, i: int, j: int,
                                now: float) -> None:
        self._count_deliveries(self._downlink, self.router.downlinks,
                               entries, i, j)
        self._park(entries, i, j, now)

    def _park(self, entries: list, i: int, j: int, now: float) -> None:
        """Apply a run of NoWork replies (stop, or sleep until retry)."""
        destroyed = self._destroyed
        phase = self._phase
        pnas = self._pna
        deadlines = self._deadline
        buckets = self._buckets
        call_at = self.sim.call_at
        fire = self._fire
        bt = None
        bt_list = None
        for k in range(i, j):
            _kind, slot, retry = entries[k]
            if destroyed[slot] or phase[slot] != _AWAIT_REPLY \
                    or not pnas[slot].online:
                continue
            deadlines[slot] = -1.0
            if retry is None:
                phase[slot] = _DONE  # bag is dry: stop
            else:
                phase[slot] = _SLEEPING
                # The poll wheel: every member NoWork'd at this instant
                # shares the same retry bucket — one calendar entry
                # re-polls the whole cohort.
                t = now + retry
                if t != bt:
                    bt = t
                    bt_list = buckets.get(t)
                    if bt_list is None:
                        bt_list = buckets[t] = []
                        call_at(t, fire, t)
                bt_list.append((_K_SEND, slot))

    # -- result path -----------------------------------------------------
    def _send_result(self, slot: int, now: float) -> None:
        self._phase[slot] = _AWAIT_ACK
        token = self._token[slot] + 1
        self._token[slot] = token
        deliver_at = self._uplink[slot].offer(
            CONTROL_PAYLOAD_BITS + self._result_bits[slot]
            + DEFAULT_HEADER_BITS)
        if deliver_at is not None:
            # The digest rides the entry (copied at send time): a stale
            # retransmitted copy must carry the digest of the task it
            # was computed for, never a newer task's slot value.
            self._append(deliver_at,
                         (_K_RESULT_ARR, slot, self._task_id[slot], token,
                          self._digest[slot]))
        deadline = now + self._timeout[slot]
        self._deadline[slot] = deadline
        self._append(deadline, (_K_DEADLINE, slot, deadline))

    def _batch_send_results(self, entries: list, i: int, j: int,
                            now: float) -> None:
        """Fused ``_send_result`` over a compute-completion run; same
        op order per member, uplinks reserved first, memoized buckets
        (see ``_batch_send_requests``)."""
        destroyed = self._destroyed
        phase = self._phase
        tokens = self._token
        task_ids = self._task_id
        result_bits = self._result_bits
        digests = self._digest
        deadlines = self._deadline
        timeouts = self._timeout
        buckets = self._buckets
        call_at = self.sim.call_at
        fire = self._fire
        base = CONTROL_PAYLOAD_BITS + DEFAULT_HEADER_BITS
        live = [entries[k][1] for k in range(i, j)
                if not destroyed[entries[k][1]]]
        arrivals = self._offer_slots(
            self._uplink, self.router.uplinks, live,
            [base + result_bits[slot] for slot in live], now)
        bt = bd = None
        bt_list = bd_list = None
        for slot, deliver_at in zip(live, arrivals):
            phase[slot] = _AWAIT_ACK
            token = tokens[slot] + 1
            tokens[slot] = token
            if deliver_at is not None:
                if deliver_at != bt:
                    bt = deliver_at
                    bt_list = buckets.get(deliver_at)
                    if bt_list is None:
                        bt_list = buckets[deliver_at] = []
                        call_at(deliver_at, fire, deliver_at)
                bt_list.append((_K_RESULT_ARR, slot, task_ids[slot], token,
                                digests[slot]))
            deadline = now + timeouts[slot]
            deadlines[slot] = deadline
            if deadline != bd:
                bd = deadline
                bd_list = buckets.get(deadline)
                if bd_list is None:
                    bd_list = buckets[deadline] = []
                    call_at(deadline, fire, deadline)
            bd_list.append((_K_DEADLINE, slot, deadline))

    def _handle_result_arrivals(self, entries: list, i: int, j: int,
                                now: float) -> Optional[int]:
        """Process result arrivals one by one; returns the index to
        defer from when ``done_event`` settles mid-run, else ``None``."""
        router = self.router
        backend = self.backend
        done_event = backend.done_event
        uplinks = self._uplink
        destroyed = self._destroyed
        phase = self._phase
        tokens = self._token
        pna_ids = self._pna_id
        receive_result = backend.receive_result
        completed = self._completed
        deadlines = self._deadline
        timeouts = self._timeout
        buckets = self._buckets
        call_at = self.sim.call_at
        fire = self._fire
        size = CONTROL_PAYLOAD_BITS + DEFAULT_HEADER_BITS
        bt = bd = None
        bt_list = bd_list = None
        # Constant within one call: no sim callback runs mid-loop, and
        # a mid-run settle defers the remainder to a fresh call (which
        # re-evaluates after the urgent auto-release unregisters).
        gone = router._payload_receivers.get(self.backend_id) is None
        # A certified backend routes every result (real or probe)
        # through its certifier — the inlined happy path below commits
        # straight into the completion records, which would bypass
        # quorum voting.  Falling back keeps the batched tier for every
        # other phase of the loop.
        certifier = getattr(backend, "certifier", None)
        # ``receive_result`` happy path inlined (the 10^6-node hot
        # loop): first-copy results pop straight out of the in-flight
        # table with the exact op order of the scalar handler —
        # duplicates, lease-expired stragglers and the job-done edge
        # fall back to the handler itself.  Guarded by the differential
        # fuzz suite (batched == per-PNA on traces and accounting).
        completed_map = backend._completed
        in_flight_pop = backend._in_flight.pop
        holders_pop = backend._holders.pop
        attempts_pop = backend._attempts.pop
        trace_b = backend._trace
        job_n = backend.job.n
        # Per-network result accounting (federated backends only): every
        # member of this engine lives on this engine's router, so the
        # label resolves once per run.  None on single-network wiring.
        net_counts = getattr(backend, "completed_by_network", None)
        net = backend._net_of_router.get(router) \
            if net_counts is not None else None
        # Settling is monotonic and only this loop can flip it here:
        # when the event was already settled at entry no iteration can
        # observe a flip, so the per-member defer check reduces to one
        # read — and to nothing on the post-done tail.
        was_settled = done_event._settled
        for k in range(i, j):
            _kind, slot, task_id, token, digest = entries[k]
            link = uplinks[slot]
            link.count_delivery()
            if gone:
                router.undeliverable += 1
            elif certifier is not None:
                receive_result(pna_ids[slot], task_id,
                               digest if digest != 0 else None)
            elif task_id not in completed_map \
                    and in_flight_pop(task_id, None) is not None:
                completed_map[task_id] = now
                if net is not None:
                    net_counts[net] += 1
                holders_pop(task_id, None)
                attempts_pop(task_id, None)
                if trace_b is not None:
                    trace_b.emit(now, "complete", task=task_id,
                                 pna=pna_ids[slot], done=len(completed_map),
                                 total=job_n)
                if len(completed_map) == job_n \
                        and not done_event.triggered:
                    if trace_b is not None:
                        trace_b.emit(now, "job_done",
                                     job=backend.job.job_id, tasks=job_n)
                    done_event.succeed(backend.report())
            else:
                receive_result(pna_ids[slot], task_id)
            # The member advances only when the *awaited* copy lands
            # (stale retransmitted copies settle a stale notify event in
            # the reference path — a no-op there too).  The next request
            # goes out inline — fused ``_send_request``, same op order.
            if not destroyed[slot] and phase[slot] == _AWAIT_ACK \
                    and tokens[slot] == token:
                completed[slot] += 1
                deliver_at = link.offer(size)
                if deliver_at is not None:
                    if deliver_at != bt:
                        bt = deliver_at
                        bt_list = buckets.get(deliver_at)
                        if bt_list is None:
                            bt_list = buckets[deliver_at] = []
                            call_at(deliver_at, fire, deliver_at)
                    bt_list.append((_K_REQ_ARR, slot))
                phase[slot] = _AWAIT_REPLY
                deadline = now + timeouts[slot]
                deadlines[slot] = deadline
                if deadline != bd:
                    bd = deadline
                    bd_list = buckets.get(deadline)
                    if bd_list is None:
                        bd_list = buckets[deadline] = []
                        call_at(deadline, fire, deadline)
                bd_list.append((_K_DEADLINE, slot, deadline))
            if not was_settled and done_event._settled:
                return k + 1
        return None

    # -- timeouts --------------------------------------------------------
    def _handle_deadlines(self, entries: list, i: int, j: int,
                          now: float) -> None:
        destroyed = self._destroyed
        phase = self._phase
        deadlines = self._deadline
        retrans = self._retrans
        for k in range(i, j):
            _kind, slot, deadline = entries[k]
            if destroyed[slot] or deadlines[slot] != deadline:
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
            self._park([(_K_NOWORK_ARR, slot, payload.retry_after_s)], 0, 1,
                       now)

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
        self._slot = engine.join(pna, self.request_timeout_s)

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
