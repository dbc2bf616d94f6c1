"""Backend: per-application task scheduling and result collection.

The Backend (paper Section 3.1) manages the activities specific to one
running application: handing tasks to PNAs that ask for work (pull
scheduling, as in voluntary computing), staging task inputs over the
direct channels, collecting results, and declaring the job done.

Fault tolerance: assignments carry a lease; a lease that expires (PNA
switched off mid-task, message lost) puts the task back in the bag.
Completed duplicates are deduplicated.  The makespan — the paper's key
metric — is measured from job submission to the arrival of the last
result at the Backend.

Re-dispatch backoff (DESIGN.md §10): every time a task's lease expires
its next lease grows by ``lease_backoff_base ** attempts`` with an
optional deterministic jitter drawn from the backend's own RNG stream,
so a task stuck behind a systemic fault (backend outage, partition) is
not re-leased at a fixed cadence.  The Backend itself can
:meth:`~Backend.crash` and :meth:`~Backend.restore`: while down it
serves no polls and loses arriving results, and recovery rides the
existing lease machinery — expired leases simply re-enter the bag.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Sequence, Union

import numpy as _np

from repro.errors import BackendError, QuarantinedNodeError
from repro.core.dve import CONTROL_PAYLOAD_BITS
from repro.core.messages import (
    NoWork,
    TaskAssignment,
    TaskRequest,
    TaskResultPayload,
)
from repro.core.network import Router
from repro.net.message import Message
from repro.sim.core import Event, Simulator
from repro.sim.process import Interrupt
from repro.telemetry.trace import channel as _telemetry_channel
from repro.workloads.job import Job, Task, TaskTable

__all__ = ["Backend", "JobReport"]


@dataclass(frozen=True)
class JobReport:
    """Final accounting of a completed job."""

    job_id: int
    n_tasks: int
    submitted_at: float
    completed_at: float
    tasks_assigned: int
    duplicates: int
    requeues: int
    distinct_workers: int
    replicas_issued: int = 0

    @property
    def makespan(self) -> float:
        """Last completion time minus submission time (paper footnote 1)."""
        return self.completed_at - self.submitted_at


#: Task states (the Backend's per-row ``_state`` column): queued in the
#: pending ring; leased to a holder; handed to the certifier, which
#: tracks its copies itself; completed.
_PENDING, _FLIGHT, _OUT, _DONE = 0, 1, 2, 3


class Backend:
    """Task server for one job.

    Parameters
    ----------
    lease_factor:
        Assignment lease = ``lease_factor × task.ref_seconds ×
        worst_case_slowdown`` (plus transfer allowance); ``None``
        disables re-queuing (no fault tolerance).
    worst_case_slowdown:
        Slowest device class expected in the instance — bounds how long
        a healthy node may legitimately hold a task.
    poll_interval_s:
        Retry interval suggested to PNAs when the bag is momentarily
        empty but the job is still incomplete.
    """

    def __init__(
        self,
        sim: Simulator,
        job: Job,
        router: Union[Router, Sequence[Router]],
        *,
        backend_id: str = "backend",
        networks: Optional[Sequence[str]] = None,
        lease_factor: Optional[float] = None,
        worst_case_slowdown: float = 25.0,
        lease_check_interval_s: float = 30.0,
        poll_interval_s: float = 15.0,
        lease_backoff_base: float = 1.0,
        lease_backoff_jitter: float = 0.0,
        replicate_tail: bool = False,
        max_replicas: int = 2,
        scheduling: str = "fifo",
        certify_policy=None,
    ) -> None:
        if lease_factor is not None and lease_factor <= 0:
            raise BackendError("lease_factor must be > 0 when set")
        if worst_case_slowdown <= 0:
            raise BackendError("worst_case_slowdown must be > 0")
        if poll_interval_s <= 0 or lease_check_interval_s <= 0:
            raise BackendError("intervals must be > 0")
        if lease_backoff_base < 1.0:
            raise BackendError("lease_backoff_base must be >= 1")
        if lease_backoff_jitter < 0.0:
            raise BackendError("lease_backoff_jitter must be >= 0")
        if max_replicas < 2:
            raise BackendError("max_replicas must be >= 2 (primary + 1)")
        if scheduling not in ("fifo", "lpt", "spt"):
            raise BackendError(
                f"scheduling must be 'fifo', 'lpt' or 'spt', "
                f"got {scheduling!r}")
        self.sim = sim
        self.job = job
        # Multi-router task routing (federation): a list/tuple of shard
        # routers registers the backend on every shard's fabric, with
        # merged result accounting plus optional per-network counters.
        # A bare Router (or test double) keeps the classic wiring and
        # ``self.router`` stays the primary either way.
        routers = list(router) if isinstance(router, (list, tuple)) \
            else [router]
        if not routers:
            raise BackendError("backend needs at least one router")
        self.routers = routers
        self.router = routers[0]
        if networks is not None and len(networks) != len(routers):
            raise BackendError("networks must match routers one-to-one")
        #: per-network accounting: ``None`` on the classic single-router
        #: wiring so the hot paths keep a single pointer check.
        self.networks = list(networks) if networks is not None else None
        if self.networks is not None:
            self._net_of_router = dict(zip(routers, self.networks))
            self.assigned_by_network: Optional[Dict[str, int]] = \
                {n: 0 for n in self.networks}
            self.completed_by_network: Optional[Dict[str, int]] = \
                {n: 0 for n in self.networks}
            self.requeues_by_network: Optional[Dict[str, int]] = \
                {n: 0 for n in self.networks}
        else:
            self._net_of_router = {}
            self.assigned_by_network = None
            self.completed_by_network = None
            self.requeues_by_network = None
        #: pna_id -> network label cache (node→shard ownership is fixed)
        self._net_of_pna: Dict[str, str] = {}
        self.backend_id = backend_id
        self.lease_factor = lease_factor
        self.worst_case_slowdown = worst_case_slowdown
        self.poll_interval_s = poll_interval_s
        self.lease_check_interval_s = lease_check_interval_s
        self.lease_backoff_base = lease_backoff_base
        self.lease_backoff_jitter = lease_backoff_jitter
        self._backoff_stream = f"backend:{backend_id}:backoff"

        self.replicate_tail = replicate_tail
        self.max_replicas = int(max_replicas)
        self.scheduling = scheduling
        #: result certification (DESIGN.md §15): a CertifyPolicy builds
        #: a ResultCertifier that takes over dispatch/result handling —
        #: redundant copies, quorum voting, probes, quarantine.  ``None``
        #: (the default) keeps the classic direct paths bit-exactly.
        if certify_policy is not None:
            if replicate_tail:
                raise BackendError(
                    "certify_policy and replicate_tail are mutually "
                    "exclusive (certification owns replica placement)")
            from repro.certify.certifier import ResultCertifier
            self.certifier: Optional[ResultCertifier] = \
                ResultCertifier(self, certify_policy)
        else:
            self.certifier = None

        self.submitted_at = sim.now
        # Bag state, one row per task.  The pending queue is the dispatch
        # order — FIFO (submission order), LPT (longest processing time
        # first) or SPT (shortest first) — from a head cursor, then the
        # re-queued rows; entries whose row completed meanwhile (a
        # straggler's result) are skipped when popped.
        self._tasks = tasks = job.tasks
        n, ref = len(tasks), tasks.ref_seconds
        self._ring = _np.arange(n) if scheduling == "fifo" else _np.argsort(
            -ref if scheduling == "lpt" else ref, kind="stable")
        self._head = 0
        self._requeued: Deque[int] = deque()
        self._n_pending = n
        self._state = _np.zeros(n, dtype=_np.int8)
        #: each leased row's holder, assignment instant, lease deadline
        #: (NaN: none) and number (the lease expiry order)
        self._holder = _np.empty(n, dtype=object)
        self._assigned_at = _np.full(n, _np.nan)
        self._lease = _np.full(n, _np.nan)
        self._seq = _np.zeros(n, dtype=_np.int64)
        self._assign_seq = 0
        self._completed_at = _np.full(n, _np.nan)
        self._n_done = 0
        self._workers: set[str] = set()
        #: row -> set of workers holding a copy (primary + replicas)
        self._holders: Dict[int, set] = {}
        #: replica-candidate index: a min-heap of
        #: ``(assigned_at, assign_seq, row)`` pushed per primary
        #: assignment (replication mode only).  Entries are validated
        #: lazily on pop — completed/requeued assignments are stale
        #: (``assigned_at`` no longer matches), fully-replicated tasks
        #: are discarded for good — so candidate search is amortised
        #: O(log n) instead of a full in-flight scan per idle poll.
        self._replica_queue: List[tuple] = []
        self.tasks_assigned = 0
        self.duplicates = 0
        self.requeues = 0
        self.replicas_issued = 0
        #: task_id -> times this task's lease has expired (backoff input)
        self._attempts: Dict[int, int] = {}
        self.alive = True
        self.crashes = 0
        self.restarts = 0
        #: (instance_id, retry_after_s) -> NoWork.  At the end of a job
        #: every idle worker polls repeatedly; the replies are immutable
        #: and drawn from a tiny value set, so they are shared.
        self._nowork_cache: Dict[tuple, NoWork] = {}
        self.done_event: Event = sim.event(name=f"{backend_id}.done")
        self._trace = _telemetry_channel("backend")
        t = self._trace
        self._m_redispatched = \
            t.counter("recovery.tasks_redispatched") if t else None
        self._m_duplicates = \
            t.counter("recovery.duplicates_suppressed") if t else None
        self._m_restarts = t.counter("recovery.backend_restarts") if t \
            else None

        for r in routers:
            r.register_component(backend_id, self._receive,
                                 receive_payload=self._receive_payload)
            # Advertise the cohort dispatch tier: PNAs woken for this
            # backend may drive their DVE loop through a shared
            # CohortTaskEngine (repro.core.taskloop) instead of per-node
            # process frames.  Test doubles that never register here
            # keep every client on the reference path.
            r.register_task_server(backend_id, self)
        self._lease_proc = None
        if lease_factor is not None:
            self._lease_proc = sim.process(self._lease_loop())

    # -- inspection ---------------------------------------------------------
    @property
    def completed_count(self) -> int:
        return self._n_done

    @property
    def pending_count(self) -> int:
        return self._n_pending

    @property
    def in_flight_count(self) -> int:
        return int((self._state == _FLIGHT).sum())

    @property
    def done(self) -> bool:
        return self._n_done == self.job.n

    @property
    def _completed(self) -> Dict[int, float]:
        """``task_id -> completion time`` of every completed task."""
        rows = _np.flatnonzero(self._state == _DONE)
        return dict(zip(self._tasks.task_id[rows].tolist(),
                        self._completed_at[rows].tolist()))

    @property
    def _in_flight(self) -> Dict[int, tuple]:
        """``task_id -> (task, holder, assigned_at, lease or None)`` of
        every leased task."""
        leased = {}
        for row in _np.flatnonzero(self._state == _FLIGHT).tolist():
            task, lease = self._tasks[row], float(self._lease[row])
            leased[task.task_id] = (task, self._holder[row],
                                    float(self._assigned_at[row]),
                                    None if lease != lease else lease)
        return leased

    def report(self) -> JobReport:
        if not self.done:
            raise BackendError(
                f"job {self.job.job_id} incomplete "
                f"({self.completed_count}/{self.job.n})")
        return JobReport(
            job_id=self.job.job_id,
            n_tasks=self.job.n,
            submitted_at=self.submitted_at,
            completed_at=float(_np.nanmax(self._completed_at)),
            tasks_assigned=self.tasks_assigned,
            duplicates=self.duplicates,
            requeues=self.requeues,
            distinct_workers=len(self._workers),
            replicas_issued=self.replicas_issued,
        )

    # -- message handling ------------------------------------------------------
    def _receive(self, msg: Message) -> None:
        self._receive_payload(msg.payload)

    def _receive_payload(self, payload) -> None:
        if isinstance(payload, TaskRequest):
            self._handle_request(payload)
        elif isinstance(payload, TaskResultPayload):
            self._handle_result(payload)
        else:
            raise BackendError(f"backend got unexpected payload {payload!r}")

    def _handle_request(self, request: TaskRequest) -> None:
        reply = self._serve_request(request.pna_id, request.instance_id)
        if type(reply) is NoWork:
            self._send(request.pna_id, reply, CONTROL_PAYLOAD_BITS)
            return
        assignment = TaskAssignment(
            task_id=reply.task_id, ref_seconds=reply.ref_seconds,
            input_bits=reply.input_bits, result_bits=reply.result_bits)
        # The assignment's wire size includes the task input being staged.
        self._send(request.pna_id, assignment,
                   CONTROL_PAYLOAD_BITS + reply.input_bits)

    def _serve_request(self, pna_id: str,
                       instance_id: str) -> Union[Task, NoWork]:
        """Serve one task request: all scheduling state transitions
        (bag pop, lease, replica pick, accounting, traces) minus the
        reply delivery, which the caller owns — the wire path sends a
        :class:`TaskAssignment`, the cohort engine consumes the
        :class:`Task` directly."""
        self._workers.add(pna_id)
        if self.certifier is not None:
            try:
                return self.certifier.serve(pna_id, instance_id)
            except QuarantinedNodeError:
                # a blacklisted node polled: terminal NoWork — its
                # client loop stops instead of spinning on retries
                return self._nowork_reply(instance_id, None)
        row = self._pop_pending()
        is_replica = False
        if row is None and self.replicate_tail and not self.done:
            row = self._pick_replica_candidate(pna_id)
            is_replica = row is not None
        if row is None:
            # Bag empty: if the job is done the worker can stop; otherwise
            # tasks are in flight and might be re-queued — poll again.
            retry = None if self.done else self.poll_interval_s
            return self._nowork_reply(instance_id, retry)
        task = self._tasks[row]
        if not is_replica:
            now = self.sim.now
            lease_s = self._lease_seconds(task, pna_id)
            self._lease_rows([row], [pna_id], now,
                             _np.nan if lease_s is None else now + lease_s)
            self.tasks_assigned += 1
            if self.assigned_by_network is not None:
                net = self._network_for(pna_id)
                if net is not None:
                    self.assigned_by_network[net] += 1
            if self.replicate_tail:
                heappush(self._replica_queue, (now, self._assign_seq, row))
        else:
            self.replicas_issued += 1
        if self.replicate_tail:
            # Copy-holder tracking only matters for replica placement;
            # skip the per-task set when replication is off.
            self._holders.setdefault(row, set()).add(pna_id)
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "dispatch", task=task.task_id,
                       pna=pna_id, replica=is_replica)
        return task

    def _lease_rows(self, rows, holders: list, now: float, leases) -> None:
        """Lease ``rows`` to ``holders`` at ``now``, numbered in order."""
        seq = self._assign_seq
        self._assign_seq = seq + len(rows)
        self._state[rows] = _FLIGHT
        self._holder[rows] = holders
        self._assigned_at[rows] = now
        self._lease[rows] = leases
        self._seq[rows] = _np.arange(seq + 1, self._assign_seq + 1)

    def _nowork_reply(self, instance_id: str,
                      retry: Optional[float]) -> NoWork:
        """Shared immutable NoWork for ``(instance, retry)`` — at the
        end of a job every idle worker polls repeatedly."""
        cache_key = (instance_id, retry)
        reply = self._nowork_cache.get(cache_key)
        if reply is None:
            reply = NoWork(instance_id=instance_id, retry_after_s=retry)
            self._nowork_cache[cache_key] = reply
        return reply

    def _lease_seconds(self, task, pna_id: str) -> Optional[float]:
        """Lease length for assigning ``task`` to ``pna_id`` now,
        including the per-attempt exponential backoff and the optional
        deterministic jitter; ``None`` when leasing is disabled.

        Shared by the direct dispatch path and the certifier (each
        certified *copy* gets its own lease from the same streams).
        """
        if self.lease_factor is None:
            return None
        lease_s = self.lease_factor * (
            task.ref_seconds * self.worst_case_slowdown
            + self.poll_interval_s)
        attempt = self._attempts.get(task.task_id, 0)
        if attempt:
            # Exponential backoff per expired lease, plus an
            # optional deterministic jitter so re-dispatches
            # desynchronise from a systemic fault's cadence.
            # At the default (base=1, jitter=0) this branch
            # never changes lease_s and draws no RNG.
            if self.lease_backoff_base != 1.0:
                lease_s *= self.lease_backoff_base ** attempt
            if self.lease_backoff_jitter > 0.0:
                lease_s *= 1.0 + self.lease_backoff_jitter * float(
                    self.sim.rng(
                        self._backoff_stream_for(pna_id)).random())
        return lease_s

    # -- cohort dispatch tier ------------------------------------------------
    def receive_request_cohort(self, requesters: Sequence[str],
                               instance_id: str) -> Sequence:
        """Serve a same-instant batch of task requests in one pass.

        Equivalent to calling the scalar handler once per requester *in
        order* — same bag pops, lease values, accounting and traces.
        The plain-FIFO case is columnar: when the bag covers the whole
        cohort and neither tail replication, certification nor lease
        backoff can alter an individual assignment, the rows come off
        the queue as one slice, the leases out of one numpy expression
        (bit-identical op order to the scalar path), and the reply is
        the served rows as a :class:`TaskTable`, requester ``i`` getting
        row ``i``.  Otherwise it is a list of :class:`Task` or shared
        :class:`NoWork` replies.  The caller owns delivery.
        """
        k = len(requesters)
        if (self.replicate_tail or self.certifier is not None
                or (self._attempts and (self.lease_backoff_base != 1.0
                                        or self.lease_backoff_jitter != 0.0))
                or self._n_pending < k
                or self._n_pending != len(self._ring) - self._head
                + len(self._requeued)):
            # replicas, certified copies, per-attempt leases, a bag
            # short of the cohort, or a tombstone in the queue: one
            # request at a time
            return [self._serve_request(pna_id, instance_id)
                    for pna_id in requesters]
        self._workers.update(requesters)
        now = self.sim.now
        head = self._head
        rows = self._ring[head:head + k]
        self._head = head + len(rows)
        if len(rows) < k:
            requeued = self._requeued.popleft
            rows = _np.concatenate((rows, _np.fromiter(
                (requeued() for _ in range(k - len(rows))), _np.int64)))
        self._n_pending -= k
        lease_factor = self.lease_factor
        # Same op order as _lease_seconds, so bit-identical leases.
        leases = _np.nan if lease_factor is None else now + lease_factor * (
            self._tasks.ref_seconds[rows] * self.worst_case_slowdown
            + self.poll_interval_s)
        self._lease_rows(rows, requesters, now, leases)
        self.tasks_assigned += k
        if self.assigned_by_network is not None and k:
            # A cohort is a property of one shard's fabric, so every
            # requester in it lives on the same network; prime the whole
            # cohort's label cache (requeue labelling reads it after the
            # holder may have left the router).
            net = self._network_for(requesters[0])
            if net is not None:
                self.assigned_by_network[net] += k
                cache = self._net_of_pna
                for pna_id in requesters:
                    cache[pna_id] = net
        tasks = self._tasks
        served = TaskTable(tasks.task_id[rows], tasks.input_bits[rows],
                           tasks.ref_seconds[rows], tasks.result_bits[rows])
        trace = self._trace
        if trace is not None:
            for i, task_id in enumerate(served.task_id.tolist()):
                trace.emit(now, "dispatch", task=task_id, pna=requesters[i],
                           replica=False)
        return served

    def receive_result_cohort(self, pna_ids: Sequence[str],
                              task_ids: _np.ndarray) -> Optional[int]:
        """Accept a same-instant batch of results in one pass.

        Equivalent to calling :meth:`receive_result` once per
        ``(pna_id, task_id)`` *in order* — same records, accounting and
        traces — except that it stops right after the result that
        settles :attr:`done_event` and returns that result's index
        (``None`` when none did): the caller defers the rest so the
        urgent completion callbacks run first, as they do between
        per-message deliveries.  Leased tasks commit under one mask and
        every other result counts as a duplicate; a batch with a
        lease-expired straggler or a task twice goes one by one.
        Uncertified backends only: the certifier votes per copy and
        needs each copy's digest.
        """
        if self.certifier is not None:
            raise BackendError(
                "certified results go through receive_result one by one")
        rows = self._tasks.rows_of(task_ids)
        state = _np.where(rows >= 0, self._state[rows], _DONE)
        pos = _np.flatnonzero(state == _FLIGHT)
        first = rows[pos]
        if (state == _PENDING).any() or _np.unique(first).size < first.size:
            # a lease-expired straggler, or a task twice: one by one
            done_event = self.done_event
            was_settled = done_event._settled
            for k, (pna_id, task_id) in enumerate(
                    zip(pna_ids, task_ids.tolist())):
                self.receive_result(pna_id, task_id)
                if not was_settled and done_event._settled:
                    return k
            return None
        done_before = self._n_done
        need = self.job.n - done_before
        stop = int(pos[need - 1]) if 0 < need <= pos.size else None
        if stop is not None:  # the settling result commits last, alone
            pos, first = pos[:need - 1], first[:need - 1]
        self._suppress_duplicate(
            (len(rows) if stop is None else stop) - pos.size)
        self._state[first] = _DONE
        self._completed_at[first] = self.sim.now
        self._n_done += pos.size
        if self.completed_by_network is not None or self._holders \
                or self._attempts or self._trace is not None:
            for j, (k, row, task_id) in enumerate(zip(
                    pos.tolist(), first.tolist(), task_ids[pos].tolist())):
                self._completion_effects(row, task_id, pna_ids[k],
                                         done_before + j + 1)
        if stop is not None:
            self._record_completion(int(task_ids[stop]), pna_ids[stop])
        return stop

    def _pick_replica_candidate(self, requester: str) -> Optional[int]:
        """Straggler mitigation: the row of the oldest leased task whose
        copy count is below ``max_replicas`` and which the requester is
        not already computing.

        Served from :attr:`_replica_queue`; entries the requester
        already holds are set aside and pushed back so they stay
        available to other requesters."""
        heap = self._replica_queue
        state = self._state
        assigned_at = self._assigned_at
        holders_map = self._holders
        max_replicas = self.max_replicas
        skipped = []
        found: Optional[int] = None
        while heap:
            at, _seq, row = heap[0]
            if state[row] != _FLIGHT or assigned_at[row] != at:
                heappop(heap)  # completed or requeued: stale entry
                continue
            holders = holders_map.get(row)
            if holders is not None and len(holders) >= max_replicas:
                heappop(heap)  # fully replicated: never a candidate again
                continue
            if holders is not None and requester in holders:
                skipped.append(heappop(heap))
                continue
            found = row
            break
        for entry in skipped:
            heappush(heap, entry)
        return found

    def _handle_result(self, result: TaskResultPayload) -> None:
        self.receive_result(result.pna_id, result.task_id,
                            getattr(result, "digest", None))

    def receive_result(self, pna_id: str, task_id: int,
                       digest: Optional[int] = None) -> None:
        """Accept one task result (wire payload or cohort engine).

        ``digest`` is the certification summary; uncertified backends
        ignore it (a Byzantine result is silently accepted — exactly
        the gap the certifier closes)."""
        if self.certifier is not None:
            self.certifier.on_result(pna_id, task_id, digest)
            return
        row = self._tasks.row_of(task_id)
        if row is None or self._state[row] not in (_PENDING, _FLIGHT):
            self._suppress_duplicate()
            return
        # A pending row's lease expired but its worker finished anyway:
        # accept the result; the queue entry is skipped when popped.
        self._record_completion(task_id, pna_id)

    def _record_completion(self, task_id: int, pna_id: str) -> None:
        """Commit one completion: records, per-network counts, traces,
        and the job-done event.  Shared by the direct result path and
        the certifier's quorum commit."""
        row = self._tasks.row_of(task_id)
        if self._state[row] == _PENDING:
            self._n_pending -= 1
        self._state[row] = _DONE
        now = self.sim.now
        self._completed_at[row] = now
        self._n_done += 1
        self._completion_effects(row, task_id, pna_id, self._n_done)
        if self._n_done == self.job.n and not self.done_event.triggered:
            if self._trace is not None:
                self._trace.emit(now, "job_done", job=self.job.job_id,
                                 tasks=self.job.n)
            self.done_event.succeed(self.report())

    def _completion_effects(self, row: int, task_id: int, pna_id: str,
                            done: int) -> None:
        """Side effects of the ``done``-th completion."""
        if self.completed_by_network is not None:
            net = self._network_for(pna_id)
            if net is not None:
                self.completed_by_network[net] += 1
        self._holders.pop(row, None)
        self._attempts.pop(task_id, None)
        if self._trace is not None:
            self._trace.emit(self.sim.now, "complete", task=task_id,
                             pna=pna_id, done=done, total=self.job.n)

    def _suppress_duplicate(self, count: int = 1) -> None:
        self.duplicates += count
        if self._m_duplicates is not None:
            self._m_duplicates.value += count

    def _pop_pending(self) -> Optional[int]:
        """Pop the next queued row (skipping tombstones), or ``None``."""
        state = self._state
        while True:
            if self._head < len(self._ring):
                row = int(self._ring[self._head])
                self._head += 1
            elif self._requeued:
                row = self._requeued.popleft()
            else:
                return None
            if state[row] == _PENDING:
                state[row] = _OUT
                self._n_pending -= 1
                return row

    def _next_task(self) -> Optional[Task]:
        """Pop the next queued task (the certifier's dispatch)."""
        row = self._pop_pending()
        return None if row is None else self._tasks[row]

    def _send(self, pna_id: str, payload, payload_bits: float) -> None:
        for router in self.routers:
            if router.has_pna(pna_id):
                router.send_to_pna(self.backend_id, pna_id, payload,
                                   payload_bits, quiet=True)
                return
        # node vanished between request and reply

    def _network_for(self, pna_id: str) -> Optional[str]:
        """Network label of the shard that owns ``pna_id`` (federated
        mode only; cached — node→shard ownership never moves)."""
        net = self._net_of_pna.get(pna_id)
        if net is None:
            for router in self.routers:
                if router.has_pna(pna_id):
                    net = self._net_of_router.get(router)
                    if net is not None:
                        self._net_of_pna[pna_id] = net
                    break
        return net

    def _backoff_stream_for(self, pna_id: str) -> str:
        """RNG stream for lease-backoff jitter: the historical
        per-backend stream on single-network wiring, one stream per
        shard under federation so each shard's re-dispatch schedule is
        independent of cross-shard interleaving."""
        if self.networks is None:
            return self._backoff_stream
        net = self._network_for(pna_id)
        if net is None:
            return self._backoff_stream
        return f"{self._backoff_stream}:{net}"

    # -- lease management ----------------------------------------------------
    def _lease_loop(self):
        try:
            while not self.done:
                yield self.lease_check_interval_s
                now = self.sim.now
                if self.certifier is not None:
                    # certified copies carry their own per-holder leases
                    self.certifier.expire_leases(now)
                    continue
                expired = _np.flatnonzero((self._state == _FLIGHT)
                                          & (self._lease < now))
                # in assignment order, as the in-flight records were kept
                expired = expired[_np.argsort(self._seq[expired])]
                trace = self._trace
                for row, tid in zip(expired.tolist(), self._tasks.task_id[
                        expired].tolist()):
                    pna_id = self._holder[row]
                    self._state[row] = _PENDING
                    self._requeued.append(row)
                    self._n_pending += 1
                    self.requeues += 1
                    if self.requeues_by_network is not None:
                        # Cached label: the holder may already be gone
                        # from its router (that is why the lease died).
                        net = self._net_of_pna.get(pna_id)
                        if net is not None:
                            self.requeues_by_network[net] += 1
                    self._attempts[tid] = self._attempts.get(tid, 0) + 1
                    if trace is not None:
                        trace.emit(now, "requeue", task=tid, pna=pna_id,
                                   attempt=self._attempts[tid])
                        self._m_redispatched.value += 1
        except Interrupt:
            pass

    # -- crash & recovery ----------------------------------------------------
    def crash(self) -> None:
        """Kill the Backend: no polls served, arriving results lost.

        In-flight assignments keep their leases; once restored, the
        lease loop re-queues whatever expired during the outage — the
        at-least-once contract needs no extra bookkeeping."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "crash", backend=self.backend_id,
                       in_flight=self.in_flight_count,
                       pending=self._n_pending)
        for router in self.routers:
            router.unregister_component(self.backend_id)
        if self._lease_proc is not None and self._lease_proc.alive:
            self._lease_proc.interrupt("backend crashed")

    def restore(self) -> None:
        """Restart after :meth:`crash`; task state survives (durable bag)."""
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        for router in self.routers:
            router.register_component(
                self.backend_id, self._receive,
                receive_payload=self._receive_payload)
        if self.lease_factor is not None and not self.done:
            self._lease_proc = self.sim.process(self._lease_loop())
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "restore", backend=self.backend_id)
            self._m_restarts.value += 1

    def shutdown(self) -> None:
        """Unregister from the router and stop background processes."""
        for router in self.routers:
            if self.alive:
                router.unregister_component(self.backend_id)
            router.unregister_task_server(self.backend_id, self)
        if self._lease_proc is not None and self._lease_proc.alive:
            self._lease_proc.interrupt("backend shutdown")
