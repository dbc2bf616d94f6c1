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
from repro.core.messages import (
    CONTROL_PAYLOAD_BITS,
    NoWork,
    TaskAssignment,
    TaskRequest,
    TaskResultPayload,
)
from repro.core.network import Router
from repro.net.link import all_distinct, as_index
from repro.sim.core import Event, Simulator
from repro.sim.process import Interrupt
from repro.telemetry.trace import channel as _telemetry_channel
from repro.telemetry.trace import metrics_registry
from repro.workloads.job import Job, Task

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


def _take(values, pos):
    """``values[pos]``, where either may be a ``range``."""
    if type(pos) is range:
        return values[pos.start:pos.stop]
    return pos + values.start if type(values) is range else values[pos]


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
        self.sim = sim
        self.job = job
        # Multi-router task routing: a list/tuple of network routers
        # registers the backend on every network's fabric, with merged
        # result accounting plus per-network counters.  A bare Router
        # (or test double) is one network; ``self.router`` stays the
        # primary either way.
        routers = list(router) if isinstance(router, (list, tuple)) \
            else [router]
        if not routers:
            raise BackendError("backend needs at least one router")
        self.routers = routers
        self.router = routers[0]
        #: a node's key here is its row in the routers' one shared
        #: interner: ``_node`` interns a wire id, ``_id_of`` names a row
        #: for traces and inspection only
        interner = self._interner = routers[0].interner
        if any(r.interner is not interner for r in routers):
            raise BackendError("routers must share one NodeInterner")
        self._node, self._id_of = interner.intern, interner.id_of
        if networks is not None and len(networks) != len(routers):
            raise BackendError("networks must match routers one-to-one")
        #: each router's network label (default: the unnamed network)
        #: and the per-network accounting
        self.networks = list(networks) if networks is not None \
            else [""] * len(routers)
        self._net_of_router = dict(zip(routers, self.networks))
        self.assigned_by_network: Dict[str, int] = \
            dict.fromkeys(self.networks, 0)
        self.completed_by_network: Dict[str, int] = \
            dict.fromkeys(self.networks, 0)
        self.requeues_by_network: Dict[str, int] = \
            dict.fromkeys(self.networks, 0)
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
        # Bag state, one row per task.  The pending queue is the rows in
        # submission order from a head cursor, then the re-queued rows;
        # entries whose row completed meanwhile (a straggler's result)
        # are skipped when popped.
        self._tasks = tasks = job.tasks
        self._n = n = len(tasks)
        self._head = 0
        self._requeued: Deque[int] = deque()
        self._n_pending = n
        self._state = _np.zeros(n, dtype=_np.int8)
        #: each leased row's holder (a node row, -1: none), assignment
        #: instant and, with leasing on, lease deadline and number (the
        #: lease expiry order).  An instant column holds codes into
        #: ``_instants``, every instant the Backend wrote in ascending
        #: order after code 0's NaN: a lockstep cohort shares one.
        self._holder = _np.full(n, -1, dtype=_np.int32)
        self._instants: List[float] = [_np.nan]
        self._assigned_at = _np.zeros(n, dtype=_np.uint8)
        self._lease = self._seq = None
        if lease_factor is not None:
            self._lease = _np.full(n, _np.nan)
            self._seq = _np.zeros(n, dtype=_np.int64)
        self._assign_seq = 0
        self._completed_at = _np.zeros(n, dtype=_np.uint8)
        self._n_done = 0
        #: 1 at the row of every node that ever asked for work
        self._workers = _np.zeros(0, dtype=bool)
        #: row -> set of node rows holding a copy (primary + replicas)
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
        registry = metrics_registry()
        self._m_redispatched = self._m_duplicates = self._m_restarts = None
        if registry is not None:
            self._m_redispatched = registry.counter(
                "recovery.tasks_redispatched")
            self._m_duplicates = registry.counter(
                "recovery.duplicates_suppressed")
            self._m_restarts = registry.counter("recovery.backend_restarts")

        for r in routers:
            r.register_component(backend_id, self._receive_payload)
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
        return dict(zip(self._tasks.take(rows).task_id.tolist(),
                        map(self._instants.__getitem__,
                            self._completed_at[rows].tolist())))

    @property
    def _in_flight(self) -> Dict[int, tuple]:
        """``task_id -> (task, holder id, assigned_at, lease or None)``
        of every leased task."""
        leased = {}
        for row in _np.flatnonzero(self._state == _FLIGHT).tolist():
            task = self._tasks[row]
            lease = None if self._lease is None else float(self._lease[row])
            leased[task.task_id] = (task, self._id_of(int(self._holder[row])),
                                    self._instants[self._assigned_at[row]],
                                    None if lease != lease else lease)
        return leased

    @property
    def workers(self) -> frozenset:
        """The ids of every node that asked for work."""
        return frozenset(map(self._id_of,
                             _np.flatnonzero(self._workers).tolist()))

    def report(self) -> JobReport:
        if not self.done:
            raise BackendError(
                f"job {self.job.job_id} incomplete "
                f"({self.completed_count}/{self.job.n})")
        return JobReport(
            job_id=self.job.job_id,
            n_tasks=self.job.n,
            submitted_at=self.submitted_at,
            completed_at=self._instants[self._completed_at.max()],
            tasks_assigned=self.tasks_assigned,
            duplicates=self.duplicates,
            requeues=self.requeues,
            distinct_workers=int(_np.count_nonzero(self._workers)),
            replicas_issued=self.replicas_issued,
        )

    # -- message handling ------------------------------------------------------
    def _receive_payload(self, payload) -> None:
        if isinstance(payload, TaskRequest):
            self._handle_request(payload)
        elif isinstance(payload, TaskResultPayload):
            self._handle_result(payload)
        else:
            raise BackendError(f"backend got unexpected payload {payload!r}")

    def _mark_workers(self, rows) -> None:
        """Count the nodes at ``rows`` (an index) among the workers."""
        short = len(self._interner) - self._workers.size
        if short > 0:
            self._workers = _np.concatenate((self._workers,
                                             _np.zeros(short, dtype=bool)))
        self._workers[rows] = True

    def _handle_request(self, request: TaskRequest) -> None:
        reply = self._serve_request(self._node(request.pna_id),
                                    request.instance_id)
        if type(reply) is NoWork:
            self._send(request.pna_id, reply, CONTROL_PAYLOAD_BITS)
            return
        assignment = TaskAssignment(
            task_id=reply.task_id, ref_seconds=reply.ref_seconds,
            input_bits=reply.input_bits, result_bits=reply.result_bits)
        # The assignment's wire size includes the task input being staged.
        self._send(request.pna_id, assignment,
                   CONTROL_PAYLOAD_BITS + reply.input_bits)

    def _serve_request(self, node: int,
                       instance_id: str) -> Union[Task, NoWork]:
        """Serve one task request from the node at row ``node``: all
        scheduling state transitions (bag pop, lease, replica pick,
        accounting, traces) minus the reply delivery, which the caller
        owns — the wire path sends a :class:`TaskAssignment`, the
        cohort engine consumes the :class:`Task` directly."""
        self._mark_workers(node)
        if self.certifier is not None:
            try:
                return self.certifier.serve(node, instance_id)
            except QuarantinedNodeError:
                # a blacklisted node polled: terminal NoWork — its
                # client loop stops instead of spinning on retries
                return self._nowork_reply(instance_id, None)
        row = self._pop_pending()
        is_replica = False
        if row is None and self.replicate_tail and not self.done:
            row = self._pick_replica_candidate(node)
            is_replica = row is not None
        if row is None:
            # Bag empty: if the job is done the worker can stop; otherwise
            # tasks are in flight and might be re-queued — poll again.
            retry = None if self.done else self.poll_interval_s
            return self._nowork_reply(instance_id, retry)
        task = self._tasks[row]
        if not is_replica:
            now = self.sim.now
            lease_s = self._lease_seconds(task, node)
            self._lease_rows([row], [node], now,
                             _np.nan if lease_s is None else now + lease_s)
            self.tasks_assigned += 1
            self._count(self.assigned_by_network, node)
            if self.replicate_tail:
                heappush(self._replica_queue, (now, self._assign_seq, row))
        else:
            self.replicas_issued += 1
        if self.replicate_tail:
            # Copy-holder tracking only matters for replica placement;
            # skip the per-task set when replication is off.
            self._holders.setdefault(row, set()).add(node)
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "dispatch", task=task.task_id,
                       pna=self._id_of(node), replica=is_replica)
        return task

    def _lease_rows(self, rows, holders, now: float, leases) -> None:
        """Lease task ``rows`` (an index) to the nodes at ``holders`` (an
        int array or a ``range``) at ``now``, numbered in order."""
        seq = self._assign_seq
        self._assign_seq = seq + len(holders)
        self._state[rows] = _FLIGHT
        self._holder[rows] = _np.arange(
            holders.start, holders.stop, dtype=_np.int32) \
            if type(holders) is range else holders
        self._assigned_at[rows] = self._code(now)
        if self._lease is not None:
            self._lease[rows] = leases
            self._seq[rows] = _np.arange(seq + 1, self._assign_seq + 1)

    def _code(self, now: float) -> int:
        """The instant code of ``now``, added to ``_instants`` when it is
        new; the instant columns widen when it outgrows their dtype."""
        instants = self._instants
        if now != instants[-1]:
            instants.append(now)
            if (len(instants) - 1) >> 8 * self._assigned_at.itemsize:
                dtype = _np.min_scalar_type(len(instants) - 1)
                self._assigned_at = self._assigned_at.astype(dtype)
                self._completed_at = self._completed_at.astype(dtype)
        return len(instants) - 1

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

    def _lease_seconds(self, task, node: int) -> Optional[float]:
        """Lease length for assigning ``task`` to the node at row
        ``node`` now, including the per-attempt exponential backoff and
        the optional deterministic jitter; ``None`` when leasing is
        disabled.

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
                        self._backoff_stream_for(node)).random())
        return lease_s

    # -- cohort dispatch tier ------------------------------------------------
    def receive_request_cohort(self, rows: Sequence[int],
                               instance_id: str) -> Sequence:
        """Serve a same-instant batch of task requests in one pass, from
        the nodes at ``rows`` (int64, a list of ints or a ``range``).

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
        k = len(rows)
        if (self.replicate_tail or self.certifier is not None
                or (self._attempts and (self.lease_backoff_base != 1.0
                                        or self.lease_backoff_jitter != 0.0))
                or self._n_pending < k
                or self._n_pending != self._n - self._head
                + len(self._requeued)):
            # replicas, certified copies, per-attempt leases, a bag
            # short of the cohort, or a tombstone in the queue: one
            # request at a time
            return [self._serve_request(node, instance_id) for node in (
                rows.tolist() if isinstance(rows, _np.ndarray) else rows)]
        self._mark_workers(as_index(rows) if type(rows) is range else rows)
        now = self.sim.now
        head = self._head
        end = self._head = min(head + k, self._n)
        served = slice(head, end)
        if end - head < k:
            requeued = self._requeued.popleft
            tail = _np.fromiter((requeued() for _ in range(k - end + head)),
                                _np.int64)
            served = as_index(_np.concatenate((_np.arange(head, end), tail)))
        self._n_pending -= k
        tasks = self._tasks
        lease_factor = self.lease_factor
        # Same op order as _lease_seconds, so bit-identical leases.
        leases = _np.nan if lease_factor is None else now + lease_factor * (
            tasks.ref_seconds[served] * self.worst_case_slowdown
            + self.poll_interval_s)
        self._lease_rows(served, rows, now, leases)
        self.tasks_assigned += k
        if k:
            # A cohort is a property of one shard's fabric, so every
            # requester in it lives on the same network.
            self._count(self.assigned_by_network, int(rows[0]), k)
        reply = tasks.take(served)
        trace = self._trace
        if trace is not None:
            for node, task_id in zip(_np.asarray(rows).tolist(),
                                     reply.task_id.tolist()):
                trace.emit(now, "dispatch", task=task_id,
                           pna=self._id_of(node), replica=False)
        return reply

    def receive_result_cohort(self, rows, task_ids) -> Optional[int]:
        """Accept a same-instant batch of results in one pass, from the
        nodes at ``rows`` (an int array or a ``range``); ``task_ids``
        is an int64 array or a ``range``.

        Equivalent to calling :meth:`receive_result` once per
        ``(node, task_id)`` *in order* — same records, accounting and
        traces — except that it stops right after the result that
        settles :attr:`done_event` and returns that result's index
        (``None`` when none did): the caller defers the rest so the
        urgent completion callbacks run first, as they do between
        per-message deliveries.  Leased tasks commit under one mask (a
        ``range`` of them as a slice) and every other result counts as a
        duplicate; a batch with a lease-expired straggler or a task twice
        goes one by one.
        Uncertified backends only: the certifier votes per copy and
        needs each copy's digest.
        """
        if self.certifier is not None:
            raise BackendError(
                "certified results go through receive_result one by one")
        tasks = self._tasks.rows_of(task_ids)
        state = self._state[as_index(tasks)] if type(tasks) is range \
            else _np.where(tasks >= 0, self._state[tasks], _DONE)
        leased = state == _FLIGHT
        pos = range(len(state)) if leased.all() else _np.flatnonzero(leased)
        first = _take(tasks, pos)
        if type(first) is not range and (
                (state == _PENDING).any() or not all_distinct(first)):
            # a lease-expired straggler, or a task twice: one by one
            done_event = self.done_event
            was_settled = done_event._settled
            for k, (node, task_id) in enumerate(zip(
                    _np.asarray(rows).tolist(),
                    _np.asarray(task_ids).tolist())):
                self._take_result(node, task_id)
                if not was_settled and done_event._settled:
                    return k
            return None
        done_before = self._n_done
        need = self.job.n - done_before
        stop = int(pos[need - 1]) if 0 < need <= len(pos) else None
        if stop is not None:  # the settling result commits last, alone
            pos, first = pos[:need - 1], first[:need - 1]
        self._suppress_duplicate(
            (len(state) if stop is None else stop) - len(pos))
        done = as_index(first)
        self._state[done] = _DONE
        self._completed_at[done] = self._code(self.sim.now)
        self._n_done += len(pos)
        self._count_rows(self.completed_by_network, _take(rows, pos))
        if self._holders or self._attempts or self._trace is not None:
            for j, (row, task_id, node) in enumerate(zip(*(
                    _np.asarray(values).tolist() for values in (
                        first, _take(task_ids, pos), _take(rows, pos))))):
                self._completion_effects(row, task_id, node,
                                         done_before + j + 1)
        if stop is not None:
            self._record_completion(int(task_ids[stop]), int(rows[stop]))
        return stop

    def _pick_replica_candidate(self, requester: int) -> Optional[int]:
        """Straggler mitigation: the row of the oldest leased task whose
        copy count is below ``max_replicas`` and which the requester
        (a node row) is not already computing.

        Served from :attr:`_replica_queue`; entries the requester
        already holds are set aside and pushed back so they stay
        available to other requesters."""
        heap = self._replica_queue
        state = self._state
        assigned_at, instants = self._assigned_at, self._instants
        holders_map = self._holders
        max_replicas = self.max_replicas
        skipped = []
        found: Optional[int] = None
        while heap:
            at, _seq, row = heap[0]
            if state[row] != _FLIGHT or instants[assigned_at[row]] != at:
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
        node = self._node(pna_id)
        if self.certifier is not None:
            self.certifier.on_result(node, task_id, digest)
            return
        self._take_result(node, task_id)

    def _take_result(self, node: int, task_id: int) -> None:
        """An uncertified result from the node at row ``node``."""
        row = self._tasks.row_of(task_id)
        if row is None or self._state[row] not in (_PENDING, _FLIGHT):
            self._suppress_duplicate()
            return
        # A pending row's lease expired but its worker finished anyway:
        # accept the result; the queue entry is skipped when popped.
        self._record_completion(task_id, node)

    def _record_completion(self, task_id: int, node: int) -> None:
        """Commit one completion: records, per-network counts, traces,
        and the job-done event.  Shared by the direct result path and
        the certifier's quorum commit."""
        row = self._tasks.row_of(task_id)
        if self._state[row] == _PENDING:
            self._n_pending -= 1
        self._state[row] = _DONE
        now = self.sim.now
        self._completed_at[row] = self._code(now)
        self._n_done += 1
        self._count(self.completed_by_network, node)
        self._completion_effects(row, task_id, node, self._n_done)
        if self._n_done == self.job.n and not self.done_event.triggered:
            if self._trace is not None:
                self._trace.emit(now, "job_done", job=self.job.job_id,
                                 tasks=self.job.n)
            if self.certifier is not None:
                self.certifier.observe_credibility()
            self.done_event.succeed(self.report())

    def _completion_effects(self, row: int, task_id: int, node: int,
                            done: int) -> None:
        """Side effects of the ``done``-th completion, by the node at
        row ``node``."""
        self._holders.pop(row, None)
        self._attempts.pop(task_id, None)
        if self._trace is not None:
            self._trace.emit(self.sim.now, "complete", task=task_id,
                             pna=self._id_of(node), done=done,
                             total=self.job.n)

    def _suppress_duplicate(self, count: int = 1) -> None:
        self.duplicates += count
        if self._m_duplicates is not None:
            self._m_duplicates.value += count

    def _pop_pending(self) -> Optional[int]:
        """Pop the next queued row (skipping tombstones), or ``None``."""
        state = self._state
        while True:
            if self._head < self._n:
                row = self._head
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
                                   payload_bits)
                return
        # node vanished between request and reply

    def _network_for(self, node: int) -> Optional[str]:
        """Network label of the shard whose router registered the node
        at row ``node``.  Ownership never moves, so a holder that left
        its router keeps its label."""
        for router, net in self._net_of_router.items():
            if router.owns(node):
                return net
        return None

    def _count(self, counter: Dict[str, int], node: int,
               amount: int = 1) -> None:
        """Add ``amount`` to ``counter`` under the node's network."""
        net = self._network_for(node)
        if net is not None:
            counter[net] += amount

    def _count_rows(self, counter: Dict[str, int], rows) -> None:
        """:meth:`_count` for every node at ``rows`` (an int array or a
        ``range``): one vector pass per network, not one per node."""
        for router, net in self._net_of_router.items():
            counter[net] += router.count_owned(rows)

    def _backoff_stream_for(self, node: int) -> str:
        """RNG stream for lease-backoff jitter: the per-backend stream
        on the unnamed network, one stream per named network so each
        network's re-dispatch schedule is independent of cross-network
        interleaving."""
        net = self._network_for(node)
        if not net:
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
                for row, tid, node in zip(
                        expired.tolist(),
                        self._tasks.take(expired).task_id.tolist(),
                        self._holder[expired].tolist()):
                    self._state[row] = _PENDING
                    self._requeued.append(row)
                    self._n_pending += 1
                    self.requeues += 1
                    self._count(self.requeues_by_network, node)
                    self._attempts[tid] = self._attempts.get(tid, 0) + 1
                    if trace is not None:
                        trace.emit(now, "requeue", task=tid,
                                   pna=self._id_of(node),
                                   attempt=self._attempts[tid])
                    if self._m_redispatched is not None:
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
            router.register_component(self.backend_id,
                                      self._receive_payload)
        if self.lease_factor is not None and not self.done:
            self._lease_proc = self.sim.process(self._lease_loop())
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "restore", backend=self.backend_id)
        if self._m_restarts is not None:
            self._m_restarts.value += 1

    def shutdown(self) -> None:
        """Unregister from the router and stop background processes."""
        for router in self.routers:
            if self.alive:
                router.unregister_component(self.backend_id)
            router.unregister_task_server(self.backend_id, self)
        if self._lease_proc is not None and self._lease_proc.alive:
            self._lease_proc.interrupt("backend shutdown")
