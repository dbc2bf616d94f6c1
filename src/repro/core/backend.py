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


#: In-flight record: ``(task, pna_id, assigned_at, lease_deadline)``.
#: A bare tuple, not a class — the dispatch tier allocates one per
#: assignment (millions at 10^6-node scale) and tuples are several
#: times cheaper to build than slotted instances.
_T_TASK, _T_PNA, _T_AT, _T_LEASE = range(4)


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
        # Dispatch order: FIFO (submission order), LPT (longest
        # processing time first — the classic makespan heuristic) or SPT
        # (shortest first — fastest first results).
        tasks = list(job.tasks)
        if scheduling == "lpt":
            tasks.sort(key=lambda t: -t.ref_seconds)
        elif scheduling == "spt":
            tasks.sort(key=lambda t: t.ref_seconds)
        self._pending: Deque[Task] = deque(tasks)
        self._in_flight: Dict[int, tuple] = {}
        self._completed: Dict[int, float] = {}
        self._workers: set[str] = set()
        #: task_id -> set of workers holding a copy (primary + replicas)
        self._holders: Dict[int, set] = {}
        #: replica-candidate index: a min-heap of
        #: ``(assigned_at, assign_seq, task_id)`` pushed per primary
        #: assignment (replication mode only).  Entries are validated
        #: lazily on pop — completed/requeued assignments are stale
        #: (``assigned_at`` no longer matches), fully-replicated tasks
        #: are discarded for good — so candidate search is amortised
        #: O(log n) instead of a full in-flight scan per idle poll.
        self._replica_queue: List[tuple] = []
        self._assign_seq = 0
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
        return len(self._completed)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    @property
    def done(self) -> bool:
        return len(self._completed) == self.job.n

    def report(self) -> JobReport:
        if not self.done:
            raise BackendError(
                f"job {self.job.job_id} incomplete "
                f"({self.completed_count}/{self.job.n})")
        return JobReport(
            job_id=self.job.job_id,
            n_tasks=self.job.n,
            submitted_at=self.submitted_at,
            completed_at=max(self._completed.values()),
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
        task = self._next_task()
        is_replica = False
        if task is None and self.replicate_tail and not self.done:
            task = self._pick_replica_candidate(pna_id)
            is_replica = task is not None
        if task is None:
            # Bag empty: if the job is done the worker can stop; otherwise
            # tasks are in flight and might be re-queued — poll again.
            retry = None if self.done else self.poll_interval_s
            return self._nowork_reply(instance_id, retry)
        if not is_replica:
            now = self.sim.now
            lease_s = self._lease_seconds(task, pna_id)
            lease = None if lease_s is None else now + lease_s
            self._in_flight[task.task_id] = (task, pna_id, now, lease)
            self.tasks_assigned += 1
            if self.assigned_by_network is not None:
                net = self._network_for(pna_id)
                if net is not None:
                    self.assigned_by_network[net] += 1
            if self.replicate_tail:
                self._assign_seq += 1
                heappush(self._replica_queue,
                         (now, self._assign_seq, task.task_id))
        else:
            self.replicas_issued += 1
        if self.replicate_tail:
            # Copy-holder tracking only matters for replica placement;
            # skip the per-task set when replication is off.
            self._holders.setdefault(task.task_id, set()).add(pna_id)
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "dispatch", task=task.task_id,
                       pna=pna_id, replica=is_replica)
        return task

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
                               instance_id: str) -> list:
        """Serve a same-instant batch of task requests in one pass.

        Equivalent to calling the scalar handler once per requester *in
        order* — same bag pops, lease values, accounting and traces —
        with the plain-FIFO case vectorised: when the bag covers the
        whole cohort and neither tail replication nor lease backoff can
        alter an individual assignment, the leases come out of one
        numpy expression (bit-identical op order to the scalar path).
        Returns one reply per requester: a :class:`Task` or a shared
        :class:`NoWork`.  The caller owns delivery.
        """
        pending = self._pending
        k = len(requesters)
        if (len(pending) >= k and not self.replicate_tail
                and self.certifier is None
                and (not self._attempts
                     or (self.lease_backoff_base == 1.0
                         and self.lease_backoff_jitter == 0.0))):
            now = self.sim.now
            tasks = [pending.popleft() for _ in range(k)]
            lease_factor = self.lease_factor
            if lease_factor is None:
                leases: Sequence[Optional[float]] = (None,) * k
            elif k >= 32:
                refs = _np.fromiter((t.ref_seconds for t in tasks),
                                    _np.float64, k)
                leases = (now + lease_factor *
                          (refs * self.worst_case_slowdown
                           + self.poll_interval_s)).tolist()
            else:
                wcs = self.worst_case_slowdown
                poll = self.poll_interval_s
                leases = [now + lease_factor * (t.ref_seconds * wcs + poll)
                          for t in tasks]
            workers_add = self._workers.add
            in_flight = self._in_flight
            for pna_id, task, lease in zip(requesters, tasks, leases):
                workers_add(pna_id)
                in_flight[task.task_id] = (task, pna_id, now, lease)
            self.tasks_assigned += k
            if self.assigned_by_network is not None and k:
                # A cohort is a property of one shard's fabric, so every
                # requester in it lives on the same network; prime the
                # whole cohort's label cache (requeue labelling reads it
                # after the holder may have left the router).
                net = self._network_for(requesters[0])
                if net is not None:
                    self.assigned_by_network[net] += k
                    cache = self._net_of_pna
                    for pna_id in requesters:
                        cache[pna_id] = net
            trace = self._trace
            if trace is not None:
                for i in range(k):
                    trace.emit(now, "dispatch", task=tasks[i].task_id,
                               pna=requesters[i], replica=False)
            return tasks
        return [self._serve_request(pna_id, instance_id)
                for pna_id in requesters]

    def receive_result_cohort(self, pna_ids: Sequence[str],
                              task_ids: Sequence[int]) -> Optional[int]:
        """Accept a same-instant batch of results in one pass.

        Equivalent to calling :meth:`receive_result` once per
        ``(pna_id, task_id)`` *in order* — same records, accounting and
        traces — except that it stops right after the result that
        settles :attr:`done_event` and returns that result's index
        (``None`` when none did): the caller defers the rest so the
        urgent completion callbacks run first, as they do between
        per-message deliveries.  First copies of in-flight tasks commit
        inline; duplicates and lease-expired stragglers take the scalar
        handler.  Uncertified backends only: the certifier votes per
        copy and needs each copy's digest.
        """
        if self.certifier is not None:
            raise BackendError(
                "certified results go through receive_result one by one")
        completed = self._completed
        in_flight_pop = self._in_flight.pop
        holders_pop = self._holders.pop
        attempts_pop = self._attempts.pop
        net_counts = self.completed_by_network
        trace = self._trace
        job_n = self.job.n
        done_event = self.done_event
        now = self.sim.now
        # Settling is monotonic and only this loop can flip it here:
        # when the event was already settled at entry no iteration can
        # observe a flip.
        was_settled = done_event._settled
        for k, (pna_id, task_id) in enumerate(zip(pna_ids, task_ids)):
            if task_id not in completed \
                    and in_flight_pop(task_id, None) is not None:
                # _record_completion, inlined (the 10^6-node hot loop)
                completed[task_id] = now
                if net_counts is not None:
                    net = self._network_for(pna_id)
                    if net is not None:
                        net_counts[net] += 1
                holders_pop(task_id, None)
                attempts_pop(task_id, None)
                if trace is not None:
                    trace.emit(now, "complete", task=task_id, pna=pna_id,
                               done=len(completed), total=job_n)
                if len(completed) == job_n and not done_event.triggered:
                    if trace is not None:
                        trace.emit(now, "job_done", job=self.job.job_id,
                                   tasks=job_n)
                    done_event.succeed(self.report())
            else:
                self.receive_result(pna_id, task_id)
            if not was_settled and done_event._settled:
                return k
        return None

    def _pick_replica_candidate(self, requester: str) -> Optional[Task]:
        """Straggler mitigation: replicate the oldest in-flight task whose
        copy count is below ``max_replicas`` and which the requester is
        not already computing.

        Served from :attr:`_replica_queue`; entries the requester
        already holds are set aside and pushed back so they stay
        available to other requesters."""
        heap = self._replica_queue
        in_flight = self._in_flight
        holders_map = self._holders
        max_replicas = self.max_replicas
        skipped = []
        found: Optional[Task] = None
        while heap:
            assigned_at, _seq, task_id = heap[0]
            assignment = in_flight.get(task_id)
            if assignment is None or assignment[_T_AT] != assigned_at:
                heappop(heap)  # completed or requeued: stale entry
                continue
            holders = holders_map.get(task_id)
            if holders is not None and len(holders) >= max_replicas:
                heappop(heap)  # fully replicated: never a candidate again
                continue
            if holders is not None and requester in holders:
                skipped.append(heappop(heap))
                continue
            found = assignment[_T_TASK]
            break
        for entry in skipped:
            heappush(heap, entry)
        return found

    def _pick_replica_candidate_scan(self, requester: str) -> Optional[Task]:
        """Reference implementation of :meth:`_pick_replica_candidate`
        (full in-flight scan) — kept as the parity oracle."""
        best: Optional[tuple] = None
        for task_id, assignment in self._in_flight.items():
            holders = self._holders.get(task_id, set())
            if requester in holders or len(holders) >= self.max_replicas:
                continue
            if best is None or assignment[_T_AT] < best[_T_AT]:
                best = assignment
        return best[_T_TASK] if best is not None else None

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
        if task_id in self._completed:
            self._suppress_duplicate()
            return
        assignment = self._in_flight.pop(task_id, None)
        if assignment is None:
            # lease expired and the task was re-queued but the original
            # worker finished anyway: accept the result, cancel the requeue
            for i, t in enumerate(self._pending):
                if t.task_id == task_id:
                    del self._pending[i]
                    break
            else:
                self._suppress_duplicate()
                return
        self._record_completion(task_id, pna_id)

    def _record_completion(self, task_id: int, pna_id: str) -> None:
        """Commit one completion: records, per-network counts, traces,
        and the job-done event.  Shared by the direct result path and
        the certifier's quorum commit."""
        self._completed[task_id] = self.sim.now
        if self.completed_by_network is not None:
            net = self._network_for(pna_id)
            if net is not None:
                self.completed_by_network[net] += 1
        self._holders.pop(task_id, None)
        self._attempts.pop(task_id, None)
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "complete", task=task_id,
                       pna=pna_id, done=len(self._completed),
                       total=self.job.n)
        if len(self._completed) == self.job.n \
                and not self.done_event.triggered:
            if trace is not None:
                trace.emit(self.sim.now, "job_done", job=self.job.job_id,
                           tasks=self.job.n)
            self.done_event.succeed(self.report())

    def _suppress_duplicate(self) -> None:
        self.duplicates += 1
        if self._m_duplicates is not None:
            self._m_duplicates.value += 1

    def _next_task(self) -> Optional[Task]:
        if self._pending:
            return self._pending.popleft()
        return None

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
                expired = [tid for tid, a in self._in_flight.items()
                           if a[_T_LEASE] is not None
                           and a[_T_LEASE] < now]
                trace = self._trace
                for tid in expired:
                    assignment = self._in_flight.pop(tid)
                    self._pending.append(assignment[_T_TASK])
                    self.requeues += 1
                    if self.requeues_by_network is not None:
                        # Cached label: the holder may already be gone
                        # from its router (that is why the lease died).
                        net = self._net_of_pna.get(assignment[_T_PNA])
                        if net is not None:
                            self.requeues_by_network[net] += 1
                    self._attempts[tid] = self._attempts.get(tid, 0) + 1
                    if trace is not None:
                        trace.emit(now, "requeue", task=tid,
                                   pna=assignment[_T_PNA],
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
                       in_flight=len(self._in_flight),
                       pending=len(self._pending))
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
