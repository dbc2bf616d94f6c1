"""Result certification: redundant dispatch, quorum voting, spot checks.

The :class:`ResultCertifier` sits inside a Backend (constructed when a
:class:`~repro.certify.policy.CertifyPolicy` is supplied) and takes
over the scheduling state transitions that an uncertified Backend does
alone:

* **Redundant dispatch** — a fresh task is recorded with a replication
  factor ``r`` (static or credibility-adaptive) and handed to ``r``
  *distinct* PNAs; a node never receives two copies of the same task.
* **Quorum voting** — results carry a digest; the task commits when a
  majority of the ``r`` digests agree, the winners earn credibility,
  disagreeing voters are punished.  If all ``r`` votes arrive without
  a quorum the round is rejected wholesale (nobody punished — we can't
  tell who lied) and the task re-dispatches at ``r_max`` through the
  existing attempt/backoff machinery.
* **Spot checks** — with probability ``probe_rate`` a task request is
  answered with a :class:`ProbeTask` (negative task id, known answer)
  instead of real work; a wrong probe digest is unambiguous evidence.
* **Quarantine** — ``quarantine_after`` bad outcomes blacklist a node:
  its polls get a terminal ``NoWork`` (via
  :class:`~repro.errors.QuarantinedNodeError`), its outstanding copies
  re-queue, and the Controller — when wired through
  :attr:`ResultCertifier.on_quarantine` — evicts it from the census.

A node is its row in the Backend's interner, as in the Backend: a wire
id is named only for a trace, a :class:`QuarantinedNodeError` and the
``on_quarantine`` hook.

Leases ride the Backend's machinery per *copy*: each holder gets its
own lease from :meth:`Backend._lease_seconds` (same backoff + jitter
streams), and :meth:`expire_leases` replaces the Backend's in-flight
scan.  Lease expiry decays credibility mildly but never quarantines —
honest churn expires leases all the time.

Ground-truth audit: in this simulation an honest digest is ``None`` and
fabricated ones are negative ints, so the certifier can *score* itself
— ``escaped_errors`` counts commits whose winning digest was wrong.
The audit is bookkeeping only; no scheduling decision reads it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, TYPE_CHECKING

from repro.errors import QuarantinedNodeError
from repro.certify.ledger import CredibilityLedger
from repro.certify.policy import CertifyPolicy
from repro.telemetry.trace import channel as _telemetry_channel
from repro.telemetry.trace import metrics_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.backend import Backend

__all__ = ["ResultCertifier", "ProbeTask", "PROBE_PAYLOAD_BITS"]

#: Wire size of a probe's input/result payloads — control-message sized,
#: a probe must stay cheap next to real task staging.
PROBE_PAYLOAD_BITS = 64 * 8


@dataclass(frozen=True, slots=True)
class ProbeTask:
    """A spot-check task with a known answer.

    Duck-types :class:`~repro.workloads.job.Task` for the dispatch and
    DVE paths (same four fields) but lives outside the Job's task-id
    space: probe ids are *negative*, so a probe result can never enter
    the completion records and :class:`~repro.workloads.job.Task`'s
    ``task_id >= 0`` invariant stays intact.
    """

    task_id: int
    ref_seconds: float
    input_bits: float = PROBE_PAYLOAD_BITS
    result_bits: float = PROBE_PAYLOAD_BITS

    def __post_init__(self) -> None:
        if self.task_id >= 0:
            raise ValueError("probe ids are negative by construction")


class _TaskRecord:
    """Voting state for one task: copies out, votes in."""

    __slots__ = ("task", "r", "remaining", "votes", "holders")

    def __init__(self, task, r: int) -> None:
        self.task = task
        self.r = r
        #: copies still to hand out this round
        self.remaining = r - 1
        #: node row -> digest, in arrival order
        self.votes: Dict[int, Optional[int]] = {}
        #: node row -> (assigned_at, lease_deadline) for computing copies
        self.holders: Dict[int, tuple] = {}


#: Sentinel distinct from every digest (including ``None``).
_NO_WINNER = object()


class ResultCertifier:
    """Certification engine for one Backend (see module doc)."""

    def __init__(self, backend: "Backend", policy: CertifyPolicy) -> None:
        self.backend = backend
        self.policy = policy
        self.sim = backend.sim
        self.ledger = CredibilityLedger(
            initial=policy.initial_credibility, penalty=policy.penalty)
        self._records: Dict[int, _TaskRecord] = {}
        self._copy_queue: Deque[int] = deque()
        self._quarantined: set = set()
        self._probe_seq = 0
        self._id_of = backend._id_of
        self._rng_stream = f"certify:{backend.backend_id}"
        #: hook to the Controller's census eviction; wired by the
        #: Provider as ``controller.quarantine_node`` when both halves
        #: are present.  Called as ``on_quarantine(pna_id, reason)``.
        self.on_quarantine: Optional[Callable[[str, str], None]] = None
        # plain-attribute mirrors of the certify.* metrics so scenarios
        # can read them without a telemetry registry
        self.copies_issued = 0
        self.tasks_certified = 0
        self.escaped_errors = 0
        self.votes_rejected = 0
        self.probes_issued = 0
        self.probes_failed = 0
        self.quarantines = 0
        self._trace = _telemetry_channel("certify")
        # Metrics gate on the ambient registry, not on the channel (see
        # repro.telemetry.trace.metrics_registry).
        registry = metrics_registry()
        if registry is None:
            self._m_copies = self._m_certified = self._m_escaped = None
            self._m_rejected = self._m_probes = self._m_probes_failed = None
            self._m_quarantines = self._h_cred = None
        else:
            self._m_copies = registry.counter("certify.copies_issued")
            self._m_certified = registry.counter("certify.tasks_certified")
            self._m_escaped = registry.counter("certify.escaped_errors")
            self._m_rejected = registry.counter("certify.votes_rejected")
            self._m_probes = registry.counter("certify.probes_issued")
            self._m_probes_failed = registry.counter("certify.probes_failed")
            self._m_quarantines = registry.counter("certify.quarantines")
            self._h_cred = registry.histogram(
                "certify.credibility",
                buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0))

    # -- inspection ----------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Tasks dispatched but not yet certified."""
        return len(self._records)

    def redundancy_overhead(self) -> float:
        """Copies issued per task in the job (1.0 = no redundancy)."""
        n = self.backend.job.n
        return self.copies_issued / n if n else 0.0

    def observe_credibility(self) -> None:
        """Record every known node's credibility into the
        ``certify.credibility`` histogram (end-of-job snapshot, taken by
        the Backend as its ``done_event`` settles; a no-op untraced)."""
        if self._h_cred is None:
            return
        for node in self.ledger.known_nodes():
            self._h_cred.observe(self.ledger.credibility(node))

    # -- dispatch ------------------------------------------------------
    def serve(self, node: int, instance_id: str):
        """Serve one task request from the node at row ``node`` under
        certification.

        Returns a :class:`Task`, :class:`ProbeTask` or ``NoWork``;
        raises :class:`QuarantinedNodeError` for blacklisted nodes (the
        Backend converts it to a terminal ``NoWork``).
        """
        backend = self.backend
        if node in self._quarantined:
            pna_id = self._id_of(node)
            trace = self._trace
            if trace is not None:
                trace.emit(self.sim.now, "quarantined_poll", pna=pna_id)
            raise QuarantinedNodeError(
                f"{pna_id} is quarantined", pna_id=pna_id,
                evidence=self.ledger.bad_count(node))
        pol = self.policy
        if pol.probe_rate > 0.0 and not backend.done and float(
                self.sim.rng(self._rng_stream).random()) < pol.probe_rate:
            return self._make_probe(node)
        task, is_copy = self._pop_copy_for(node), True
        if task is None:
            is_copy = False
            task = backend._next_task()
            if task is not None:
                r = pol.replication_for(self.ledger.credibility(node))
                rec = _TaskRecord(task, r)
                self._records[task.task_id] = rec
                if rec.remaining > 0:
                    self._copy_queue.append(task.task_id)
        if task is None:
            retry = None if backend.done else backend.poll_interval_s
            return backend._nowork_reply(instance_id, retry)
        now = self.sim.now
        lease_s = backend._lease_seconds(task, node)
        rec = self._records[task.task_id]
        rec.holders[node] = \
            (now, None if lease_s is None else now + lease_s)
        self.copies_issued += 1
        if self._m_copies is not None:
            self._m_copies.value += 1
        if is_copy:
            backend.replicas_issued += 1
        else:
            backend.tasks_assigned += 1
            backend._count(backend.assigned_by_network, node)
        trace = self._trace
        if trace is not None:
            trace.emit(now, "dispatch", task=task.task_id,
                       pna=self._id_of(node), replica=is_copy, r=rec.r)
        return task

    def _pop_copy_for(self, node: int):
        """Next task needing another copy that node ``node`` may hold.

        Distinct-PNA pinning: a node that already holds or has voted on
        a task is skipped (entries are pushed back preserving order).
        Stale entries (record gone, round satisfied) are discarded.
        """
        q = self._copy_queue
        records = self._records
        skipped = []
        found = None
        while q:
            tid = q.popleft()
            rec = records.get(tid)
            if rec is None or rec.remaining <= 0:
                continue
            if node in rec.holders or node in rec.votes:
                skipped.append(tid)
                continue
            rec.remaining -= 1
            if rec.remaining > 0:
                skipped.append(tid)
            found = rec.task
            break
        for tid in reversed(skipped):
            q.appendleft(tid)
        return found

    def _make_probe(self, node: int) -> ProbeTask:
        self._probe_seq -= 1
        self.probes_issued += 1
        if self._m_probes is not None:
            self._m_probes.value += 1
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "probe", probe=self._probe_seq,
                       pna=self._id_of(node))
        return ProbeTask(task_id=self._probe_seq,
                         ref_seconds=self.policy.probe_ref_seconds)

    # -- results -------------------------------------------------------
    def on_result(self, node: int, task_id: int,
                  digest: Optional[int]) -> None:
        """Accept one result from the node at row ``node`` under
        certification (real task or probe)."""
        if task_id < 0:
            self._on_probe_result(node, task_id, digest)
            return
        backend = self.backend
        rec = self._records.get(task_id)
        if rec is None or node in rec.votes or node in self._quarantined:
            # already certified / double vote / blacklisted sender
            backend._suppress_duplicate()
            return
        rec.votes[node] = digest
        rec.holders.pop(node, None)
        quorum = self.policy.quorum(rec.r)
        counts: Dict[Optional[int], int] = {}
        winning = _NO_WINNER
        for d in rec.votes.values():
            n = counts.get(d, 0) + 1
            counts[d] = n
            if n >= quorum:
                winning = d
                break
        if winning is not _NO_WINNER:
            self._commit(task_id, rec, winning)
        elif len(rec.votes) >= rec.r:
            self._reject_round(task_id, rec)

    def _on_probe_result(self, node: int, probe_id: int,
                         digest: Optional[int]) -> None:
        if node in self._quarantined:
            return
        if digest is None:
            # known answer matched
            self.ledger.record_good(node)
            return
        self.probes_failed += 1
        if self._m_probes_failed is not None:
            self._m_probes_failed.value += 1
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "probe_failed", probe=probe_id,
                       pna=self._id_of(node))
        self._punish(node, probe_id, "probe")

    def _commit(self, task_id: int, rec: _TaskRecord,
                winning: Optional[int]) -> None:
        """Quorum reached: certify the task, settle credibility."""
        winner = None
        for voter, d in rec.votes.items():
            if d == winning:
                if winner is None:
                    winner = voter
                self.ledger.record_good(voter)
            else:
                self._punish(voter, task_id, "vote")
        del self._records[task_id]
        self.tasks_certified += 1
        if self._m_certified is not None:
            self._m_certified.value += 1
        if winning is not None:
            # a fabricated digest reached quorum (colluding saboteurs):
            # the ground-truth audit scores the escape, the commit
            # itself proceeds — the certifier was fooled.
            self.escaped_errors += 1
            if self._m_escaped is not None:
                self._m_escaped.value += 1
            trace = self._trace
            if trace is not None:
                trace.emit(self.sim.now, "escape", task=task_id,
                           pna=self._id_of(winner))
        self.backend._record_completion(task_id, winner)

    def _reject_round(self, task_id: int, rec: _TaskRecord) -> None:
        """All votes in, no quorum: reject everything, re-dispatch.

        Nobody is punished — without a majority there is no evidence of
        *who* lied — but every voter's work is discarded and the task
        re-enters the queue at ``r_max`` with an attempt bump so the
        backoff machinery stretches the next round's leases.
        """
        backend = self.backend
        n = len(rec.votes)
        self.votes_rejected += n
        if self._m_rejected is not None:
            self._m_rejected.value += n
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "no_quorum", task=task_id,
                       votes=n, r=rec.r)
        rec.votes.clear()
        rec.holders.clear()
        pol = self.policy
        rec.r = pol.r if pol.mode == "static" else pol.r_max
        rec.remaining = rec.r
        backend._attempts[task_id] = backend._attempts.get(task_id, 0) + 1
        backend.requeues += 1
        self._copy_queue.append(task_id)

    # -- credibility / quarantine --------------------------------------
    def _punish(self, node: int, task_id: int, evidence: str) -> None:
        bad = self.ledger.record_bad(node)
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "punish", pna=self._id_of(node),
                       task=task_id, evidence=evidence, bad=bad)
        after = self.policy.quarantine_after
        if after and bad >= after:
            self.quarantine(node, f"{bad} bad outcomes (last: {evidence})")

    def quarantine(self, node: int, reason: str) -> None:
        """Blacklist the node at row ``node``: refuse its polls,
        re-queue its copies, and notify the Controller through
        :attr:`on_quarantine`."""
        if node in self._quarantined:
            return
        self._quarantined.add(node)
        self.quarantines += 1
        if self._m_quarantines is not None:
            self._m_quarantines.value += 1
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "quarantine", pna=self._id_of(node),
                       reason=reason)
        for tid, rec in self._records.items():
            if node in rec.holders:
                del rec.holders[node]
                rec.remaining += 1
                self._copy_queue.append(tid)
        if self.on_quarantine is not None:
            self.on_quarantine(self._id_of(node), reason)

    # -- leases --------------------------------------------------------
    def expire_leases(self, now: float) -> None:
        """Re-queue copies whose lease expired (replaces the Backend's
        in-flight scan).  Expiry decays credibility mildly but never
        counts toward quarantine — honest churn expires leases too."""
        backend = self.backend
        trace = backend._trace
        for tid, rec in self._records.items():
            expired = [p for p, (_, lease) in rec.holders.items()
                       if lease is not None and lease < now]
            for node in expired:
                del rec.holders[node]
                self.ledger.record_timeout(node)
                rec.remaining += 1
                self._copy_queue.append(tid)
                backend.requeues += 1
                backend._attempts[tid] = backend._attempts.get(tid, 0) + 1
                if trace is not None:
                    trace.emit(now, "requeue", task=tid, pna=self._id_of(node),
                               attempt=backend._attempts[tid])
                if backend._m_redispatched is not None:
                    backend._m_redispatched.value += 1
