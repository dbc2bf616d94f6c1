"""Columnar Backend ≡ the dict/tuple bookkeeping it replaced.

:class:`repro.core.backend.Backend` keeps its bag as per-row columns
(dispatch order ring + requeue tail, lease columns, completion times).
``_DictBackend`` below is the earlier implementation of the same
bookkeeping — a deque of :class:`Task` objects, an in-flight dict of
``(task, pna_id, assigned_at, lease)`` tuples and a completion dict —
kept here verbatim as the differential oracle.  Both are driven through
the same operation sequences; replies, leases, completions, counters,
the pending order, ``report()`` and the backend trace must agree
exactly.
"""

from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Sequence, Union

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import _PENDING, Backend
from repro.core.messages import NoWork
from repro.core.network import Router
from repro.errors import BackendError
from repro.sim.core import Simulator
from repro.sim.process import Interrupt
from repro.telemetry.trace import Tracer, active
from repro.workloads.job import Job, Task, TaskTable

_T_TASK, _T_PNA, _T_AT, _T_LEASE = range(4)


class _DictBackend(Backend):
    """The dict/tuple Backend bookkeeping (oracle)."""

    _completed = None  # plain instance dicts here, not column views
    _in_flight = None

    def __init__(self, sim, job, router, **kw):
        super().__init__(sim, job, router, **kw)
        scheduling = kw.get("scheduling", "fifo")
        tasks = list(job.tasks)
        if scheduling == "lpt":
            tasks.sort(key=lambda t: -t.ref_seconds)
        elif scheduling == "spt":
            tasks.sort(key=lambda t: t.ref_seconds)
        self._pending: Deque[Task] = deque(tasks)
        self._in_flight: Dict[int, tuple] = {}
        self._completed: Dict[int, float] = {}
        self._holders: Dict[int, set] = {}
        self._replica_queue: List[tuple] = []
        self._assign_seq = 0

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

    def report(self):
        from repro.core.backend import JobReport
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

    def _serve_request(self, pna_id: str,
                       instance_id: str) -> Union[Task, NoWork]:
        self._workers.add(pna_id)
        task = self._next_task()
        is_replica = False
        if task is None and self.replicate_tail and not self.done:
            task = self._pick_replica_candidate(pna_id)
            is_replica = task is not None
        if task is None:
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
            self._holders.setdefault(task.task_id, set()).add(pna_id)
        trace = self._trace
        if trace is not None:
            trace.emit(self.sim.now, "dispatch", task=task.task_id,
                       pna=pna_id, replica=is_replica)
        return task

    def receive_request_cohort(self, requesters: Sequence[str],
                               instance_id: str) -> list:
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
                refs = np.fromiter((t.ref_seconds for t in tasks),
                                   np.float64, k)
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
        completed = self._completed
        in_flight_pop = self._in_flight.pop
        holders_pop = self._holders.pop
        attempts_pop = self._attempts.pop
        net_counts = self.completed_by_network
        trace = self._trace
        job_n = self.job.n
        done_event = self.done_event
        now = self.sim.now
        was_settled = done_event._settled
        for k, (pna_id, task_id) in enumerate(zip(pna_ids, task_ids)):
            if task_id not in completed \
                    and in_flight_pop(task_id, None) is not None:
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
                heappop(heap)
                continue
            holders = holders_map.get(task_id)
            if holders is not None and len(holders) >= max_replicas:
                heappop(heap)
                continue
            if holders is not None and requester in holders:
                skipped.append(heappop(heap))
                continue
            found = assignment[_T_TASK]
            break
        for entry in skipped:
            heappush(heap, entry)
        return found

    def receive_result(self, pna_id: str, task_id: int,
                       digest: Optional[int] = None) -> None:
        if task_id in self._completed:
            self._suppress_duplicate()
            return
        assignment = self._in_flight.pop(task_id, None)
        if assignment is None:
            for i, t in enumerate(self._pending):
                if t.task_id == task_id:
                    del self._pending[i]
                    break
            else:
                self._suppress_duplicate()
                return
        self._record_completion(task_id, pna_id)

    def _record_completion(self, task_id: int, pna_id: str) -> None:
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

    def _next_task(self) -> Optional[Task]:
        if self._pending:
            return self._pending.popleft()
        return None

    def _lease_loop(self):
        try:
            while not self.done:
                yield self.lease_check_interval_s
                now = self.sim.now
                expired = [tid for tid, a in self._in_flight.items()
                           if a[_T_LEASE] is not None
                           and a[_T_LEASE] < now]
                trace = self._trace
                for tid in expired:
                    assignment = self._in_flight.pop(tid)
                    self._pending.append(assignment[_T_TASK])
                    self.requeues += 1
                    if self.requeues_by_network is not None:
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

    def crash(self) -> None:
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


# -- harness ------------------------------------------------------------------

def _pending_ids(backend) -> list:
    """The pending queue's task ids in dispatch order."""
    if isinstance(backend, _DictBackend):
        return [t.task_id for t in backend._pending]
    rows = list(backend._ring[backend._head:]) + list(backend._requeued)
    return [int(backend._tasks.task_id[r]) for r in rows
            if backend._state[r] == _PENDING]


def _snapshot(backend) -> dict:
    return {
        "completed": dict(backend._completed),
        "in_flight": dict(backend._in_flight),
        "pending": _pending_ids(backend),
        "counts": (backend.pending_count, backend.in_flight_count,
                   backend.completed_count, backend.done),
        "accounting": (backend.tasks_assigned, backend.duplicates,
                       backend.requeues, backend.replicas_issued),
        "attempts": dict(backend._attempts),
        "workers": sorted(backend._workers),
        "networks": (backend.assigned_by_network,
                     backend.completed_by_network,
                     backend.requeues_by_network),
        "report": backend.report() if backend.done else None,
        "done_value": backend.done_event.value
        if backend.done_event.triggered else None,
    }


def _reply_key(reply):
    if type(reply) is NoWork:
        return ("nowork", reply.instance_id, reply.retry_after_s)
    return ("task", reply.task_id, reply.input_bits, reply.ref_seconds,
            reply.result_bits)


class _Pair:
    """One backend implementation in its own simulator and tracer."""

    def __init__(self, cls, cfg):
        self.sim = Simulator(seed=cfg["seed"])
        self.tracer = Tracer("backend")
        refs = cfg["refs"]
        job = Job(image_bits=1e6, job_id=1, tasks=TaskTable(
            range(len(refs)), 4096.0, refs, 2048.0))
        networks = cfg["networks"]
        routers = [Router(self.sim) for _ in networks] if networks \
            else Router(self.sim)
        with active(self.tracer):
            self.backend = cls(
                self.sim, job, routers, networks=networks,
                lease_factor=cfg["lease_factor"],
                lease_check_interval_s=cfg["check_s"],
                lease_backoff_base=cfg["backoff"],
                lease_backoff_jitter=cfg["jitter"],
                replicate_tail=cfg["replicate"],
                scheduling=cfg["scheduling"])
        if networks:
            # node -> shard labels, as the routers would resolve them
            for net in networks:
                for i in range(_WORKERS):
                    self.backend._net_of_pna[f"{net}-{i}"] = net

    def apply(self, op, held, ever):
        """Run ``op``; returns what it observably returned."""
        b = self.backend
        kind = op[0]
        if kind == "advance":
            self.sim.run(until=self.sim.now + op[1])
            return None
        if kind == "crash":
            b.crash()
            return None
        if kind == "restore":
            b.restore()
            return None
        if not b.alive:
            return None
        if kind == "scalar":
            return [_reply_key(b._serve_request(op[1], "i-1"))]
        if kind == "cohort":
            replies = b.receive_request_cohort(list(op[1]), "i-1")
            assert len(replies) == len(op[1])
            return [_reply_key(r) for r in replies]
        pairs = _result_pairs(op, held, ever, b.job.n)
        if kind == "result":
            for pna, tid in pairs:
                b.receive_result(pna, tid)
            return None
        # a result cohort, replayed the way the task engine does: the
        # rest of the batch after the settling result goes in again
        stops = []
        while pairs:
            pnas = [p for p, _ in pairs]
            ids = [t for _, t in pairs]
            stop = b.receive_result_cohort(
                pnas, ids if isinstance(b, _DictBackend)
                else np.array(ids, np.int64))
            stops.append(stop)
            pairs = [] if stop is None else pairs[stop + 1:]
        return stops


#: workers per network (or in the single network)
_WORKERS = 40


def _result_pairs(op, held, ever, n):
    """``(pna, task_id)`` results an op sends: assignments taken off
    ``held`` (first copies, or stragglers once their lease lapsed),
    repeats of ``ever`` (duplicates) and ids never or not yet handed
    out."""
    pairs = []
    for source, index in op[1]:
        if source == "held" and held:
            pairs.append(held.pop(index % len(held)))
        elif source == "dup" and ever:
            pairs.append(ever[index % len(ever)])
        elif source == "bogus":
            pairs.append(("w-x", index % (n + 3)))
    return pairs


def _track(replies, requesters, held, ever):
    for pna, reply in zip(requesters, replies or ()):
        if reply[0] == "task":
            held.append((pna, reply[1]))
            ever.append((pna, reply[1]))


@st.composite
def _scenario(draw):
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, 150)))
    refs = draw(st.lists(st.sampled_from((1.0, 2.5, 4.0, 9.0)),
                         min_size=n, max_size=n))
    cfg = {
        "seed": draw(st.integers(0, 3)),
        "refs": refs,
        "networks": draw(st.sampled_from((None, ("a", "b")))),
        "lease_factor": draw(st.sampled_from((None, 0.005, 0.02, 0.1))),
        "check_s": draw(st.sampled_from((0.5, 2.0))),
        "backoff": draw(st.sampled_from((1.0, 2.0))),
        "jitter": draw(st.sampled_from((0.0, 0.25))),
        "replicate": draw(st.booleans()),
        "scheduling": draw(st.sampled_from(("fifo", "lpt", "spt"))),
    }
    nets = cfg["networks"] or ("w",)
    worker = st.builds(lambda net, i: f"{net}-{i}", st.sampled_from(nets),
                       st.integers(0, _WORKERS - 1))

    @st.composite
    def cohort(draw):
        net = draw(st.sampled_from(nets))
        k = draw(st.sampled_from((1, 5, 31, 32, 33, 64, 80)))
        return ("cohort", tuple(
            f"{net}-{draw(st.integers(0, _WORKERS - 1))}"
            for _ in range(k)))

    results = st.lists(st.tuples(
        st.sampled_from(("held", "held", "held", "dup", "bogus")),
        st.integers(0, 10_000)), min_size=1, max_size=70)
    op = st.one_of(
        cohort(),
        st.tuples(st.just("scalar"), worker),
        st.tuples(st.just("result"), results),
        st.tuples(st.just("results"), results),
        st.tuples(st.just("advance"), st.sampled_from((0.3, 1.0, 5.0,
                                                       40.0))),
        st.tuples(st.just("crash")),
        st.tuples(st.just("restore")),
    )
    return cfg, draw(st.lists(op, min_size=1, max_size=30))


def _run_differential(cfg, ops):
    new, old = _Pair(Backend, cfg), _Pair(_DictBackend, cfg)
    held_new, ever_new, held_old, ever_old = [], [], [], []
    for step, op in enumerate(ops):
        got = new.apply(op, held_new, ever_new)
        want = old.apply(op, held_old, ever_old)
        assert got == want, f"step {step} {op[0]}"
        if op[0] in ("scalar", "cohort"):
            requesters = [op[1]] if op[0] == "scalar" else op[1]
            _track(got, requesters, held_new, ever_new)
            _track(want, requesters, held_old, ever_old)
        assert _snapshot(new.backend) == _snapshot(old.backend), \
            f"step {step} {op[0]}"
    new.sim.run(until=new.sim.now + 100.0)
    old.sim.run(until=old.sim.now + 100.0)
    assert _snapshot(new.backend) == _snapshot(old.backend)
    assert new.tracer.events() == old.tracer.events()
    return new.backend


@settings(max_examples=250, deadline=None)
@given(_scenario())
def test_columnar_backend_matches_dict_bookkeeping(scenario):
    """Replies, leases, completions, counters, pending order,
    ``report()`` and traces of the columnar Backend equal the dict/tuple
    bookkeeping's under cohorts above and below 32, scalar requests,
    first-copy, duplicate, straggler and unknown results, lease expiry
    with backoff and jitter, crash/restore, LPT/SPT, tail replication
    and federated per-network counts."""
    cfg, ops = scenario
    _run_differential(cfg, ops)


def test_differential_reaches_every_path():
    """A fixed scenario through the differential that takes the
    columnar cohort, the NoWork cohort, a straggler and a tombstone
    skip — so the property above is known to cover them."""
    n = 80
    cfg = {"seed": 0, "refs": [1.0] * n, "networks": ("a", "b"),
           "lease_factor": 0.01, "check_s": 0.5, "backoff": 1.0,
           "jitter": 0.0, "replicate": False, "scheduling": "fifo"}
    cohort = ("cohort", tuple(f"a-{i % _WORKERS}" for i in range(40)))
    ops = [cohort, ("advance", 1.0),                 # 40 leases lapse
           ("results", [("held", 0)] * 10),          # 10 stragglers
           cohort, cohort,                           # 40 fresh, 30 + dry
           ("scalar", "b-3"), ("results", [("held", 0)] * 70),
           ("advance", 1.0), cohort]
    backend = _run_differential(cfg, ops)
    assert backend.requeues >= 40 and backend.completed_count > 0


def test_straggler_results_tombstone_their_requeued_copy():
    """2,000 tasks on short leases: every lease lapses and requeues its
    task, then the original holders' results arrive.  Each straggler is
    accepted, its requeued copy is never dispatched again, and
    ``pending_count`` stays exact — step by step equal to the dict
    bookkeeping."""
    n = 2_000
    cfg = {"seed": 1, "refs": [1.0] * n, "networks": None,
           "lease_factor": 0.01, "check_s": 1.0, "backoff": 1.0,
           "jitter": 0.0, "replicate": False, "scheduling": "fifo"}
    new, old = _Pair(Backend, cfg), _Pair(_DictBackend, cfg)
    workers = [f"w-{i}" for i in range(n)]
    for pair in (new, old):
        b = pair.backend
        replies = b.receive_request_cohort(workers, "i-1")
        assert [r.task_id for r in replies] == list(range(n))
        pair.sim.run(until=2.0)                     # every lease lapses
        assert b.requeues == n and b.pending_count == n
        # stragglers: even task ids one by one, odd ones as a cohort
        for tid in range(0, n, 2):
            b.receive_result(workers[tid], tid)
        odd = list(range(1, n // 2, 2))
        b.receive_result_cohort(
            [workers[t] for t in odd],
            odd if pair is old else np.array(odd, np.int64))
        accepted = n // 2 + len(odd)
        assert b.completed_count == accepted and b.duplicates == 0
        assert b.pending_count == n - accepted
    assert _snapshot(new.backend) == _snapshot(old.backend)
    for pair in (new, old):
        b = pair.backend
        replies = b.receive_request_cohort(workers, "i-1")
        served = [r.task_id for r in replies if type(r) is not NoWork]
        # exactly the tasks no straggler completed, in requeue order
        assert served == [t for t in range(n)
                          if t % 2 and t not in set(odd)]
        assert b.pending_count == 0
    assert _snapshot(new.backend) == _snapshot(old.backend)


def test_cohort_run_of_uniform_bag_builds_no_task(dve, monkeypatch):
    """A 200,000-task uniform bag submitted and run to completion on the
    cohort path builds no :class:`Task` — the bag, the Backend and the
    task engine all work on columns — and sets off no generation-2
    collection."""
    import gc

    from repro.core import OddCISystem
    from repro.core.instance import reset_instance_sequence
    from repro.workloads import uniform_bag
    from repro.workloads.job import reset_job_sequence

    built = []
    init = Task.__init__

    def counting_init(task, *args, **kwargs):
        built.append(args or kwargs)
        init(task, *args, **kwargs)

    monkeypatch.setattr(Task, "__init__", counting_init)
    generations = []

    def hook(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    reset_job_sequence()
    reset_instance_sequence()
    nodes = 20_000
    system = OddCISystem(seed=0, maintenance_interval_s=60.0)
    system.add_pnas(nodes, heartbeat_interval_s=10.0,
                    dve_poll_interval_s=15.0)
    gc.collect()
    gc.callbacks.append(hook)
    try:
        with dve.cohort():
            job = uniform_bag(10 * nodes, ref_seconds=60.0)
            submission = system.provider.submit_job(
                job, target_size=nodes, heartbeat_interval_s=10.0)
            report = system.provider.run_job_to_completion(submission,
                                                           limit_s=1e7)
    finally:
        gc.callbacks.remove(hook)
    assert report.n_tasks == 200_000 and report.distinct_workers == nodes
    assert submission.backend.completed_count == 200_000
    assert built == []
    assert 2 not in generations
