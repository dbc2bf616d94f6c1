"""The per-PNA DVE: the cohort task engine's differential oracle.

When a PNA accepts a wakeup it "creates a DVE for loading and executing
the user's application" (paper Section 3.2).  :class:`DVE` runs that
voluntary-computing client loop as one generator process per node:
request a task from the Backend, compute it on the local device, ship
the result back, repeat — until the bag is dry or a reset destroys it.
Once destroyed it never issues another message or computation, and a
fresh wakeup gets a fresh DVE.

The program runs the same protocol on
:class:`~repro.core.taskloop.CohortTaskEngine`.  Tests select this
oracle by patching the names of :data:`ORACLE` into
:mod:`repro.core.pna` (``tests/conftest.py``): :func:`engine_for` hands
each woken PNA a :class:`PerPnaEngine` slot holding its own DVE, and a
fleet block delivers member by member.  As in the program, a backend id
with no registered task server starts no client loop.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.errors import OddCIError
from repro.core.messages import (
    CONTROL_PAYLOAD_BITS,
    NoWork,
    TaskAssignment,
    TaskRequest,
    TaskResultPayload,
)
from repro.core.network import Router
from repro.sim.core import Event, Simulator
from repro.sim.process import Interrupt, Process


class DVE:
    """One disposable execution environment bound to an instance."""

    def __init__(
        self,
        sim: Simulator,
        pna,
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
        self.sim = sim
        self.pna = pna
        self.instance_id = instance_id
        self.backend_id = backend_id
        self.poll_interval_s = poll_interval_s
        # Direct channels are lossy home broadband: every request is
        # guarded by a timeout and retried (at-least-once; the Backend
        # deduplicates results).
        self.request_timeout_s = request_timeout_s or \
            max(4.0 * poll_interval_s, 60.0)
        self.destroyed = False
        self.tasks_completed = 0
        self.retransmissions = 0
        self._pending_reply: Optional[Event] = None
        # Both request fields are fixed for the DVE's lifetime and the
        # payload is frozen — one object serves every poll.
        self._task_request = TaskRequest(pna_id=pna.pna_id,
                                         instance_id=instance_id)
        self._process: Process = sim.process(self._client_loop())

    # -- message plumbing (called by the PNA's dispatcher) ----------------
    def on_backend_message(self, payload) -> None:
        """Deliver a Backend reply (TaskAssignment / NoWork) to the loop."""
        if self.destroyed:
            return
        if self._pending_reply is not None and not self._pending_reply.triggered:
            self._pending_reply.succeed(payload)

    # -- lifecycle ------------------------------------------------------------
    def destroy(self) -> None:
        """Tear the environment down (reset handling).  Idempotent."""
        if self.destroyed:
            return
        self.destroyed = True
        self._pending_reply = None
        if self._process.alive:
            self._process.interrupt("dve destroyed")

    # -- the client loop -------------------------------------------------------
    def _client_loop(self):
        router: Router = self.pna.router
        send_from_pna = router.send_from_pna
        new_event = self.sim.event
        pna_id = self.pna.pna_id
        backend_id = self.backend_id
        request = self._task_request
        timeout = self.request_timeout_s
        try:
            while not self.destroyed:
                # 1. ask the Backend for work (retry on reply timeout)
                self._pending_reply = new_event(name="dve.reply")
                send_from_pna(pna_id, backend_id, request,
                              CONTROL_PAYLOAD_BITS)
                yield self._pending_reply, timeout
                if not self._pending_reply.triggered:
                    self._pending_reply = None
                    self.retransmissions += 1
                    continue  # reply lost in flight: ask again
                reply = self._pending_reply.value
                self._pending_reply = None

                if not isinstance(reply, TaskAssignment):
                    if isinstance(reply, NoWork):
                        if reply.retry_after_s is None:
                            return self.tasks_completed  # bag is dry: stop
                        yield reply.retry_after_s
                        continue
                    raise OddCIError(
                        f"DVE got unexpected backend reply {reply!r}")

                # 2. compute (input transfer time was paid by the downlink
                #    delivery of the assignment, which carried input_bits).
                #    The behaviour profile is captured *now*, before the
                #    compute yield, so a mid-task adversary flip never
                #    splits one task's semantics.
                adv = self.pna.adversary
                honest_s = self.pna.executor(reply.ref_seconds)
                if adv is None:
                    digest = None
                    yield honest_s
                else:
                    digest = adv.digest(reply.task_id)
                    yield adv.compute_seconds(honest_s)

                # 3. ship the result — at-least-once: retransmit until the
                #    link confirms delivery (the Backend deduplicates)
                result = TaskResultPayload(pna_id=pna_id,
                                           task_id=reply.task_id,
                                           digest=digest)
                while not self.destroyed:
                    done = new_event(name="dve.sent")
                    router.send_from_pna_notify(
                        pna_id, backend_id, result,
                        CONTROL_PAYLOAD_BITS + reply.result_bits, done)
                    yield done, timeout
                    if done.triggered:
                        break
                    self.retransmissions += 1
                self.tasks_completed += 1
        except Interrupt:
            return self.tasks_completed


class PerPnaEngine:
    """What :class:`~repro.core.taskloop.CohortDVE` needs of an engine,
    with one :class:`DVE` per slot."""

    def __init__(self, router: Router, backend_id: str,
                 instance_id: str) -> None:
        self.sim = router.sim
        self.backend_id = backend_id
        self.instance_id = instance_id
        self.dves: List[DVE] = []

    def join(self, pna, request_timeout_s: float) -> int:
        self.dves.append(DVE(self.sim, pna, self.instance_id,
                             self.backend_id,
                             poll_interval_s=pna.dve_poll_interval_s,
                             request_timeout_s=request_timeout_s))
        return len(self.dves) - 1

    @property
    def _completed(self) -> List[int]:
        return [dve.tasks_completed for dve in self.dves]

    @property
    def _retrans(self) -> List[int]:
        return [dve.retransmissions for dve in self.dves]

    def inject_reply(self, slot: int, payload) -> None:
        self.dves[slot].on_backend_message(payload)

    def destroy(self, slot: int) -> None:
        self.dves[slot].destroy()


def engine_for(router: Router, backend_id: str,
               instance_id: str) -> Optional[PerPnaEngine]:
    """:func:`repro.core.taskloop.engine_for` on the oracle path."""
    if backend_id not in router._task_servers:
        return None  # no task server: no client loop
    return PerPnaEngine(router, backend_id, instance_id)


#: The :mod:`repro.core.pna` names that select the oracle: its engine,
#: and no block large enough for the column wakeup.
ORACLE = {"engine_for": engine_for, "_BULK_MIN": math.inf}
