"""ResultCertifier: quorum voting, probes, quarantine — driven directly.

These tests build a standalone Backend (no Controller, no PNAs) and
drive the certifier's ``serve``/``on_result`` surface by hand, so each
certification rule is pinned without simulator scheduling noise.  The
certifier keys a node by its row in the Backend's interner, as the
Backend does; :func:`rows` interns the wire ids the tests name.
"""

import pytest

from repro.certify import CertifyPolicy, ProbeTask
from repro.core.backend import Backend
from repro.core.messages import NoWork
from repro.core.network import Router
from repro.errors import BackendError, QuarantinedNodeError
from repro.sim.core import Simulator
from repro.workloads import uniform_bag


def make_backend(policy, n_tasks=6, **kwargs):
    sim = Simulator(seed=7)
    job = uniform_bag(n_tasks, image_bits=1e6, ref_seconds=10.0,
                      name="certify-test")
    backend = Backend(sim, job, Router(sim), backend_id="backend-cert",
                      certify_policy=policy, **kwargs)
    return backend


def rows(backend, *names):
    """The node rows of the wire ids ``names`` (interned on first use,
    as a request or result from them would be)."""
    return [backend._node(name) for name in names]


def test_certify_policy_and_replicate_tail_are_exclusive():
    sim = Simulator(seed=7)
    job = uniform_bag(4, image_bits=1e6, ref_seconds=10.0, name="x")
    with pytest.raises(BackendError):
        Backend(sim, job, Router(sim), backend_id="b",
                certify_policy=CertifyPolicy(), replicate_tail=True)


def test_redundant_dispatch_pins_distinct_pnas():
    backend = make_backend(CertifyPolicy(mode="static", r=3), n_tasks=1)
    certifier = backend.certifier
    a, b, c = rows(backend, "pna-a", "pna-b", "pna-c")
    t0 = certifier.serve(a, "inst")
    assert t0.task_id == 0
    # The same node never gets a second copy of a task it holds.
    again = certifier.serve(a, "inst")
    assert isinstance(again, NoWork)
    t1 = certifier.serve(b, "inst")
    t2 = certifier.serve(c, "inst")
    assert t1.task_id == t2.task_id == 0
    assert certifier.copies_issued == 3
    assert backend.tasks_assigned == 1      # one primary...
    assert backend.replicas_issued == 2     # ...two copies


def test_honest_quorum_commits_without_waiting_for_all_votes():
    backend = make_backend(CertifyPolicy(mode="static", r=3), n_tasks=1)
    certifier = backend.certifier
    a, b, c = rows(backend, "a", "b", "c")
    for node in (a, b, c):
        certifier.serve(node, "inst")
    certifier.on_result(a, 0, None)
    assert certifier.outstanding == 1       # one vote is not a quorum
    certifier.on_result(b, 0, None)         # 2/3 agree: commit now
    assert certifier.outstanding == 0
    assert certifier.tasks_certified == 1
    assert certifier.escaped_errors == 0
    assert 0 in backend._completed
    # The straggling third vote is a duplicate, not a new round.
    certifier.on_result(c, 0, None)
    assert backend.duplicates == 1


def test_lone_saboteur_is_outvoted_and_punished():
    # Saboteur votes first; the two honest replicas still win.
    backend = make_backend(CertifyPolicy(mode="static", r=3,
                                         quarantine_after=0), n_tasks=1)
    certifier = backend.certifier
    evil, b, c = rows(backend, "evil", "b", "c")
    for node in (evil, b, c):
        certifier.serve(node, "inst")
    certifier.on_result(evil, 0, -131072)
    certifier.on_result(b, 0, None)
    certifier.on_result(c, 0, None)
    assert certifier.tasks_certified == 1
    assert certifier.escaped_errors == 0
    cred = certifier.ledger
    assert cred.bad_count(evil) == 1
    assert cred.credibility(evil) < cred.credibility(b)


def test_colluding_majority_escapes_and_audit_counts_it():
    backend = make_backend(CertifyPolicy(mode="static", r=3), n_tasks=1)
    certifier = backend.certifier
    evil1, evil2, honest = rows(backend, "evil1", "evil2", "honest")
    for node in (evil1, evil2, honest):
        certifier.serve(node, "inst")
    certifier.on_result(evil1, 0, -555)
    certifier.on_result(evil2, 0, -555)     # colluding quorum
    assert certifier.tasks_certified == 1
    assert certifier.escaped_errors == 1    # ground-truth audit caught it
    assert 0 in backend._completed


def test_no_quorum_rejects_round_and_redispatches():
    backend = make_backend(CertifyPolicy(mode="static", r=3,
                                         quarantine_after=0), n_tasks=1)
    certifier = backend.certifier
    a, b, c, d = rows(backend, "a", "b", "c", "d")
    for node in (a, b, c):
        certifier.serve(node, "inst")
    # Three-way disagreement: no digest reaches the quorum of 2.
    certifier.on_result(a, 0, -101)
    certifier.on_result(b, 0, -202)
    certifier.on_result(c, 0, -303)
    assert certifier.votes_rejected == 3
    assert certifier.tasks_certified == 0
    assert backend.requeues == 1
    assert backend._attempts[0] == 1        # backoff sees the retry
    # The task is re-dispatchable, including to previous voters.
    t = certifier.serve(d, "inst")
    assert t.task_id == 0


def test_audit_mode_commits_first_vote_and_scores_escapes():
    backend = make_backend(CertifyPolicy(mode="audit"), n_tasks=2)
    certifier = backend.certifier
    good, evil = rows(backend, "good", "evil")
    t0 = certifier.serve(good, "inst")
    certifier.on_result(good, t0.task_id, None)
    t1 = certifier.serve(evil, "inst")
    certifier.on_result(evil, t1.task_id, -777)
    assert certifier.tasks_certified == 2
    assert certifier.escaped_errors == 1
    assert certifier.quarantines == 0       # audit mode never convicts
    assert backend.done


def test_probe_failure_quarantines_after_threshold():
    calls = []
    backend = make_backend(CertifyPolicy(mode="static", r=3,
                                         probe_rate=0.5,
                                         quarantine_after=2))
    certifier = backend.certifier
    certifier.on_quarantine = lambda pna, reason: calls.append(pna)
    evil, = rows(backend, "evil")
    # Issue probes directly (the serve-time draw is rng-gated).
    probe = certifier._make_probe(evil)
    assert isinstance(probe, ProbeTask)
    assert probe.task_id < 0
    certifier.on_result(evil, probe.task_id, -999)
    assert certifier.probes_failed == 1
    assert certifier.quarantines == 0
    probe2 = certifier._make_probe(evil)
    assert probe2.task_id == probe.task_id - 1   # fresh id per probe
    certifier.on_result(evil, probe2.task_id, -999)
    assert certifier.quarantines == 1
    assert calls == ["evil"]                # the hook gets the wire id
    with pytest.raises(QuarantinedNodeError):
        certifier.serve(evil, "inst")
    # Late results from a quarantined node are suppressed.
    certifier.on_result(evil, 0, None)
    assert certifier.tasks_certified == 0


def test_probe_pass_earns_credibility():
    backend = make_backend(CertifyPolicy(mode="static", r=3,
                                         probe_rate=0.5))
    certifier = backend.certifier
    good, = rows(backend, "good")
    probe = certifier._make_probe(good)
    certifier.on_result(good, probe.task_id, None)
    assert certifier.probes_failed == 0
    assert certifier.ledger.credibility(good) == 0.75


def test_quarantine_requeues_outstanding_copies():
    backend = make_backend(CertifyPolicy(mode="static", r=3), n_tasks=1)
    certifier = backend.certifier
    evil, b, c = rows(backend, "evil", "b", "c")
    certifier.serve(evil, "inst")
    certifier.serve(b, "inst")
    certifier.quarantine(evil, "manual")
    # evil's copy went back in the queue; a new node can take it.
    t = certifier.serve(c, "inst")
    assert t.task_id == 0
    assert certifier.quarantines == 1


def test_adaptive_replication_shrinks_for_trusted_nodes():
    pol = CertifyPolicy(mode="adaptive", r_min=1, r_max=3,
                        trust_threshold=0.9)
    backend = make_backend(pol, n_tasks=4)
    certifier = backend.certifier
    a, = rows(backend, "a")
    # First contact: full redundancy.
    t0 = certifier.serve(a, "inst")
    assert certifier._records[t0.task_id].r == 3
    # Promote node a past the trust threshold.
    for _ in range(5):
        certifier.ledger.record_good(a)
    assert certifier.ledger.credibility(a) >= 0.9
    # a's own fresh dispatch now goes out unreplicated...
    t1 = certifier.serve(a, "inst")
    assert certifier._records[t1.task_id].r == 1
    # ...and commits on a's single vote.
    certifier.on_result(a, t1.task_id, None)
    assert t1.task_id in backend._completed


def test_lease_expiry_requeues_and_decays_without_conviction():
    pol = CertifyPolicy(mode="static", r=3)
    backend = make_backend(pol, n_tasks=1, lease_factor=2.0)
    certifier = backend.certifier
    a, b = rows(backend, "a", "b")
    certifier.serve(a, "inst")
    before = certifier.ledger.credibility(a)
    certifier.expire_leases(now=1e9)        # far future: lease long gone
    assert backend.requeues == 1
    assert certifier.ledger.credibility(a) < before
    assert certifier.ledger.bad_count(a) == 0   # timeouts never convict
    # The expired copy is available again, to a different node.
    t = certifier.serve(b, "inst")
    assert t.task_id == 0
