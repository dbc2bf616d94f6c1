"""Cohort wakeup ≡ per-PNA wakeup.

A fleet built by ``OddCISystem.add_pnas`` hears the broadcast as one
:class:`~repro.core.pna.PNABlock`, which runs a wakeup's checks as
column passes and recruits the joiners with one
``CohortTaskEngine.join_many``.  Its oracle is the per-PNA
``PNA.deliver_control`` on every member in order.  Each case below
runs a full recruit + job cycle both ways and requires the same
per-PNA counters, node columns, engine slot order, RNG stream
positions, job reports and, when traced, the same trace.  The fleet
sizes straddle ``_BULK_MIN`` (below it the block delivers member by
member).
"""

import gc

import numpy as np
import pytest

from repro.certify.adversary import Adversary
from repro.core import OddCISystem
from repro.core.controller import Controller, DirectControlPlane
from repro.core.instance import reset_instance_sequence
from repro.core.network import PNA_COUNTERS
from repro.core.pna import PNABlock
from repro.core.provider import ControllerShard, NetworkDescriptor, Provider
from repro.core.taskloop import _BULK_MIN, CohortTaskEngine
from repro.telemetry.trace import Tracer, active
from repro.workloads import uniform_bag
from repro.workloads.job import reset_job_sequence

SIZES = [8, _BULK_MIN - 1, _BULK_MIN, 64, 2000]
CASES = ["probability", "requirements", "busy", "shutdown", "corruption",
         "blacklist", "two_controllers", "traced", "lossy", "own_code"]


def _per_member(block, payload, signature):
    for pna in block.pnas:
        pna.deliver_control(payload, signature)


def _bag(n_tasks, requirements=None):
    job = uniform_bag(n_tasks, image_bits=1e5, ref_seconds=5.0,
                      input_bits=4096.0, result_bits=4096.0)
    if requirements:
        job = type(job)(image_bits=job.image_bits, tasks=job.tasks,
                        name=job.name, requirements=requirements)
    return job


def _submit(provider, n_tasks, target, requirements=None):
    return provider.submit_job(_bag(n_tasks, requirements),
                               target_size=target, lifetime_s=1e5,
                               heartbeat_interval_s=10.0, lease_factor=3.0)


def _run(n, case):
    reset_job_sequence()
    reset_instance_sequence()
    system = OddCISystem(seed=11, maintenance_interval_s=20.0,
                         delta_loss=0.1 if case == "lossy" else 0.0)
    sim, controller = system.sim, system.controller
    if case == "own_code":
        # a plain block between two that keep their own code: one whose
        # heartbeat interval the wakeup changes, one with adversaries
        system.add_pnas(n // 4, heartbeat_interval_s=30.0,
                        dve_poll_interval_s=5.0)
        system.add_pnas(n - 2 * (n // 4), heartbeat_interval_s=10.0,
                        dve_poll_interval_s=5.0)
        system.add_pnas(n // 4, heartbeat_interval_s=10.0,
                        dve_poll_interval_s=5.0)
        for k, pna in enumerate(system.pnas[-(n // 4)::3]):
            pna.set_adversary(Adversary(
                ("heartbeat_spoof", "saboteur", "free_rider")[k % 3],
                pna.pna_id))
    elif case == "requirements":
        system.add_pnas(n // 2, capabilities={"memory_mb": 256},
                        heartbeat_interval_s=10.0, dve_poll_interval_s=5.0)
        system.add_pnas(n - n // 2, capabilities={"memory_mb": 64},
                        heartbeat_interval_s=10.0, dve_poll_interval_s=5.0)
    else:
        system.add_pnas(n, heartbeat_interval_s=10.0,
                        dve_poll_interval_s=5.0)
    pnas = system.pnas
    providers = [system.provider]
    submissions = []
    # Let the census hear every node first, so a wakeup's probability
    # is sized against a known idle fleet.
    sim.run(until=15.0)
    if case == "probability":
        submissions.append(_submit(system.provider, n, max(1, n // 2)))
    elif case == "requirements":
        submissions.append(_submit(system.provider, n, n,
                                   requirements={"min_memory_mb": 128}))
    elif case == "busy":
        submissions.append(_submit(system.provider, 4 * n, max(1, n // 3)))
        sim.run(until=45.0)
        submissions.append(_submit(system.provider, n, n))
    elif case == "shutdown":
        for pna in pnas[::3]:
            pna.shutdown()
        submissions.append(_submit(system.provider, n, n))
    elif case == "corruption":
        controller.corrupt_signatures(True)
        sim.schedule_at(sim.now + 30.0, controller.corrupt_signatures, False)
        submissions.append(_submit(system.provider, n, n))
    elif case == "blacklist":
        for pna in pnas[1::4]:
            controller.quarantine_node(pna.pna_id)
        submissions.append(_submit(system.provider, n, n))
    elif case == "two_controllers":
        other = Controller(
            sim, system.router,
            DirectControlPlane(system.broadcast, sender="controller-b"),
            system.keys, controller_id="controller-b",
            maintenance_interval_s=20.0)
        providers.append(
            Provider(sim, [ControllerShard(NetworkDescriptor(), other)]))
        for pna in pnas[::5]:  # mixed keys inside the block
            pna.controller_key = system.keys.key_of("controller-b")
            pna.controller_id = "controller-b"
        submissions.append(_submit(system.provider, n, n))
        submissions.append(_submit(providers[1], n, max(1, n // 5)))
    else:  # traced, lossy, own_code
        submissions.append(_submit(system.provider, n, n))
    if case in ("lossy", "own_code"):
        # Lost results wait out their leases, and wrong results may
        # never certify: compare a window, not the long tail.
        sim.run(until=200.0)
        reports = [(s.backend.completed_count, s.backend.requeues)
                   for s in submissions]
    else:
        reports = [providers[-1 if k and case == "two_controllers" else 0]
                   .run_job_to_completion(s, limit_s=5e4)
                   for k, s in enumerate(submissions)]
    sim.run(until=sim.now + 60.0)
    router = system.router
    rows = np.array([p.census_idx for p in pnas])
    engines = router._task_engines
    return {
        "reports": reports,
        "counters": {name: [getattr(p, name) for p in pnas]
                     for name in PNA_COUNTERS + ("heartbeats_sent",)},
        "columns": [np.frombuffer(column, column.typecode)[rows].tolist()
                    for column in (router.pna_state, router.pna_instance,
                                   router.pna_online)],
        "slots": {iid: (list(map(router.interner.id_of, e._row)),
                        list(e._row))
                  for iid, e in engines.items()},
        "dves": [type(p.dve).__name__ for p in pnas],
        "hb": [p.heartbeat_interval_s for p in pnas],
        "rng": {name: gen.bit_generator.state
                for name, gen in sim._rng_streams.items()},
        "links": [(p.channel.uplink.delivered, p.channel.uplink.dropped,
                   p.channel.downlink.delivered, p.channel.downlink.dropped)
                  for p in pnas],
        "undeliverable": router.undeliverable,
        "events": sim.events_executed,
        "now": sim.now,
    }


def _traced_run(n, case):
    if case != "traced":
        return _run(n, case), None
    tracer = Tracer("all")
    with active(tracer):
        out = _run(n, case)
    return out, [e for e in tracer.events() if e[1] != "kernel"]


def _column_pass_expected(n, case):
    """Whether some block of case ``case`` at ``n`` nodes takes the
    column pass: at least ``_BULK_MIN`` members, untraced, none on its
    own code."""
    largest = {"own_code": n - 2 * (n // 4),
               "requirements": n - n // 2}.get(case, n)
    return largest >= _BULK_MIN and case != "traced"


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", SIZES)
def test_cohort_wakeup_matches_per_pna(n, case, monkeypatch, dve):
    """On the cohort task path, the only one with a column wakeup (the
    per-PNA DVE oracle delivers member by member)."""
    passes = []
    wakeup = PNABlock._wakeup

    def spy(block, payload, signature):
        passes.append(len(block.pnas))
        wakeup(block, payload, signature)

    with monkeypatch.context() as mp, dve.cohort():
        mp.setattr(PNABlock, "_wakeup", spy)
        cohort, cohort_trace = _traced_run(n, case)
    assert bool(passes) == _column_pass_expected(n, case), passes
    with monkeypatch.context() as mp, dve.cohort():
        mp.setattr(PNABlock, "deliver_control", _per_member)
        oracle, oracle_trace = _traced_run(n, case)
    for key in oracle:
        assert cohort[key] == oracle[key], f"{key} diverged: {case}, n={n}"
    assert cohort_trace == oracle_trace
    if case == "traced":
        assert any(e[2] == "accept" for e in cohort_trace)


def test_cases_exercise_their_branch():
    """The differential cases really reach the branches they name."""
    out = _run(200, "probability")
    assert sum(out["counters"]["dropped_probability"]) > 0
    assert any(name.startswith("pna:") for name in out["rng"])
    dropped = _run(200, "requirements")["counters"]["dropped_requirements"]
    assert not any(dropped[:100]) and all(dropped[100:])
    assert sum(_run(200, "busy")["counters"]["dropped_busy"]) > 0
    assert sum(_run(200, "corruption")["counters"]
               ["dropped_bad_signature"]) >= 200
    assert sum(_run(200, "blacklist")["counters"]["resets_handled"]) > 0
    assert sum(_run(200, "two_controllers")["counters"]
               ["dropped_bad_signature"]) > 0
    out = _run(200, "own_code")
    assert set(out["hb"]) == {10.0}  # the first block was re-keyed
    assert "NoneType" in out["dves"]  # heartbeat_spoof zombies


def test_bulk_fleet_and_wakeup_set_off_no_full_collection(dve):
    """Building 20 000 PNAs allocates too few container objects for a
    generation-2 pass; recruiting them with one wakeup, for any pass."""
    generations = []

    def hook(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    reset_job_sequence()
    reset_instance_sequence()
    system = OddCISystem(seed=0, maintenance_interval_s=1e6)
    job = _bag(20_000)
    gc.collect()
    gc.callbacks.append(hook)
    try:
        system.add_pnas(20_000, heartbeat_interval_s=500.0,
                        dve_poll_interval_s=15.0)
        built = list(generations)
        system.provider.submit_job(job, target_size=20_000,
                                   heartbeat_interval_s=500.0)
        with dve.cohort():
            system.sim.run(until=system.broadcast.busy_until)
        recruited = generations[len(built):]
    finally:
        gc.callbacks.remove(hook)
    assert system.busy_count() == 20_000
    # recruited as one cohort: every member holds only its engine
    assert {type(p._dve) for p in system.pnas} == {CohortTaskEngine}
    assert 2 not in built
    # the wakeup allocates no per-member container at all
    assert recruited == []
