"""Held columns ≡ materialised columns.

The Router's node columns (online, state, linked, instance code, the
PNA counters, the bulk slot and engine code) and the task engine's
member columns stay *held* — one value for every row, or one ``k + c``
run for the slot, task-id and row columns — until a pass writes rows
apart (:class:`~repro.net.link.HeldColumns`).  The oracle below runs
the same cycle with every ``store`` writing rows (so no column ever
stays held) and requires the same node columns, engine columns, job
report, kernel event count and RNG stream positions, over multi-block
fleets, partial wakeups (a target below the fleet) and churn (outages
of 40 s).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OddCISystem
from repro.core.instance import reset_instance_sequence
from repro.net.link import HeldColumns, column_view
from repro.workloads import uniform_bag
from repro.workloads.job import reset_job_sequence


def _materialised_store(self, name, rows, values):
    if type(values) is range:
        values = np.arange(values.start, values.stop)
    column_view(self.column(name))[rows] = values


def _cycle(blocks, target, churn, tasks_per_node):
    reset_job_sequence()
    reset_instance_sequence()
    system = OddCISystem(seed=5, maintenance_interval_s=20.0)
    for n in blocks:
        system.add_pnas(n, heartbeat_interval_s=10.0,
                        dve_poll_interval_s=5.0)
    total = sum(blocks)
    job = uniform_bag(tasks_per_node * total, image_bits=1e5,
                      ref_seconds=20.0, input_bits=4096.0,
                      result_bits=4096.0)
    submission = system.provider.submit_job(
        job, target_size=max(1, int(target * total)), lifetime_s=1e5,
        heartbeat_interval_s=10.0, lease_factor=3.0)

    def outage(row, down):
        pna = system.pnas[row % total]
        if down and pna.online:
            pna.shutdown()
        elif not down and not pna.online:
            pna.restart()

    for at, row in churn:  # each node comes back, so the job finishes
        system.sim.call_at(float(at), outage, row, True)
        system.sim.call_at(float(at) + 40.0, outage, row, False)
    report = system.provider.run_job_to_completion(submission, limit_s=1e4)
    # every reserved row: rows past the fleet were never registered
    router, rows = system.router, np.arange(system.router._n)
    return {
        "report": vars(report),
        "nodes": {name: router.view(name, rows).tolist()
                  for name in router._COLUMNS},
        "engines": {iid: {name: list(engine.column(name))
                          for name in engine._COLUMNS}
                    for iid, engine in router._task_engines.items()},
        "events": system.sim.events_executed,
        "rng": {name: gen.bit_generator.state
                for name, gen in system.sim._rng_streams.items()},
    }


@settings(max_examples=12, deadline=None)
@given(blocks=st.lists(st.integers(1, 140), min_size=1, max_size=3),
       target=st.sampled_from([1.0, 0.6, 0.25]),
       churn=st.lists(st.tuples(st.integers(1, 120), st.integers(0, 999)),
                      max_size=8),
       tasks_per_node=st.integers(1, 3))
def test_held_columns_match_materialised_columns(blocks, target, churn,
                                                 tasks_per_node):
    held = _cycle(blocks, target, churn, tasks_per_node)
    store = HeldColumns.store
    HeldColumns.store = _materialised_store
    try:
        materialised = _cycle(blocks, target, churn, tasks_per_node)
    finally:
        HeldColumns.store = store
    assert held == materialised


def test_lockstep_block_keeps_runs_held(dve):
    """One block recruited whole on the cohort path: the bulk slot,
    engine row and task-id columns hold one ``k + c`` run each through
    a lockstep cycle."""
    system = OddCISystem(seed=5, maintenance_interval_s=60.0)
    system.add_pnas(300, heartbeat_interval_s=10.0, dve_poll_interval_s=5.0)
    job = uniform_bag(600, image_bits=1e5, ref_seconds=5.0,
                      input_bits=4096.0, result_bits=4096.0)
    with dve.cohort():
        submission = system.provider.submit_job(job, target_size=300,
                                                heartbeat_interval_s=10.0)
        system.provider.run_job_to_completion(submission, limit_s=1e4)
    router = system.router
    (engine,) = router._task_engines.values()
    assert type(router._held["dve_slot"]) is range \
        and not len(router.dve_slot)
    assert type(engine._held["_row"]) is range and not len(engine._row)
    assert type(engine._held["_task_id"]) is range \
        and not len(engine._task_id)
    assert router.view("dve_slot", slice(0, 300)).tolist() == \
        list(range(300))
    assert sorted(engine.view("_task_id", slice(0, 300)).tolist()) == \
        list(range(engine.view("_task_id", slice(0, 1))[0],
                   engine.view("_task_id", slice(0, 1))[0] + 300))
