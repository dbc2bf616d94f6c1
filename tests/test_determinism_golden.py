"""Determinism golden test: same seeds => identical event traces.

The perf work (fast-path heap entries, timer wheels, batched
deliveries, payload-level sends) must never change *what* the simulator
does — two runs with the same seed have to execute the same callbacks
at the same instants in the same order, and produce identical semantic
outputs (makespan, census, counters).  This is the regression net under
every future kernel optimisation.  The ``dve`` fixture
(tests/conftest.py) pins each run to the per-PNA reference path or the
cohort task engine.
"""

from repro.core import OddCISystem, PNAState
from repro.workloads import uniform_bag


def _callback_name(cb) -> str:
    return getattr(cb, "__qualname__", None) or type(cb).__name__


def _run_full_cycle(path, seed: int, heartbeat_interval_s: float = 20.0):
    """One wakeup+heartbeat+job cycle on the task path ``path`` pins
    (``dve.per_pna`` or ``dve.cohort``); returns (trace, outputs)."""
    trace = []
    with path():
        system = OddCISystem(beta_bps=1_000_000.0, delta_bps=150_000.0,
                             maintenance_interval_s=30.0, seed=seed)
        system.sim.trace = lambda t, cb, args: trace.append(
            (t, _callback_name(cb)))
        system.add_pnas(25, heartbeat_interval_s=heartbeat_interval_s,
                        dve_poll_interval_s=5.0)
        job = uniform_bag(100, image_bits=1e6, input_bits=4096,
                          ref_seconds=10.0, result_bits=4096)
        submission = system.provider.submit_job(
            job, target_size=25, heartbeat_interval_s=heartbeat_interval_s)
        report = system.provider.run_job_to_completion(submission,
                                                       limit_s=1e6)
        system.sim.run(until=system.sim.now + 60.0)  # settle the dismantle
    outputs = {
        "makespan": report.makespan,
        "completed_at": report.completed_at,
        "tasks_assigned": report.tasks_assigned,
        "distinct_workers": report.distinct_workers,
        "events_executed": system.sim.events_executed,
        "sim_now": system.sim.now,
        "counters": system.controller.counters.as_dict(),
        "census": sorted(
            (pid, state.value, iid or "")
            for pid, (_seen, state, iid) in
            system.controller.census.registry_items()),
        "idle": sum(1 for p in system.pnas if p.state is PNAState.IDLE),
    }
    return trace, outputs


def test_same_seed_runs_are_event_identical(dve):
    trace_a, out_a = _run_full_cycle(dve.per_pna, seed=11)
    trace_b, out_b = _run_full_cycle(dve.per_pna, seed=11)
    assert out_a == out_b
    assert len(trace_a) == len(trace_b)
    assert trace_a == trace_b  # same callbacks, same times, same order
    assert len(trace_a) > 500  # the cycle actually exercised the stack


def test_same_seed_runs_are_event_identical_cohort(dve):
    """The macro task engine obeys the same determinism contract (and
    actually collapses the calendar — far fewer entries per cycle)."""
    trace_a, out_a = _run_full_cycle(dve.cohort, seed=11)
    trace_b, out_b = _run_full_cycle(dve.cohort, seed=11)
    assert out_a == out_b
    assert trace_a == trace_b
    assert 0 < len(trace_a) < 500  # the cohort path batches the calendar


def test_cohort_and_process_agree_on_outputs(dve):
    """The two task paths must agree on every semantic output; only the
    calendar shape (events_executed / entry trace) may differ."""
    _trace_p, out_p = _run_full_cycle(dve.per_pna, seed=11)
    _trace_c, out_c = _run_full_cycle(dve.cohort, seed=11)
    for key in ("makespan", "completed_at", "tasks_assigned",
                "distinct_workers", "counters", "census", "idle"):
        assert out_p[key] == out_c[key], key


def test_trace_detects_behavioral_change(dve):
    """Sanity check that the trace is sensitive enough to notice change.

    (The golden scenario itself is loss-free with probability-1 wakeup,
    so *seeds* don't alter it — a protocol parameter must.)
    """
    trace_a, _ = _run_full_cycle(dve.per_pna, seed=11)
    trace_b, _ = _run_full_cycle(dve.per_pna, seed=11,
                                 heartbeat_interval_s=24.0)
    assert trace_a != trace_b
