"""VectorOddCISystem: multi-job submissions, faults, census, telemetry."""

import copy

import numpy as np
import pytest

from repro.core.census import STATE_BUSY
from repro.errors import AnalysisError, ConfigurationError
from repro.experiments.vector_scale import storm_plan
from repro.faults import FaultEvent, FaultPlan, active_plan
from repro.net.message import MEGABYTE
from repro.telemetry import trace as telemetry
from repro.vector import VectorOddCISystem, VectorPopulation
from repro.workloads import BagSpec, uniform_bag, uniform_bag_spec


def make_system(n=2_000, seed=0, **kwargs):
    return VectorOddCISystem(n, seed=seed, **kwargs)


def make_job(n_tasks=4_000, ref_seconds=30.0):
    return uniform_bag(n_tasks, image_bits=4 * MEGABYTE,
                       ref_seconds=ref_seconds)


# -- construction -------------------------------------------------------------

def test_requires_population_or_n():
    with pytest.raises(ConfigurationError):
        VectorOddCISystem()
    with pytest.raises(ConfigurationError):
        VectorOddCISystem(100, heartbeat_interval_s=0.0)
    with pytest.raises(ConfigurationError):
        VectorOddCISystem(100, census_epochs=0)


def test_adopts_existing_population():
    pop = VectorPopulation(500, seed=3)
    system = VectorOddCISystem(population=pop)
    assert system.population is pop


def test_picks_up_ambient_fault_plan():
    plan = FaultPlan((FaultEvent("churn_storm", 100.0, duration_s=50.0,
                                 magnitude=0.2),), name="ambient")
    with active_plan(plan):
        system = make_system()
    assert system.plan is plan
    assert len(system.compiled.windows) == 1
    # An empty ambient plan means "no faults", not a plan of nothing.
    with active_plan(None):
        assert make_system().plan is None


# -- multi-job Provider semantics ---------------------------------------------

def test_sequential_jobs_share_clock_and_population():
    system = make_system()
    r1 = system.run_job(make_job(), target_size=1_000)
    r2 = system.run_job(make_job(), target_size=1_000)
    assert r1.job_index == 0 and r2.job_index == 1
    assert r1.submit_time == 0.0
    assert r2.submit_time == pytest.approx(r1.finish_time)
    assert system.now == pytest.approx(r2.finish_time)
    # Released between jobs: the second recruitment found a full pool.
    assert abs(r2.recruited - r1.recruited) < 0.2 * r1.recruited
    assert system.population.busy_count == 0
    assert system.reports == [r1, r2]


def test_run_jobs_helper_matches_sequential_calls():
    a = make_system(seed=11)
    reports = a.run_jobs([(make_job(), 800), (make_job(), 800)])
    b = make_system(seed=11)
    assert reports == [b.run_job(make_job(), 800),
                       b.run_job(make_job(), 800)]


def test_identical_seeds_are_identical_runs():
    r1 = make_system(seed=42).run_job(make_job(), target_size=1_000)
    r2 = make_system(seed=42).run_job(make_job(), target_size=1_000)
    assert r1 == r2


def test_target_size_validation():
    with pytest.raises(ConfigurationError):
        make_system().run_job(make_job(), target_size=0)


def test_no_idle_nodes_raises():
    system = make_system(n=100)
    system.population.recruit(1.0)  # exhaust the pool
    with pytest.raises(AnalysisError):
        system.run_job(make_job(), target_size=10)


def test_report_efficiency_and_availability_are_sane():
    report = make_system().run_job(make_job(), target_size=1_000)
    assert 0.0 < report.efficiency <= 1.0
    assert 0.0 < report.availability <= 1.0
    assert report.makespan_s > 0
    assert report.start_time == report.submit_time  # no blackout
    assert report.finish_time == pytest.approx(
        report.submit_time + report.makespan_s)


# -- BagSpec duck-typing ------------------------------------------------------

def test_bagspec_and_real_bag_produce_identical_reports():
    n_tasks = 4_000
    spec = uniform_bag_spec(n_tasks, image_bits=4 * MEGABYTE,
                            ref_seconds=30.0)
    assert isinstance(spec, BagSpec)
    bag = uniform_bag(n_tasks, image_bits=4 * MEGABYTE, ref_seconds=30.0,
                      input_bits=spec.input_bits,
                      result_bits=spec.result_bits)
    r_spec = make_system(seed=9).run_job(spec, target_size=1_000)
    r_bag = make_system(seed=9).run_job(bag, target_size=1_000)
    assert r_spec == r_bag


# -- faults -------------------------------------------------------------------

def test_recruitment_blackout_defers_start():
    plan = FaultPlan((FaultEvent("broadcast_outage", 0.0,
                                 duration_s=40.0),), name="blackout")
    report = make_system(plan=plan).run_job(make_job(), target_size=1_000)
    assert report.start_time == pytest.approx(40.0)
    assert report.submit_time == 0.0
    # The deferral is part of the submission's makespan.
    assert report.makespan_s == pytest.approx(
        report.finish_time - report.submit_time)


def test_churn_storm_stretches_makespan_and_costs_availability():
    clean = make_system(seed=5).run_job(make_job(), target_size=1_000)
    storm_at = clean.makespan_s / 3.0
    plan = FaultPlan((FaultEvent("churn_storm", storm_at,
                                 duration_s=clean.makespan_s / 4.0,
                                 magnitude=0.4),), name="storm")
    stormy = make_system(seed=5, plan=plan).run_job(
        make_job(), target_size=1_000)
    assert stormy.makespan_s > clean.makespan_s
    assert stormy.availability < clean.availability


def test_controller_crash_zeroes_availability_window():
    clean = make_system(seed=5).run_job(make_job(), target_size=1_000)
    plan = FaultPlan((FaultEvent("controller_crash", clean.makespan_s / 3,
                                 duration_s=clean.makespan_s / 4),),
                     name="crash")
    crashed = make_system(seed=5, plan=plan).run_job(
        make_job(), target_size=1_000)
    # Census reads zero for ~1/4 of the run: availability drops by
    # about that fraction, makespan is untouched (compute continues).
    assert crashed.makespan_s == pytest.approx(clean.makespan_s)
    assert crashed.availability < clean.availability - 0.15
    times = np.asarray(crashed.size_series.times)
    values = np.asarray(crashed.size_series.values)
    assert (values[(times >= clean.makespan_s / 3)
                   & (times < clean.makespan_s / 3
                      + clean.makespan_s / 4)] == 0).all()


def test_storm_after_finish_is_inert():
    clean = make_system(seed=5).run_job(make_job(), target_size=1_000)
    plan = FaultPlan((FaultEvent("churn_storm",
                                 clean.makespan_s + 1_000.0,
                                 duration_s=100.0, magnitude=0.5),),
                     name="late")
    late = make_system(seed=5, plan=plan).run_job(
        make_job(), target_size=1_000)
    assert late.makespan_s == pytest.approx(clean.makespan_s)
    assert late.availability == pytest.approx(clean.availability)


# -- census & telemetry -------------------------------------------------------

def test_census_gauges_reflect_fleet_after_run():
    system = make_system()
    report = system.run_job(make_job(), target_size=1_000)
    assert report.census["registry_size"] == report.recruited
    assert report.census["alive"] == report.recruited
    gauges = system.census.consolidate(system.now)
    assert gauges["idle"] == report.recruited  # released at finish


def test_trace_and_metrics_emitted_under_active_tracer():
    with telemetry.active(telemetry.Tracer("vector")) as tracer:
        system = make_system()
        system.run_job(make_job(), target_size=1_000)
    names = [name for _t, _cat, name, _fields in tracer.events()]
    assert "submit" in names and "recruit" in names
    assert "census_epoch" in names and "finish" in names
    assert tracer.metrics.counter("census.heartbeats").value > 0


def test_fault_counters_track_windows():
    plan = FaultPlan((FaultEvent("churn_storm", 10.0, duration_s=20.0,
                                 magnitude=0.2),), name="counted")
    with telemetry.active(telemetry.Tracer("vector")) as tracer:
        system = make_system(plan=plan)
        system.run_job(make_job(), target_size=1_000)
    assert tracer.metrics.counter("fault.injected").value == 1
    assert tracer.metrics.counter("fault.restored").value == 1


def _always_observe_epochs(census, system, recruited, outages,
                           census_outages, t_start, finish, instance):
    """The census epoch loop that re-registers every epoch's up members
    (state, instance, last-seen) before heartbeating them; the oracle
    for the loop that re-registers only after a census clear.  Returns
    every epoch's gauges."""
    census.observe(recruited, STATE_BUSY, instance, t_start)
    span = finish - t_start
    epochs = min(system.census_epochs,
                 max(1, int(span / system.heartbeat_interval_s) or 1))
    times = np.linspace(t_start, finish, epochs + 1)[1:]
    gauges = [census.consolidate(t_start)]
    for te in times:
        te = float(te)
        if any(w.start <= te < w.end for w in census_outages):
            census.clear()
            gauges.append(census.consolidate(te))
            continue
        up = np.ones(recruited.size, dtype=bool)
        for ws, we, mask, _rv in outages:
            if ws <= te < we:
                up &= ~mask
        census.observe(recruited[up], STATE_BUSY, instance, te)
        census.heartbeat(recruited[up], te)
        gauges.append(census.consolidate(te))
    return gauges


def test_census_epochs_match_always_observe_oracle(monkeypatch):
    """A controller crash inside a churn storm, overlapped by a partial
    link outage: the census clears, then self-heals while outage
    victims miss heartbeats.  Every
    epoch's gauges and the final columns match the oracle loop."""
    plan = FaultPlan((
        FaultEvent("churn_storm", 300.0, duration_s=900.0, magnitude=0.4),
        FaultEvent("link_down", 1000.0, duration_s=500.0, magnitude=0.3),
        FaultEvent("controller_crash", 500.0, duration_s=200.0)),
        name="crash-in-storm")
    system = make_system(plan=plan, census_epochs=40)
    run_epochs = VectorOddCISystem._run_census_epochs
    seen = []

    def differential(self, recruited, outages, census_outages, t_start,
                     finish, *, instance):
        oracle = copy.deepcopy(self.census)
        want = _always_observe_epochs(oracle, self, recruited, outages,
                                      census_outages, t_start, finish,
                                      instance)
        got = []
        consolidate = self.census.consolidate
        self.census.consolidate = lambda now: got.append(
            consolidate(now)) or got[-1]
        try:
            final = run_epochs(self, recruited, outages, census_outages,
                               t_start, finish, instance=instance)
        finally:
            del self.census.consolidate
        assert got == want and final == want[-1]
        for column in ("state", "seen", "instance"):
            np.testing.assert_array_equal(getattr(self.census, column),
                                          getattr(oracle, column))
        seen.append(got)
        return final

    monkeypatch.setattr(VectorOddCISystem, "_run_census_epochs",
                        differential)
    system.run_jobs([(make_job(), 1_000), (make_job(), 1_000)])
    crash = seen[0]
    cleared = [i for i, g in enumerate(crash) if g["registry_size"] == 0]
    assert cleared and cleared[-1] + 1 < len(crash)
    healed = crash[cleared[-1] + 1]
    assert 0 < healed["registry_size"] < system.reports[0].recruited


def test_storm_clean_pair_golden_at_smoke_scale():
    """Bit-exact pin of the vector floor's 10^5-node storm/clean pair
    (benchmarks/test_vector_floor.py): finish time, availability and
    tasks-per-node ceiling of both jobs.  A drift in the makespan
    bisection's probe sequence shows here first."""
    system = VectorOddCISystem(125_010, seed=1, plan=storm_plan(0.3))
    job = uniform_bag_spec(400_000, image_bits=8 * MEGABYTE,
                           ref_seconds=30.0, input_bits=4096.0,
                           result_bits=4096.0)
    got = [(r.finish_time.hex(), r.availability.hex(),
            r.tasks_per_node_max)
           for r in system.run_jobs([(job, 100_000), (job, 100_000)])]
    assert got == [("0x1.5f67fdf250bc1p+11", "0x1.c240f83cd7f9ep-1", 4),
                   ("0x1.75309d8c6d916p+12", "0x1.e978ceb3153c8p-1", 5)]
