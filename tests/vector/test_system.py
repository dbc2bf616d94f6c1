"""VectorOddCISystem: multi-job submissions, faults, census, telemetry."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.census import (
    STATE_BUSY,
    STATE_IDLE,
    STATE_NONE,
    _NEVER,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.experiments.vector_scale import storm_plan
from repro.faults import FaultEvent, FaultPlan, active_plan
from repro.faults.masks import FaultWindow
from repro.net.message import MEGABYTE
from repro.sim.monitor import TimeSeries
from repro.telemetry import trace as telemetry
from repro.vector import VectorCensus, VectorOddCISystem, VectorPopulation
from repro.vector.executor import makespan_under_outages, victim_patterns
from repro.workloads import BagSpec, uniform_bag, uniform_bag_spec


_NO_INSTANCE = -1


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


def registry_reductions(state, seen, *, horizon):
    """Census gauge values from raw state/seen columns, in one pass:
    ``registry_size`` counts every row ever heard from, ``alive`` the
    rows seen at or after ``horizon`` (untouched rows sit at ``-inf``
    and fail any finite horizon), and ``idle`` the alive rows reporting
    IDLE — :meth:`ColumnarCensusStore.registry_size` /
    :meth:`~ColumnarCensusStore.alive_estimate` /
    :meth:`~ColumnarCensusStore.idle_estimate` on the same columns.
    The column census below reduces its columns with it."""
    state = np.asarray(state)
    seen = np.asarray(seen)
    alive = seen >= horizon
    return {
        "registry_size": int(np.count_nonzero(state != STATE_NONE)),
        "idle": int(np.count_nonzero(alive & (state == STATE_IDLE))),
        "alive": int(np.count_nonzero(alive)),
    }


class _ColumnCensus:
    """The census as it was before cohorts were held as groups, kept
    verbatim (bar two methods nothing called) as the oracle of
    :class:`~repro.vector.census.VectorCensus`: every write goes to the
    state / last-seen / instance columns, every gauge is a full-column
    reduction."""

    def __init__(self, n: int, *, grace_s: float) -> None:
        if n <= 0:
            raise ConfigurationError(f"n must be > 0, got {n}")
        if grace_s <= 0:
            raise ConfigurationError(f"grace_s must be > 0, got {grace_s}")
        self.n = int(n)
        self.grace_s = float(grace_s)
        self.state = np.full(self.n, STATE_NONE, dtype=np.int8)
        self.seen = np.full(self.n, _NEVER, dtype=float)
        self.instance = np.full(self.n, _NO_INSTANCE, dtype=np.int64)
        self.gauges = {"registry_size": 0, "idle": 0, "alive": 0}
        metrics = telemetry.metrics_registry()
        if metrics is None:
            self._m_heartbeats = None
            self._m_registry = self._m_idle = self._m_alive = None
        else:
            self._m_heartbeats = metrics.counter("census.heartbeats")
            self._m_registry = metrics.gauge("census.registry_size")
            self._m_idle = metrics.gauge("census.idle")
            self._m_alive = metrics.gauge("census.alive")

    def observe(self, indices, state, instance, now):
        if state not in (STATE_NONE, STATE_IDLE, STATE_BUSY):
            raise ConfigurationError(f"unknown census state {state}")
        self.state[indices] = state
        self.seen[indices] = now
        self.instance[indices] = (
            instance if state == STATE_BUSY else _NO_INSTANCE)

    def heartbeat(self, indices, now):
        self.seen[indices] = now
        m = self._m_heartbeats
        if m is not None:
            m.value += int(np.size(indices))

    def clear(self):
        self.state[:] = STATE_NONE
        self.seen[:] = _NEVER
        self.instance[:] = _NO_INSTANCE

    def consolidate(self, now):
        out = registry_reductions(self.state, self.seen,
                                  horizon=now - self.grace_s)
        self.gauges = out
        if self._m_registry is not None:
            self._m_registry.set(out["registry_size"])
            self._m_idle.set(out["idle"])
            self._m_alive.set(out["alive"])
        return out


def _validate_columns(census):
    """The census columns' shape, dtype and cross-column invariants."""
    n = census.n
    assert census.state.shape == (n,) and census.state.dtype == np.int8
    assert census.seen.shape == (n,) and census.seen.dtype == np.float64
    assert census.instance.shape == (n,) \
        and census.instance.dtype == np.int64
    absent = census.state == STATE_NONE
    assert (census.seen[absent] == _NEVER).all(), \
        "absent nodes must read never-seen"
    assert (census.instance[census.state != STATE_BUSY]
            == _NO_INSTANCE).all(), "only busy nodes carry an instance id"


class _OracleSystem(VectorOddCISystem):
    """The system on the column census, with the epoch loop that
    re-registers every epoch's up members (the recruit mask's rows)
    before heartbeating them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.census = _ColumnCensus(self.population.n,
                                    grace_s=self.census.grace_s)

    def _run_census_epochs(self, accepted, patterns, outages,
                           census_outages, t_start, finish, *, instance):
        census = self.census
        recruited = np.flatnonzero(accepted)
        census.observe(recruited, STATE_BUSY, instance, t_start)
        epochs = min(self.census_epochs, max(1, int(
            (finish - t_start) / self.heartbeat_interval_s)))
        t = self._trace
        gauges = census.consolidate(t_start)
        for te in np.linspace(t_start, finish, epochs + 1)[1:]:
            te = float(te)
            if any(w.start <= te < w.end for w in census_outages):
                census.clear()
                gauges = census.consolidate(te)
                if t is not None:
                    t.emit(te, "census_outage", **gauges)
                continue
            up = np.ones(recruited.size, dtype=bool)
            for ws, we, mask in outages:
                if ws <= te < we:
                    up &= ~mask
            census.observe(recruited[up], STATE_BUSY, instance, te)
            census.heartbeat(recruited[up], te)
            gauges = census.consolidate(te)
            if t is not None:
                t.emit(te, "census_epoch", **gauges)
        return gauges


def _storm_job():
    return uniform_bag_spec(400_000, image_bits=8 * MEGABYTE,
                            ref_seconds=30.0, input_bits=4096.0,
                            result_bits=4096.0)


_STORM = FaultEvent("churn_storm", 1000.0, duration_s=800.0, magnitude=0.4)
#: name -> (nodes, plan events, census_epochs, job, target size); the
#: 2,000-node cases' first job runs for about 3,100 s
_CENSUS_CASES = {
    # vector_storm's storm at 10^5 nodes, two jobs on one population
    "storm": (125_010, storm_plan(0.3).events, 12, _storm_job, 100_000),
    "one-epoch": (125_010, storm_plan(0.3).events, 1, _storm_job, 100_000),
    # three overlapping windows (up to 8 victim patterns) and a crash
    # inside all three
    "overlap": (2_000, (
        FaultEvent("churn_storm", 400.0, duration_s=1000.0, magnitude=0.3),
        FaultEvent("link_down", 700.0, duration_s=1000.0, magnitude=0.4),
        FaultEvent("churn_storm", 1000.0, duration_s=1000.0, magnitude=0.5,
                   target="east"),
        FaultEvent("controller_crash", 1100.0, duration_s=200.0)),
        40, make_job, 1_000),
    # 12 whole-fleet flap windows, then a partial storm
    "link-flap": (2_000, (
        FaultEvent("link_flap", 200.0, duration_s=60.0, magnitude=12),
        _STORM), 40, make_job, 1_000),
    "crash-before": (2_000, (
        FaultEvent("controller_crash", 300.0, duration_s=200.0), _STORM),
        40, make_job, 1_000),
    "crash-inside": (2_000, (
        FaultEvent("controller_crash", 1200.0, duration_s=200.0), _STORM),
        40, make_job, 1_000),
    # ... and again in the second job, which runs from about 3,160 s
    # while the first job's cohort is outside it
    "crash-after": (2_000, (
        _STORM, FaultEvent("controller_crash", 2000.0, duration_s=200.0),
        FaultEvent("controller_crash", 4000.0, duration_s=200.0)),
        40, make_job, 1_000),
}


def _census_run(cls, case, *, read_columns):
    """Two jobs of ``case`` on ``cls``: every consolidation's
    ``(now, gauges)``, the trace, the metrics, the columns after each
    job's epochs (when ``read_columns``) and after the run, and each
    job's victim pattern count."""
    nodes, events, epochs, job, target = _CENSUS_CASES[case]
    log = {"gauges": [], "columns": [], "patterns": []}
    run_epochs = cls._run_census_epochs

    def epochs_then_read(self, accepted, patterns, outages, *args, **kwargs):
        log["patterns"].append(patterns[1].size)
        out = run_epochs(self, accepted, patterns, outages, *args, **kwargs)
        if read_columns:
            log["columns"].append(_columns(self.census))
        return out

    with telemetry.active(telemetry.Tracer("vector")) as tracer:
        system = cls(nodes, seed=0, plan=FaultPlan(events, name=case),
                     census_epochs=epochs)
        consolidate = system.census.consolidate
        system.census.consolidate = lambda now: log["gauges"].append(
            (now, consolidate(now))) or log["gauges"][-1][1]
        system._run_census_epochs = epochs_then_read.__get__(system)
        for _ in range(2):
            system.run_job(job(), target)
    log["columns"].append(_columns(system.census))
    log["events"] = tracer.events()
    log["metrics"] = tracer.metrics.snapshot()
    log["census"] = system.census
    return log


def _mask(n, rows):
    """The boolean row mask of ``rows`` over ``n`` rows."""
    mask = np.zeros(n, dtype=bool)
    mask[rows] = True
    return mask


def _columns(census):
    return tuple(getattr(census, c).copy()
                 for c in ("state", "seen", "instance"))


def test_census_epochs_match_always_observe_oracle():
    """The grouped census against the column census and the
    always-observe epoch loop: every consolidation's gauges, the trace
    (each ``census_epoch`` / ``census_outage`` record's fields), the
    ``census.*`` metrics and the state / last-seen / instance columns —
    after each job's epochs when read then, and after the run —
    match exactly, whether or not the columns are read mid-run (a read
    writes nothing)."""
    for case, read_columns in itertools.product(_CENSUS_CASES,
                                                (False, True)):
        want = _census_run(_OracleSystem, case, read_columns=read_columns)
        got = _census_run(VectorOddCISystem, case,
                          read_columns=read_columns)
        assert got["gauges"] == want["gauges"], case
        assert got["events"] == want["events"], case
        assert got["metrics"] == want["metrics"], case
        assert len(got["columns"]) == len(want["columns"])
        for got_cols, want_cols in zip(got["columns"], want["columns"]):
            for g, w in zip(got_cols, want_cols):
                np.testing.assert_array_equal(g, w, err_msg=case)
        _validate_columns(got["census"])
        names = [name for _t, _c, name, _f in got["events"]]
        # Every case exercises what it is named for.
        if case.startswith("crash") or case == "overlap":
            assert "census_outage" in names, case
            healed = [g for _t, g in got["gauges"]]
            cleared = [i for i, g in enumerate(healed)
                       if g["registry_size"] == 0]
            assert cleared and cleared[-1] + 1 < len(healed), case
        if case == "overlap":
            assert got["patterns"][0] >= 4
        if case == "link-flap":
            assert got["patterns"][0] >= 2
        if case == "one-epoch":
            assert names.count("census_epoch") == 2


class _Lockstep:
    """The grouped census and the column census driven through the same
    calls.  The grouped census takes each row set as a boolean row mask,
    the column census as indices.  A heartbeat of the grouped census
    re-registers its up groups, so the column census observes and
    heartbeats the up rows."""

    def __init__(self, n):
        self.n = n
        with telemetry.active(telemetry.Tracer("vector")) as self.new_tracer:
            self.new = VectorCensus(n, grace_s=90.0)
        with telemetry.active(telemetry.Tracer("vector")) as self.old_tracer:
            self.old = _ColumnCensus(n, grace_s=90.0)
        self.cohort = None
        self.absent_seen = False

    def open(self, rows, masks, instance, now):
        opened = _mask(self.n, rows)
        self.new.observe(opened, STATE_BUSY, instance, now,
                         patterns=victim_patterns(masks, rows.size))
        self.old.observe(rows, STATE_BUSY, instance, now)
        self.cohort = (rows, masks, instance, opened)

    def beat(self, down, now):
        rows, masks, instance, _opened = self.cohort
        up = np.ones(rows.size, dtype=bool)
        for w in down:
            up &= ~masks[w]
        self.new.heartbeat(down, now)
        self.old.observe(rows[up], STATE_BUSY, instance, now)
        self.old.heartbeat(rows[up], now)

    def clear(self):
        self.new.clear()
        self.old.clear()

    def close(self, now):
        self.new.observe(self.cohort[3], STATE_IDLE, -1, now)
        self.old.observe(self.cohort[0], STATE_IDLE, -1, now)
        self.cohort = None

    def observe(self, rows, state, now):
        self.new.observe(_mask(self.n, rows), state, -1, now)
        self.old.observe(rows, state, -1, now)
        self.cohort = None
        # observing NONE leaves a last-seen instant on absent rows
        self.absent_seen = self.absent_seen or state == STATE_NONE

    def read(self):
        for g, w in zip(_columns(self.new), _columns(self.old)):
            np.testing.assert_array_equal(g, w)

    def consolidate(self, at):
        assert self.new.consolidate(at) == self.old.consolidate(at)

    def finish(self):
        self.read()
        if not self.absent_seen:
            _validate_columns(self.new)
        assert self.new_tracer.metrics.snapshot() \
            == self.old_tracer.metrics.snapshot()


def _draw_rows(data, n, min_size=0):
    return np.array(sorted(data.draw(st.sets(
        st.integers(0, n - 1), min_size=min_size))), dtype=np.int64)


def _draw_cohort(data, n):
    """Cohort rows, 0-3 victim masks over them and an instance id."""
    rows = _draw_rows(data, n, min_size=1)
    masks = [np.array(data.draw(st.lists(
        st.booleans(), min_size=rows.size, max_size=rows.size)))
        for _ in range(data.draw(st.integers(0, 3)))]
    return rows, masks, data.draw(st.integers(0, 3))


def _draw_down(data, masks):
    return sorted(data.draw(st.sets(
        st.integers(0, len(masks) - 1)))) if masks else []


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_census_lockstep_with_column_census(data):
    """Any sequence of census calls — cohorts opened over drawn rows and
    victim masks, heartbeats with drawn windows down, clears, closing
    and other observes, column reads, consolidations at any instant —
    leaves the grouped census and the column census with the same
    gauges, heartbeat count and columns."""
    n = data.draw(st.integers(min_value=1, max_value=40), label="n")
    both = _Lockstep(n)
    now = 0.0
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        now += data.draw(st.sampled_from([0.0, 30.0, 100.0]))
        op = data.draw(st.sampled_from(
            ["open", "beat", "beat", "clear", "close", "observe", "read",
             "consolidate"]))
        if op == "open":
            both.open(*_draw_cohort(data, n), now)
        elif op == "beat" and both.cohort is not None:
            both.beat(_draw_down(data, both.cohort[1]), now)
        elif op == "clear":
            both.clear()
        elif op == "close" and both.cohort is not None:
            both.close(now)
        elif op == "observe":
            rows = _draw_rows(data, n)
            both.observe(rows, data.draw(st.sampled_from(
                [STATE_NONE, STATE_IDLE])), now)
        elif op == "read":
            both.read()
        both.consolidate(now - data.draw(st.sampled_from([0.0, 60.0, 250.0])))
    both.finish()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_census_lockstep_over_job_cycles(data):
    """Job after job on one census, as a system runs them: each cycle
    opens a cohort, runs heartbeat epochs (with clears, reads and
    consolidations among them) and closes it, and between cycles other
    rows may be observed.  The codes earlier cycles left are counted on
    each opening and reused on each close, so a census of at most 40
    rows keeps its one-byte column; the two censuses agree throughout."""
    n = data.draw(st.integers(min_value=1, max_value=40), label="n")
    both = _Lockstep(n)
    now = 0.0
    for _ in range(data.draw(st.integers(min_value=2, max_value=8))):
        if data.draw(st.booleans()):
            both.observe(_draw_rows(data, n), STATE_IDLE, now)
        now += 30.0
        both.open(*_draw_cohort(data, n), now)
        both.consolidate(now)
        for _ in range(data.draw(st.integers(0, 5))):
            now += data.draw(st.sampled_from([30.0, 100.0]))
            op = data.draw(st.sampled_from(["beat", "beat", "clear", "read"]))
            if op == "beat":
                both.beat(_draw_down(data, both.cohort[1]), now)
            elif op == "clear":
                both.clear()
            else:
                both.read()
            both.consolidate(now - data.draw(st.sampled_from([0.0, 250.0])))
        now += 30.0
        both.close(now)
        both.consolidate(now)
    both.finish()
    assert both.new._code.dtype == np.uint8


def test_column_read_leaves_census_unchanged():
    """Reading the columns while a cohort is open writes nothing: the
    gauges, the epoch table and the code column stay as they were, and
    the columns it hands out are read-only."""
    n = 1_000
    census = VectorCensus(n, grace_s=90.0)
    census.observe(np.arange(n) % 3 == 0, STATE_IDLE, -1, 10.0)
    opened = np.arange(n) % 2 == 0
    cohort = int(opened.sum())
    census.observe(opened, STATE_BUSY, 4, 40.0, patterns=victim_patterns(
        [np.arange(cohort) % 5 == 0], cohort))
    census.heartbeat([0], 70.0)
    gauges = census.consolidate(150.0)

    def table():
        return [a.copy() for a in (
            census._code, census._states, census._seens, census._instances,
            census._count, census._cohort.outside)]

    before = table()
    for column in (census.state, census.seen, census.instance):
        assert not column.flags.writeable
    assert (census.state[opened] == STATE_BUSY).all()
    assert (census.instance[opened] == 4).all()
    assert census.gauges == gauges
    for was, now in zip(before, table()):
        np.testing.assert_array_equal(was, now)
    assert census.consolidate(150.0) == gauges


def test_repeated_job_cycles_reuse_codes():
    """300 open/heartbeat/close cycles over drawn cohorts of a 50-row
    census (and an observe of other rows every third cycle) keep the
    column one byte per row and the table at 256 codes: a code whose
    rows are all overwritten is free again.  The column census agrees
    throughout."""
    n = 50
    rng = np.random.default_rng(7)
    both = _Lockstep(n)
    now = 0.0
    for cycle in range(300):
        if cycle % 3 == 0:
            both.observe(np.flatnonzero(rng.random(n) < 0.2), STATE_IDLE, now)
        rows = np.flatnonzero(rng.random(n) < 0.6)
        now += 30.0
        both.open(rows, [rng.random(rows.size) < 0.3], 0, now)
        now += 30.0
        both.beat([0] if cycle % 2 else [], now)
        both.consolidate(now)
        now += 30.0
        both.close(now)
        both.consolidate(now)
        assert np.count_nonzero(both.new._count) <= n + 1
    both.finish()
    assert both.new._code.dtype == np.uint8
    assert both.new._count.size == 256


def test_256th_live_code_widens_the_column():
    """255 rows observed one at a time hold codes 1-255 (code 0 still
    holds the rows never seen), which fill the one-byte column; the
    256th live code widens it to two bytes and the table to 512 codes,
    and the census keeps agreeing with the column census through a job
    cycle and a clear after that."""
    n = 300
    both = _Lockstep(n)
    for row in range(255):
        both.observe(np.array([row]), STATE_IDLE, float(row))
    assert both.new._code.dtype == np.uint8
    assert np.count_nonzero(both.new._count) == 256
    both.observe(np.array([255]), STATE_IDLE, 255.0)
    assert both.new._code.dtype == np.uint16
    assert both.new._count.size == 512
    both.read()
    for at in (0.0, 200.0, 300.0):
        both.consolidate(at)
    rows = np.arange(100, 280)
    both.open(rows, [np.arange(rows.size) % 4 == 0], 2, 400.0)
    both.beat([0], 430.0)
    both.read()
    both.consolidate(440.0)
    both.close(460.0)
    both.consolidate(460.0)
    both.clear()
    both.consolidate(500.0)
    both.finish()


def test_fresh_and_cleared_census_read_never_seen():
    """Every row of a fresh census, and of one after a clear, reads
    never-seen; a cohort opened on a fresh census counts no row
    outside it."""
    assert (VectorCensus(50, grace_s=90.0).seen == _NEVER).all()
    census = VectorCensus(50, grace_s=90.0)
    census.observe(np.arange(50) < 20, STATE_BUSY, 0, 10.0)
    assert census.consolidate(10.0) == {
        "registry_size": 20, "idle": 0, "alive": 20}
    assert (census.seen[:20] == 10.0).all()
    assert (census.seen[20:] == _NEVER).all()
    census.clear()
    assert census.seen.shape == (50,) and (census.seen == _NEVER).all()


# -- availability series over the executor's distinct rows -------------------
# The size series as it stood before it read the executor's groups: every
# row's ready time sorted, each window's victims sorted, and a binary search
# of both per grid instant.  Kept (bar the names) as the oracle.

def _row_size_series(samples, ready, outages, census_outages,
                     t_submit, t_start, finish):
    ready_sorted = np.sort(ready)
    victims = [(ws, we, np.sort(ready[mask])) for ws, we, mask in outages]

    def size_at(t):
        for w in census_outages:
            if w.start <= t < w.end:
                return 0.0
        size = int(np.searchsorted(ready_sorted, t, side="right"))
        for ws, we, ready_victims in victims:
            if ws <= t < we:
                size -= int(np.searchsorted(ready_victims, t, side="right"))
        return float(max(0, size))

    grid = {t_submit, t_start, finish}
    step = max(1, ready_sorted.size // samples)
    grid.update(float(x) for x in ready_sorted[::step])
    grid.add(float(ready_sorted[-1]))
    for ws, we, _mask in outages:
        grid.add(ws)
        if np.isfinite(we):
            grid.add(we)
    for w in census_outages:
        grid.add(max(w.start, t_submit))
        if np.isfinite(w.end):
            grid.add(w.end)
    series = TimeSeries("vector_instance_size")
    for t in sorted(g for g in grid if t_submit <= g <= finish):
        series.record(t, size_at(t))
    return series


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_size_series_over_groups_matches_rows(data):
    """The size series read off the executor's distinct rows (grouped or
    not: tied or distinct ready times, one or two task durations,
    overlapping and permanent compute outages, census outages, a sparse
    or dense grid) is the row-by-row series, time for time."""
    n = data.draw(st.sampled_from([1, 6, 300, 9_000]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    t_start = data.draw(st.sampled_from([0.0, 40.0]))
    if data.draw(st.booleans()):  # carousel-like ties
        ready = t_start + rng.choice([61.5, 128.0, 194.5], size=n,
                                     p=[0.6, 0.39, 0.01])
    else:
        ready = t_start + rng.uniform(1.0, 200.0, size=n)
    d = (61.8 if data.draw(st.booleans())
         else rng.choice([61.8, 120.5], size=n))
    outages = []
    for _ in range(data.draw(st.integers(0, 3))):
        start = t_start + data.draw(st.floats(0.0, 600.0))
        end = (np.inf if n > 1 and data.draw(st.integers(0, 4)) == 0
               else start + data.draw(st.floats(1.0, 300.0)))
        mask = rng.random(n) < data.draw(st.floats(0.1, 0.9))
        mask[0] = True  # a victim of every window; the last row
        mask[-1] &= end < np.inf  # outlives the permanent ones
        if mask.any():  # as _applicable_outages keeps them
            outages.append((start, end, mask))
    census_outages = [FaultWindow("controller_crash", start,
                                  start + data.draw(st.floats(1.0, 200.0)))
                      for start in data.draw(st.lists(
                          st.floats(0.0, 900.0), max_size=2))]
    outcome = makespan_under_outages(ready, 4 * n, d, outages)
    samples = data.draw(st.sampled_from([2, 7, 128]))
    system = make_system(10, availability_samples=samples)
    got = system._size_series(outcome.groups, census_outages, 0.0, t_start,
                              outcome.finish_time)
    want = _row_size_series(samples, ready, outages, census_outages, 0.0,
                            t_start, outcome.finish_time)
    assert got.times.tolist() == want.times.tolist()
    assert got.values.tolist() == want.values.tolist()


def test_storm_clean_pair_golden_at_smoke_scale():
    """Bit-exact pin of the vector floor's 10^5-node storm/clean pair
    (benchmarks/test_vector_floor.py): finish time, availability,
    tasks-per-node ceiling, efficiency and mean wakeup of both jobs.  A
    drift in the makespan bisection's probe sequence shows here first;
    one in how the device factors are averaged, in the efficiency."""
    system = VectorOddCISystem(125_010, seed=1, plan=storm_plan(0.3))
    job = uniform_bag_spec(400_000, image_bits=8 * MEGABYTE,
                           ref_seconds=30.0, input_bits=4096.0,
                           result_bits=4096.0)
    got = [(r.finish_time.hex(), r.availability.hex(),
            r.tasks_per_node_max, r.efficiency.hex(), r.wakeup_mean_s.hex())
           for r in (system.run_job(job, 100_000) for _ in range(2))]
    assert got == [("0x1.5f67fdf250bc1p+11", "0x1.c240f83cd7f9ep-1", 4,
                    "0x1.c1dcf4b0bf446p-1", "0x1.9899d384cb199p+6"),
                   ("0x1.75309d8c6d916p+12", "0x1.e978ceb3153c8p-1", 5,
                    "0x1.90ddb4c83f44ep-1", "0x1.98b49e1b624e0p+6")]
