"""Multi-job vector-tier system: persistent population, faults, census.

:class:`VectorOddCISystem` is the vector tier's peer of
:class:`~repro.core.system.OddCISystem` and its only job pipeline.
Per-task wall time is ``(s + r)/δ + p·device_factor`` (the event tier's
DVE loop timing for uniform bags), and wakeup latency is sampled from
the schedule of a carousel carrying the PNA Xlet, the config file and
the job image (:func:`carousel_schedule`).  A persistent
:class:`~repro.vector.population.VectorPopulation` accepts sequential
job submissions against one simulation clock (Provider semantics —
each job recruits from whatever the previous jobs left idle), a
:class:`~repro.vector.census.VectorCensus` tracks membership with the
event tier's grace-window liveness convention, and an installed
:class:`~repro.faults.plan.FaultPlan` is honoured by compiling it to
interval windows (:mod:`repro.faults.masks`) applied as array masks:

* recruitment blackouts defer a submission's wakeup past the window;
* compute outages remove a victim subset's capacity for the window
  (victims drawn per cohort from the ``"vector.faults"`` stream with
  the event-tier injector's ``max(1, round(f*n))`` rule);
* census outages (controller crash) zero the census — availability
  integrates the downtime exactly as
  :func:`repro.faults.availability.availability_fraction` does on
  event-tier size histories.

Everything is O(cohort) array math per sample instant; census epochs
and the availability grid are bounded (``census_epochs``,
``availability_samples``) so a 10⁷-node job costs a fixed number of
vector passes regardless of simulated duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.carousel.carousel import CarouselSchedule
from repro.carousel.dsmcc import DEFAULT_SECTION_FORMAT, SectionFormat
from repro.carousel.objects import CarouselFile
from repro.core.census import HEARTBEAT_GRACE, STATE_BUSY, STATE_IDLE
from repro.errors import AnalysisError, ConfigurationError
from repro.faults.masks import (
    CompiledFaultPlan,
    compile_fault_plan,
    deferred_start,
    storm_victims,
)
from repro.faults.availability import availability_fraction
from repro.faults.plan import FaultPlan, current_plan
from repro.net.message import bits_from_bytes
from repro.sim.monitor import TimeSeries
from repro.telemetry import trace as telemetry
from repro.vector.census import VectorCensus
from repro.vector.executor import (_CHUNK, Coded, code_rows,
                                   makespan_under_outages, victim_patterns)
from repro.vector.population import VectorPopulation
from repro.workloads.devices import REFERENCE_STB, DeviceProfile
from repro.workloads.job import Job

__all__ = ["VectorJobReport", "VectorOddCISystem", "carousel_schedule"]

PNA_XLET_BITS = bits_from_bytes(256 * 1024)
CONFIG_BITS = bits_from_bytes(4 * 1024)


def carousel_schedule(
    image_bits: float,
    beta_bps: float,
    *,
    pna_xlet_bits: float = PNA_XLET_BITS,
    config_bits: float = CONFIG_BITS,
    section_format: SectionFormat = DEFAULT_SECTION_FORMAT,
) -> CarouselSchedule:
    """Schedule of the wakeup carousel (PNA Xlet, config file, job
    image) while it stages an image of ``image_bits``."""
    files = [
        CarouselFile(name="pna.bin", size_bits=float(pna_xlet_bits)),
        CarouselFile(name="oddci.config", size_bits=float(config_bits)),
        CarouselFile(name="image", size_bits=float(image_bits)),
    ]
    return CarouselSchedule(files, float(beta_bps),
                            section_format=section_format)


def _pairwise(leaf, lo: int, m: int):
    """Leaf sums over ``[lo, lo + m)``, added in numpy's pairwise order."""
    if m <= _CHUNK:
        return leaf(lo, m)
    half = m // 2 - (m // 2) % 8
    return _pairwise(leaf, lo, half) + _pairwise(leaf, lo + half, m - half)


def wakeup(sched: CarouselSchedule, draw: np.random.Generator,
           cohort: int, t_start: float) -> Tuple[Coded, float]:
    """Ready instants (coded: a few, the image's next start falls in
    this cycle or the next) and mean wait of ``cohort`` image reads from
    ``sched`` at ``draw.uniform(0, cycle)`` phases after ``t_start``;
    one leaf buffer each, the mean is numpy's bit for bit."""
    codes, index = np.empty(cohort, dtype=np.uint8), {}
    buf, vals = np.empty((2, min(cohort, _CHUNK)))

    def leaf(lo: int, m: int):
        nonlocal codes
        phases = draw.random(out=buf[:m])
        phases *= sched.cycle_time  # == uniform(0, cycle): 0.0 + c*u
        out = sched.completion_time("image", phases, out=vals[:m])
        out += t_start
        codes = code_rows(out, codes, lo, index)
        return np.add.reduce(np.subtract(out, phases, out=phases))

    mean = float(_pairwise(leaf, 0, cohort) / cohort - t_start)
    return Coded(np.array(list(index)), codes), mean


def _mean(x, size: int) -> float:
    """The mean of ``size`` rows of ``x`` (a float for all of them, or a
    :class:`Coded` column), as numpy's ``.mean()`` of the rows."""
    if not isinstance(x, Coded):
        return float(np.broadcast_to(x, size).mean())
    return float(_pairwise(lambda lo, m: np.add.reduce(
        x.values[x.codes[lo:lo + m]]), 0, size) / size)


@dataclass(frozen=True)
class VectorJobReport:
    """Outcome of one submission against a persistent vector system.

    Recruitment, wakeup, makespan and efficiency of the job, with
    absolute submit/start/finish times on the system clock, the
    availability fraction over the job window and the census gauges
    observed at the final consolidation epoch.
    """

    job_index: int
    n_tasks: int
    recruited: int
    wakeup_mean_s: float
    makespan_s: float
    efficiency: float
    tasks_per_node_max: int
    submit_time: float
    start_time: float
    finish_time: float
    availability: float
    census: Dict[str, int]
    #: Step-function instance size over the job window (the vector
    #: pendant of the Controller's ``size_history`` series) — lets
    #: callers re-integrate availability over a window of their choice.
    size_series: Optional[TimeSeries] = field(
        default=None, compare=False, repr=False)


class VectorOddCISystem:
    """Persistent-population OddCI system on the vector tier.

    Parameters
    ----------
    n:
        Population size (ignored when ``population`` is given).
    population:
        An existing :class:`VectorPopulation` to adopt; otherwise one is
        built from ``n``/``seed`` and the fraction parameters.
    seed:
        Master seed for the named ``vector.*`` streams.
    beta_bps / delta_bps:
        Broadcast capacity β and per-node direct-channel capacity δ.
    plan:
        Fault plan to honour; defaults to the ambient installed plan
        (:func:`repro.faults.plan.current_plan`), matching how event-tier
        systems pick up faults inside ``with active_plan(...)``.
    heartbeat_interval_s:
        Liveness convention — a node is alive when seen within
        ``HEARTBEAT_GRACE * heartbeat_interval_s``, as on the event
        tier's Controller.
    census_epochs / availability_samples:
        Sampling budgets: at most this many consolidation rounds /
        availability-grid quantile points per job, keeping per-job cost
        a fixed number of array passes at any simulated duration.
    """

    def __init__(
        self,
        n: Optional[int] = None,
        *,
        population: Optional[VectorPopulation] = None,
        seed: int = 0,
        in_use_fraction: float = 1.0,
        powered_fraction: float = 1.0,
        requirement_match_fraction: float = 1.0,
        profile: DeviceProfile = REFERENCE_STB,
        beta_bps: float = 1_000_000.0,
        delta_bps: float = 150_000.0,
        pna_xlet_bits: float = PNA_XLET_BITS,
        config_bits: float = CONFIG_BITS,
        section_format: Optional[SectionFormat] = None,
        heartbeat_interval_s: float = 30.0,
        census_epochs: int = 12,
        availability_samples: int = 128,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        if beta_bps <= 0 or delta_bps <= 0:
            raise ConfigurationError("channel rates must be > 0")
        if population is None:
            if n is None:
                raise ConfigurationError("pass n or an existing population")
            population = VectorPopulation(
                n, seed=seed,
                in_use_fraction=in_use_fraction,
                powered_fraction=powered_fraction,
                requirement_match_fraction=requirement_match_fraction,
                profile=profile)
        self.population = population
        if heartbeat_interval_s <= 0:
            raise ConfigurationError("heartbeat_interval_s must be > 0")
        if census_epochs < 1 or availability_samples < 2:
            raise ConfigurationError("sampling budgets are too small")
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.census_epochs = int(census_epochs)
        self.availability_samples = int(availability_samples)
        self.beta_bps = float(beta_bps)
        self.delta_bps = float(delta_bps)
        self.pna_xlet_bits = float(pna_xlet_bits)
        self.config_bits = float(config_bits)
        self.section_format = section_format or DEFAULT_SECTION_FORMAT
        self.census = VectorCensus(
            population.n,
            grace_s=HEARTBEAT_GRACE * self.heartbeat_interval_s)
        active = plan if plan is not None else current_plan()
        if active is not None and not active.events:
            active = None
        self.plan: Optional[FaultPlan] = active
        self.compiled: CompiledFaultPlan = compile_fault_plan(
            active, population.streams["faults"]
        ) if active is not None else CompiledFaultPlan((), name="")
        self.now = 0.0
        self.reports: List[VectorJobReport] = []
        self._trace = telemetry.channel("vector")
        metrics = telemetry.metrics_registry()
        if metrics is None:
            self._m_injected = self._m_restored = None
        else:
            self._m_injected = metrics.counter("fault.injected")
            self._m_restored = metrics.counter("fault.restored")

    # -- submission --------------------------------------------------------
    def run_job(self, job: Job, target_size: int) -> VectorJobReport:
        """Submit ``job`` at the current clock and run it to completion.

        ``job`` is anything quacking like a uniform bag (a real
        :class:`~repro.workloads.job.Job`, or a constant-space
        :class:`~repro.workloads.bot.BagSpec` at 10⁷+ scale — only
        ``n``, ``image_bits`` and ``stats()`` are read).  Advances
        :attr:`now` to the job's finish time; the recruited nodes
        return to the idle pool afterwards (Provider semantics for
        sequential submissions)."""
        if target_size <= 0:
            raise ConfigurationError("target_size must be > 0")
        pop = self.population
        t_submit = self.now
        t = self._trace
        if t is not None:
            t.emit(t_submit, "submit", job_index=len(self.reports),
                   n_tasks=job.n, target_size=int(target_size))

        # Recruitment: blackouts defer the broadcast, then the gate runs
        # against the exact idle census (the estimator's best case).
        blackouts = self.compiled.recruitment_blackouts()
        t_start = deferred_start(t_submit, blackouts)
        idle = pop.idle_count
        if idle == 0:
            raise AnalysisError("no idle nodes to recruit")
        probability = min(1.0, target_size / idle)
        accepted = pop.recruit(probability)
        cohort = int(np.count_nonzero(accepted))
        if cohort == 0:
            raise AnalysisError(
                "recruitment yielded zero nodes (population too small?)")
        if t is not None:
            t.emit(t_start, "recruit", recruited=cohort,
                   probability=probability, deferred_s=t_start - t_submit)

        # Compute outages: victims per window from the faults stream
        # (injector count rule), drawn before the wakeup codes exist;
        # the census and the executor share their victim patterns.
        outages = self._applicable_outages(cohort, t_start)
        patterns = victim_patterns([m for _s, _e, m in outages], cohort)

        # Wakeup: every recruited node reads the image from the carousel
        # at a uniformly random phase (wakeup stream).
        sched = carousel_schedule(
            job.image_bits, self.beta_bps,
            pna_xlet_bits=self.pna_xlet_bits, config_bits=self.config_bits,
            section_format=self.section_format)
        ready, wakeup_mean = wakeup(sched, pop.streams["wakeup"], cohort,
                                    t_start)

        # One device class is one factor; mixed classes, a class code.
        stats = job.stats()
        factors = pop.device_factors(accepted)
        factor_mean = _mean(factors, cohort)
        coded = isinstance(factors, Coded)
        d = (stats.mean_io_bits / self.delta_bps
             + stats.mean_ref_seconds * (factors.values if coded else factors))
        d = factors._replace(values=d) if coded else d
        del factors
        outcome = makespan_under_outages(ready, job.n, d, outages,
                                         patterns=patterns)
        del ready, d  # the executor's groups hold what is read later
        finish = outcome.finish_time
        makespan = finish - t_submit
        ideal = job.n * stats.mean_ref_seconds * factor_mean / cohort
        efficiency = min(1.0, ideal / makespan) if makespan > 0 else 0.0

        census_outages = [
            w for w in self.compiled.census_outages()
            if w.overlaps(t_submit, finish)]
        self._count_fault_windows(outages, census_outages, t_start, finish)
        gauges = self._run_census_epochs(
            accepted, patterns, outages, census_outages, t_start, finish,
            instance=len(self.reports))
        series = self._size_series(
            outcome.groups, census_outages, t_submit, t_start, finish)
        availability = float(availability_fraction(
            series, int(target_size), size_tolerance=0.1,
            start=t_submit, until=finish))

        pop.release(accepted)
        self.census.observe(accepted, STATE_IDLE, -1, finish)
        self.now = finish
        report = VectorJobReport(
            job_index=len(self.reports),
            n_tasks=job.n,
            recruited=cohort,
            wakeup_mean_s=wakeup_mean,
            makespan_s=makespan,
            efficiency=efficiency,
            tasks_per_node_max=outcome.tasks_per_node_max,
            submit_time=t_submit,
            start_time=t_start,
            finish_time=finish,
            availability=availability,
            census=gauges,
            size_series=series,
        )
        self.reports.append(report)
        if t is not None:
            t.emit(finish, "finish", job_index=report.job_index,
                   makespan_s=makespan, efficiency=efficiency,
                   availability=availability)
        return report

    # -- fault application -------------------------------------------------
    def _applicable_outages(self, cohort: int, t_start: float):
        """Compute-outage windows that can still affect a job starting
        at ``t_start``: ``(start, end, mask)``, each mask naming at
        least one victim of the cohort."""
        faults_rng = self.population.streams["faults"]
        return [(max(w.start, t_start), w.end,
                 storm_victims(faults_rng, cohort, w.fraction))
                for w in self.compiled.compute_outages() if w.end > t_start]

    def _count_fault_windows(self, outages, census_outages,
                             t_start: float, finish: float) -> None:
        if self._m_injected is None:
            return
        windows = [(ws, we) for ws, we, _m in outages]
        windows += [(max(w.start, t_start), w.end) for w in census_outages]
        for ws, we in windows:
            if ws < finish:
                self._m_injected.value += 1
                if math.isfinite(we) and we <= finish:
                    self._m_restored.value += 1

    # -- census ------------------------------------------------------------
    def _run_census_epochs(self, accepted: np.ndarray, patterns,
                           outages, census_outages, t_start: float,
                           finish: float, *, instance: int) -> Dict[str, int]:
        """Bounded consolidation rounds over the job window.

        The cohort registers at ``t_start``, grouped by victim pattern;
        each epoch heartbeats the groups that are up at that instant
        (compute-outage victims miss their heartbeats, exactly like
        crashed PNAs) and consolidates; a controller-crash window clears
        the census and the next epoch self-heals it from the fleet."""
        census = self.census
        census.observe(accepted, STATE_BUSY, instance, t_start,
                       patterns=patterns)
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
            census.heartbeat([w for w, (ws, we, _m) in enumerate(outages)
                              if ws <= te < we], te)
            gauges = census.consolidate(te)
            if t is not None:
                t.emit(te, "census_epoch", **gauges)
        return gauges

    # -- availability ------------------------------------------------------
    def _size_series(self, groups, census_outages, t_submit: float,
                     t_start: float, finish: float) -> TimeSeries:
        """Step-function instance size on a bounded grid.

        Size at *t* = nodes ready by *t* minus the ready victims of each
        active compute-outage window (overlaps subtract twice — a
        conservative, never-optimistic size), zero during census
        outages, counted over the executor's distinct rows.  Grid =
        ready-time quantiles + window edges + job boundaries, so the
        series has O(availability_samples) points at any cohort size."""
        ready, _d, windows, weight = groups
        order = np.argsort(ready)
        ready = ready[order]
        weight = (np.ones(ready.size) if weight is None else weight)[order]
        # Column i: rows among the first i, all and each window's victims
        held = np.pad(np.cumsum(
            [weight] + [weight * m[order] for _s, _e, m in windows],
            axis=1), ((0, 0), (1, 0)))

        def size_at(t: float) -> float:
            for w in census_outages:
                if w.start <= t < w.end:
                    return 0.0
            by = held[:, np.searchsorted(ready, t, side="right")].tolist()
            size = by[0] - sum(by[1 + w] for w, (ws, we, _m)
                               in enumerate(windows) if ws <= t < we)
            return float(max(0, size))

        grid = {t_submit, t_start, finish}
        step = max(1, int(held[0, -1]) // self.availability_samples)
        grid.update(ready[np.searchsorted(held[0, 1:], np.arange(
            0, held[0, -1], step), side="right")].tolist())
        grid.add(float(ready[-1]))
        for ws, we, _mask in windows:
            grid.add(ws)
            if math.isfinite(we):
                grid.add(we)
        for w in census_outages:
            grid.add(max(w.start, t_submit))
            if math.isfinite(w.end):
                grid.add(w.end)
        series = TimeSeries("vector_instance_size")
        for t in sorted(g for g in grid if t_submit <= g <= finish):
            series.record(t, size_at(t))
        return series
