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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.carousel.carousel import CarouselSchedule
from repro.carousel.dsmcc import DEFAULT_SECTION_FORMAT, SectionFormat
from repro.carousel.objects import CarouselFile
from repro.core.census import STATE_BUSY, STATE_IDLE
from repro.errors import AnalysisError, ConfigurationError
from repro.faults.masks import (
    CompiledFaultPlan,
    FaultWindow,
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
from repro.vector.executor import makespan_under_outages
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
    heartbeat_interval_s / grace_heartbeats:
        Liveness convention — a node is alive when seen within
        ``grace_heartbeats * heartbeat_interval_s``; the event tier's
        Controller uses the same 3x default.
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
        grace_heartbeats: float = 3.0,
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
            grace_s=grace_heartbeats * self.heartbeat_interval_s)
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
        recruited = pop.recruit(probability)
        if recruited.size == 0:
            raise AnalysisError(
                "recruitment yielded zero nodes (population too small?)")
        if t is not None:
            t.emit(t_start, "recruit", recruited=int(recruited.size),
                   probability=probability, deferred_s=t_start - t_submit)

        # Wakeup: every recruited node reads the image from the carousel
        # at a uniformly random phase (wakeup stream).
        sched = carousel_schedule(
            job.image_bits, self.beta_bps,
            pna_xlet_bits=self.pna_xlet_bits, config_bits=self.config_bits,
            section_format=self.section_format)
        phases = pop.streams["wakeup"].uniform(
            0.0, sched.cycle_time, size=int(recruited.size))
        ready = t_start + np.asarray(
            sched.completion_time("image", phases), dtype=float)
        wakeup_mean = float((ready - phases).mean() - t_start)

        # Compute outages overlapping the job: draw victims per window
        # from the faults stream (event-tier injector count rule).
        outages = self._applicable_outages(recruited.size, t_start)
        stats = job.stats()
        factors = pop.device_factor[recruited]
        unique = np.unique(factors)
        if unique.size == 1:
            d = (stats.mean_io_bits / self.delta_bps
                 + stats.mean_ref_seconds * float(unique[0]))
        else:
            d = (stats.mean_io_bits / self.delta_bps
                 + stats.mean_ref_seconds * factors)
        outcome = makespan_under_outages(
            ready, job.n, d,
            [(ws, we, mask) for ws, we, mask, _rv in outages])
        finish = outcome.finish_time
        makespan = finish - t_submit
        ideal = (job.n * stats.mean_ref_seconds * float(factors.mean())
                 / recruited.size)
        efficiency = min(1.0, ideal / makespan) if makespan > 0 else 0.0

        census_outages = [
            w for w in self.compiled.census_outages()
            if w.overlaps(t_submit, finish)]
        self._count_fault_windows(outages, census_outages, t_start, finish)
        gauges = self._run_census_epochs(
            recruited, outages, census_outages, t_start, finish,
            instance=len(self.reports))
        series = self._size_series(
            ready, outages, census_outages, t_submit, t_start, finish)
        availability = float(availability_fraction(
            series, int(target_size), size_tolerance=0.1,
            start=t_submit, until=finish))

        pop.release(recruited)
        self.census.observe(recruited, STATE_IDLE, -1, finish)
        self.now = finish
        report = VectorJobReport(
            job_index=len(self.reports),
            n_tasks=job.n,
            recruited=int(recruited.size),
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

    def run_jobs(self, submissions: Sequence[Tuple[Job, int]]
                 ) -> List[VectorJobReport]:
        """Run ``(job, target_size)`` submissions back to back."""
        return [self.run_job(job, target) for job, target in submissions]

    # -- fault application -------------------------------------------------
    def _applicable_outages(self, cohort: int, t_start: float):
        """Compute-outage windows that can still affect a job starting
        at ``t_start``, with per-cohort victim masks and the victims'
        sorted ready positions filled in later."""
        faults_rng = self.population.streams["faults"]
        out = []
        for w in self.compiled.compute_outages():
            if w.end <= t_start:
                continue
            mask = storm_victims(faults_rng, cohort, w.fraction)
            if not mask.any():
                continue
            out.append([max(w.start, t_start), w.end, mask, None])
        return out

    def _count_fault_windows(self, outages, census_outages,
                             t_start: float, finish: float) -> None:
        if self._m_injected is None:
            return
        windows = [(ws, we) for ws, we, _m, _rv in outages]
        windows += [(max(w.start, t_start), w.end) for w in census_outages]
        for ws, we in windows:
            if ws < finish:
                self._m_injected.value += 1
                if math.isfinite(we) and we <= finish:
                    self._m_restored.value += 1

    # -- census ------------------------------------------------------------
    def _run_census_epochs(self, recruited: np.ndarray, outages,
                           census_outages, t_start: float, finish: float,
                           *, instance: int) -> Dict[str, int]:
        """Bounded consolidation rounds over the job window.

        Each epoch heartbeats the nodes that are up at that instant
        (compute-outage victims miss their heartbeats, exactly like
        crashed PNAs) and consolidates; a controller-crash window clears
        the census and the next epoch self-heals it from the fleet (only
        then do epochs re-register members: elsewhere their state and
        instance already hold, and the heartbeat refreshes last-seen)."""
        census = self.census
        census.observe(recruited, STATE_BUSY, instance, t_start)
        span = finish - t_start
        epochs = min(self.census_epochs,
                     max(1, int(span / self.heartbeat_interval_s) or 1))
        times = np.linspace(t_start, finish, epochs + 1)[1:]
        t = self._trace
        gauges = census.consolidate(t_start)
        cleared = False
        for te in times:
            te = float(te)
            if any(w.start <= te < w.end for w in census_outages):
                census.clear()
                cleared = True
                gauges = census.consolidate(te)
                if t is not None:
                    t.emit(te, "census_outage", **gauges)
                continue
            up = None
            for ws, we, mask, _rv in outages:
                if ws <= te < we:
                    up = ~mask if up is None else up & ~mask
            members = recruited if up is None else recruited[up]
            if cleared:
                census.observe(members, STATE_BUSY, instance, te)
                cleared = up is not None
            census.heartbeat(members, te)
            gauges = census.consolidate(te)
            if t is not None:
                t.emit(te, "census_epoch", **gauges)
        return gauges

    # -- availability ------------------------------------------------------
    def _size_series(self, ready: np.ndarray, outages, census_outages,
                     t_submit: float, t_start: float,
                     finish: float) -> TimeSeries:
        """Step-function instance size on a bounded grid.

        Size at *t* = nodes ready by *t* minus the ready victims of each
        active compute-outage window (overlaps subtract twice — a
        conservative, never-optimistic size), zero during census
        outages.  Grid = ready-time quantiles + window edges + job
        boundaries, so the series has O(availability_samples) points at
        any cohort size."""
        ready_sorted = np.sort(ready)
        for entry in outages:
            entry[3] = np.sort(ready[entry[2]])

        def size_at(t: float) -> float:
            for w in census_outages:
                if w.start <= t < w.end:
                    return 0.0
            size = int(np.searchsorted(ready_sorted, t, side="right"))
            for ws, we, _mask, ready_victims in outages:
                if ws <= t < we:
                    size -= int(np.searchsorted(ready_victims, t,
                                                side="right"))
            return float(max(0, size))

        grid = {t_submit, t_start, finish}
        step = max(1, ready_sorted.size // self.availability_samples)
        grid.update(float(x) for x in ready_sorted[::step])
        grid.add(float(ready_sorted[-1]))
        for ws, we, _mask, _rv in outages:
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
