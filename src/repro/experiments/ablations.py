"""Ablation experiments A1–A6 (design choices called out in DESIGN.md).

* **A1 — carousel composition**: how the wakeup time degrades when the
  application image shares the carousel with other content, and what
  block-level ``resume`` acquisition (real DSM-CC hardware capability)
  buys over the paper's ``wait_for_start`` model.
* **A2 — recruitment probability policy**: rounds-to-converge and
  overshoot of fixed vs deficit-proportional wakeup probabilities.
* **A3 — heartbeat interval**: controller message load vs the latency of
  recomposing an instance after churn kills members.
* **A4 — heartbeat aggregation**: controller inbound load vs fan-out.
* **A5 — tail replication**: makespan with/without speculative
  replication on a straggler fleet.
* **A6 — control planes**: generic broadcast vs DSM-CC carousel.

Each ablation is expressed as a *per-point* function (one grid point →
one record) registered as a scenario, plus a serial ``run_*`` wrapper
preserving the original list-returning API.
"""

from __future__ import annotations

import functools
from typing import Dict, List

import numpy as np

from repro.analysis.report import format_seconds, render_records
from repro.analysis.sweep import grid_points
from repro.carousel.carousel import CarouselSchedule
from repro.carousel.objects import CarouselFile
from repro.carousel.reader import sample_wakeup_latencies
from repro.core.messages import PNAState
from repro.core.policies import DeficitProportional, FixedProbability
from repro.core.system import OddCISystem
from repro.net.message import MEGABYTE, bits_from_bytes
from repro.runner.scenario import Scenario, register
from repro.vector.population import VectorPopulation
from repro.workloads.bot import uniform_bag

__all__ = [
    "run_carousel_composition",
    "run_probability_policies",
    "run_heartbeat_intervals",
    "run_aggregation_ablation",
    "run_replication_ablation",
    "run_plane_comparison",
    "point_carousel_composition",
    "point_probability_policy",
    "point_heartbeat_interval",
    "point_aggregation",
    "point_replication",
    "point_plane_comparison",
    "render_ablation",
]


def _run_grid(point_fn, grid, **fixed) -> List[Dict[str, float]]:
    """Serial helper: evaluate ``point_fn`` over ``grid`` and merge the
    parameters into each record (same shape as the registry runner)."""
    records: List[Dict[str, float]] = []
    for params in grid_points(grid):
        record: Dict[str, float] = dict(params)
        record.update(point_fn(**params, **fixed))
        records.append(record)
    return records


# -- A1: carousel composition ---------------------------------------------------

def point_carousel_composition(
    filler_fraction: float,
    *,
    image_mb: float = 8.0,
    beta_bps: float = 1_000_000.0,
    n_samples: int = 50_000,
    seed: int = 0,
) -> Dict[str, float]:
    """Wakeup statistics for one carousel composition.

    ``filler_fraction`` is extra carousel content as a fraction of the
    image size (0 = the paper's image-dominated assumption).
    """
    image_bits = image_mb * MEGABYTE
    files = [
        CarouselFile(name="pna.bin",
                     size_bits=bits_from_bytes(256 * 1024)),
        CarouselFile(name="image", size_bits=image_bits),
    ]
    if filler_fraction > 0:
        files.append(CarouselFile(
            name="filler", size_bits=image_bits * filler_fraction))
    sched = CarouselSchedule(files, beta_bps)
    rng = np.random.default_rng(seed)
    wait = sample_wakeup_latencies(sched, "image", n_samples, rng)
    rng = np.random.default_rng(seed)
    resume = sample_wakeup_latencies(sched, "image", n_samples, rng,
                                     policy="resume")
    return {
        "cycle_s": sched.cycle_time,
        "w_wait_for_start_s": wait.mean,
        "w_resume_s": resume.mean,
        "resume_speedup": wait.mean / resume.mean,
        "w_over_ideal": wait.mean / (1.5 * image_bits / beta_bps),
    }


def run_carousel_composition(
    *,
    image_mb: float = 8.0,
    beta_bps: float = 1_000_000.0,
    filler_fractions: tuple = (0.0, 0.5, 1.0, 2.0),
    n_samples: int = 50_000,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Wakeup time vs share of the carousel used by other content."""
    return _run_grid(point_carousel_composition,
                     {"filler_fraction": filler_fractions},
                     image_mb=image_mb, beta_bps=beta_bps,
                     n_samples=n_samples, seed=seed)


# -- A2: probability policies ----------------------------------------------------

#: Policy factories keyed by the names used in records and the grid.
_POLICIES = {
    "fixed-1.0": lambda: FixedProbability(1.0),
    "fixed-0.5": lambda: FixedProbability(0.5),
    "deficit-1.0": lambda: DeficitProportional(safety=1.0),
    "deficit-1.1": lambda: DeficitProportional(safety=1.1),
}


def point_probability_policy(
    policy: str,
    *,
    population: int = 100_000,
    target: int = 10_000,
    idle_estimate_error: float = 0.0,
    max_rounds: int = 12,
    tolerance: float = 0.05,
    seed: int = 0,
) -> Dict[str, float]:
    """Recruitment convergence of one wakeup-probability policy.

    Simulates repeated wakeup rounds against a vector population: each
    round the policy picks a probability from the current deficit and a
    (possibly biased) idle estimate; accepted nodes become busy.  Stops
    when within ``tolerance`` of the target.  Reports rounds used and
    final relative overshoot.
    """
    chooser = _POLICIES[policy]()
    pop = VectorPopulation(population, seed=seed)
    recruited = 0
    rounds = 0
    wakeups: List[int] = []
    while rounds < max_rounds:
        deficit = target - recruited
        if deficit <= tolerance * target:
            break
        idle = pop.idle_count
        estimate = int(idle * (1.0 + idle_estimate_error))
        probability = chooser.probability(deficit, max(estimate, 1))
        accepted = pop.recruit(probability)
        wakeups.append(int(accepted.size))
        recruited += int(accepted.size)
        rounds += 1
    return {
        "rounds": rounds,
        "recruited": recruited,
        "target": target,
        "overshoot": (recruited - target) / target,
        "first_round": wakeups[0] if wakeups else 0,
    }


def run_probability_policies(
    *,
    population: int = 100_000,
    target: int = 10_000,
    idle_estimate_error: float = 0.0,
    max_rounds: int = 12,
    tolerance: float = 0.05,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Recruitment convergence of all wakeup-probability policies."""
    return _run_grid(point_probability_policy,
                     {"policy": tuple(_POLICIES)},
                     population=population, target=target,
                     idle_estimate_error=idle_estimate_error,
                     max_rounds=max_rounds, tolerance=tolerance, seed=seed)


# -- A3: heartbeat interval ---------------------------------------------------------

def point_heartbeat_interval(
    heartbeat_interval_s: float,
    *,
    n_pnas: int = 12,
    target: int = 8,
    kill: int = 4,
    seed: int = 0,
) -> Dict[str, float]:
    """Recomposition latency and controller load at one heartbeat
    interval.

    Builds an event-tier system, lets an instance stabilise at
    ``target``, silently kills ``kill`` members, and measures how long
    the controller takes to learn (missed heartbeats), re-broadcast a
    wakeup and return the *online* busy fleet to target.  Also reports
    heartbeat messages per simulated minute.
    """
    interval = heartbeat_interval_s
    maintenance = max(interval, 10.0)
    system = OddCISystem(seed=seed, maintenance_interval_s=maintenance)
    system.add_pnas(n_pnas, heartbeat_interval_s=interval,
                    dve_poll_interval_s=10.0)
    job = uniform_bag(100_000, image_bits=MEGABYTE, ref_seconds=500.0)
    system.provider.submit_job(job, target_size=target,
                               heartbeat_interval_s=interval)
    system.sim.run(until=20 * interval)
    if system.busy_count() != target:  # pragma: no cover - guard
        raise RuntimeError("instance failed to stabilise")
    hb_before = system.controller.counters["heartbeats"]
    t_before = system.sim.now

    busy = [p for p in system.pnas if p.state is PNAState.BUSY]
    kill_time = system.sim.now
    for p in busy[:kill]:
        p.shutdown()

    def online_busy() -> int:
        return sum(1 for p in system.pnas
                   if p.online and p.state is PNAState.BUSY)

    horizon = kill_time + 600 * max(1.0, interval / 5.0)
    while online_busy() < target and system.sim.now < horizon:
        if not system.sim.step():  # pragma: no cover - guard
            break
    recovery = system.sim.now - kill_time
    elapsed_min = (system.sim.now - t_before) / 60.0 or 1.0
    hb_rate = (system.controller.counters["heartbeats"] - hb_before) \
        / elapsed_min
    return {
        "recovery_s": recovery,
        "recovered": online_busy() >= target,
        "heartbeats_per_min": hb_rate,
    }


def run_heartbeat_intervals(
    *,
    intervals_s: tuple = (5.0, 15.0, 60.0),
    n_pnas: int = 12,
    target: int = 8,
    kill: int = 4,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Recomposition latency and controller load vs heartbeat interval."""
    return _run_grid(point_heartbeat_interval,
                     {"heartbeat_interval_s": intervals_s},
                     n_pnas=n_pnas, target=target, kill=kill, seed=seed)


def render_ablation(records: List[Dict[str, float]], title: str) -> str:
    """ASCII rendering of an ablation's records under ``title``."""
    return render_records(records, title=title)


# -- A4: hierarchical heartbeat aggregation ------------------------------------

def point_aggregation(
    aggregators: int,
    *,
    n_pnas: int = 24,
    heartbeat_s: float = 5.0,
    aggregation_s: float = 20.0,
    horizon_s: float = 600.0,
    seed: int = 0,
) -> Dict[str, float]:
    """Controller inbound-message rate at one aggregation fan-out.

    Fan-out 0 = no aggregation (every PNA heartbeats the Controller
    directly); fan-out k = k aggregators, each digesting its shard every
    ``aggregation_s``.  The paper defers this mechanism (footnote 3);
    this ablation quantifies how much it buys.
    """
    from repro.core.aggregation import DigestingController, HeartbeatAggregator

    fanout = aggregators
    system = OddCISystem(seed=seed, maintenance_interval_s=1e6)
    if fanout == 0:
        system.add_pnas(n_pnas, heartbeat_interval_s=heartbeat_s)
        system.sim.run(until=horizon_s)
        inbound = system.controller.counters["heartbeats"]
        idle = system.controller.idle_estimate()
    else:
        digesting = DigestingController(system.controller)
        aggs = [
            HeartbeatAggregator(system.sim, system.router, f"agg-{i}",
                                system.controller.controller_id,
                                aggregation_interval_s=aggregation_s)
            for i in range(fanout)
        ]
        for i in range(n_pnas):
            pna = system.add_pna(heartbeat_interval_s=heartbeat_s)
            pna.controller_id = aggs[i % fanout].aggregator_id
        system.sim.run(until=horizon_s)
        inbound = digesting.digests_received
        idle = system.controller.idle_estimate()
    return {
        "controller_msgs": inbound,
        "msgs_per_min": inbound / (horizon_s / 60.0),
        "idle_census": idle,
        "census_correct": idle == n_pnas,
    }


def run_aggregation_ablation(
    *,
    n_pnas: int = 24,
    heartbeat_s: float = 5.0,
    aggregation_s: float = 20.0,
    fanouts: tuple = (0, 2, 4, 8),
    horizon_s: float = 600.0,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Controller inbound-message rate vs aggregation fan-out."""
    return _run_grid(point_aggregation, {"aggregators": fanouts},
                     n_pnas=n_pnas, heartbeat_s=heartbeat_s,
                     aggregation_s=aggregation_s, horizon_s=horizon_s,
                     seed=seed)


# -- A5: tail replication -------------------------------------------------------

def point_replication(
    replicate_tail: bool,
    *,
    n_fast: int = 8,
    n_slow: int = 2,
    slow_factor: float = 30.0,
    n_tasks: int = 30,
    ref_seconds: float = 10.0,
    seed: int = 0,
) -> Dict[str, float]:
    """Makespan with or without speculative tail replication on a fleet
    containing stragglers (slow devices)."""
    system = OddCISystem(seed=seed, maintenance_interval_s=1e6)
    for _ in range(n_slow):
        system.add_pna(executor=lambda ref: ref * slow_factor,
                       heartbeat_interval_s=1e5,
                       dve_poll_interval_s=2.0)
    system.add_pnas(n_fast, heartbeat_interval_s=1e5,
                    dve_poll_interval_s=2.0)
    job = uniform_bag(n_tasks, image_bits=MEGABYTE,
                      ref_seconds=ref_seconds,
                      name=f"repl-{replicate_tail}")
    submission = system.provider.submit_job(
        job, target_size=n_fast + n_slow, replicate_tail=replicate_tail)
    report = system.provider.run_job_to_completion(
        submission, limit_s=1e8)
    return {
        "makespan_s": report.makespan,
        "replicas_issued": report.replicas_issued,
        "duplicates": report.duplicates,
    }


def finalize_replication(
        records: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """Cross-point speedup fields (needs both A5 records)."""
    base = next(r for r in records if not r["replicate_tail"])
    repl = next(r for r in records if r["replicate_tail"])
    base["speedup_vs_base"] = 1.0
    repl["speedup_vs_base"] = base["makespan_s"] / repl["makespan_s"]
    return records


def run_replication_ablation(
    *,
    n_fast: int = 8,
    n_slow: int = 2,
    slow_factor: float = 30.0,
    n_tasks: int = 30,
    ref_seconds: float = 10.0,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Makespan with and without speculative tail replication."""
    records = _run_grid(point_replication,
                        {"replicate_tail": (False, True)},
                        n_fast=n_fast, n_slow=n_slow,
                        slow_factor=slow_factor, n_tasks=n_tasks,
                        ref_seconds=ref_seconds, seed=seed)
    return finalize_replication(records)


# -- A6: control plane comparison (Section 3 vs Section 4) -----------------------

def point_plane_comparison(
    image_mb: float,
    *,
    n_nodes: int = 8,
    beta_bps: float = 1_000_000.0,
    fast_forward: bool = True,
    seed: int = 0,
) -> Dict[str, float]:
    """Time from job submission to a full fleet, per control plane.

    The generic plane (Section 3) ships the image inside one broadcast
    message: every subscribed PNA receives it simultaneously after
    ``(I+ε)/β``.  The DTV carousel plane (Section 4) staggers receivers
    across the repetition cycle and averages ``1.5·I/β``.  Both are
    measured on the event tier with identical fleets.
    ``fast_forward`` toggles the carousel's park/fast-forward
    optimisation (results must be independent of it — see the soak
    test).
    """
    from repro.dtv_oddci import OddCIDTVSystem

    image_bits = image_mb * MEGABYTE

    # generic one-shot broadcast plane
    generic = OddCISystem(beta_bps=beta_bps, seed=seed,
                          maintenance_interval_s=1e6)
    generic.add_pnas(n_nodes, heartbeat_interval_s=1e5,
                     dve_poll_interval_s=10.0)
    job = uniform_bag(100_000, image_bits=image_bits,
                      ref_seconds=1000.0, name=f"gen-{image_mb}")

    def generic_ready() -> int:
        # readiness = the image is staged and the DVE exists, not
        # merely "committed to the instance"
        return sum(1 for p in generic.pnas if p.dve is not None)

    t0 = generic.sim.now
    generic.provider.submit_job(job, target_size=n_nodes,
                                heartbeat_interval_s=1e5)
    while generic_ready() < n_nodes:
        if not generic.sim.step():  # pragma: no cover - guard
            raise RuntimeError("generic plane failed to recruit")
    generic_time = generic.sim.now - t0

    # DSM-CC carousel plane
    from repro.net.message import bits_from_bytes

    dtv = OddCIDTVSystem(beta_bps=beta_bps, seed=seed,
                         maintenance_interval_s=1e6,
                         pna_xlet_bits=bits_from_bytes(64 * 1024),
                         carousel_fast_forward=fast_forward)
    dtv.add_receivers(n_nodes, heartbeat_interval_s=1e5,
                      dve_poll_interval_s=10.0)
    dtv.sim.run(until=30.0)  # Xlets autostart
    job2 = uniform_bag(100_000, image_bits=image_bits,
                       ref_seconds=1000.0, name=f"dtv-{image_mb}")

    def dtv_ready() -> int:
        return sum(1 for p in dtv._pna_of_stb.values()
                   if p.dve is not None)

    t0 = dtv.sim.now
    dtv.provider.submit_job(job2, target_size=n_nodes,
                            heartbeat_interval_s=1e5)
    horizon = t0 + 100.0 * (1.5 * image_bits / beta_bps + 60.0)
    while dtv_ready() < n_nodes and dtv.sim.now < horizon:
        if not dtv.sim.step():  # pragma: no cover - guard
            break
    dtv_time = dtv.sim.now - t0

    return {
        "generic_plane_s": generic_time,
        "carousel_plane_s": dtv_time,
        "carousel_penalty": dtv_time / generic_time,
        "w_model_s": 1.5 * image_bits / beta_bps,
    }


def run_plane_comparison(
    *,
    image_mbs: tuple = (1.0, 4.0, 8.0),
    n_nodes: int = 8,
    beta_bps: float = 1_000_000.0,
    fast_forward: bool = True,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Time from job submission to a full fleet, per control plane."""
    return _run_grid(point_plane_comparison, {"image_mb": image_mbs},
                     n_nodes=n_nodes, beta_bps=beta_bps,
                     fast_forward=fast_forward, seed=seed)


# -- scenario registrations -----------------------------------------------------

register(Scenario(
    name="a1",
    description="Ablation — carousel composition",
    point=point_carousel_composition,
    renderer=functools.partial(
        render_ablation, title="A1 — wakeup vs carousel composition"),
    grid={"filler_fraction": (0.0, 0.5, 1.0, 2.0)},
    fixed={"image_mb": 8.0, "beta_bps": 1_000_000.0, "n_samples": 50_000},
    smoke_grid={"filler_fraction": (0.0, 1.0)},
    smoke_fixed={"n_samples": 2_000},
))

register(Scenario(
    name="a2",
    description="Ablation — recruitment probability policies",
    point=point_probability_policy,
    renderer=functools.partial(
        render_ablation, title="A2 — recruitment probability policies"),
    grid={"policy": tuple(_POLICIES)},
    fixed={"population": 100_000, "target": 10_000},
    smoke_grid={"policy": ("fixed-1.0", "deficit-1.1")},
    smoke_fixed={"population": 20_000, "target": 2_000},
))

register(Scenario(
    name="a3",
    description="Ablation — heartbeat interval trade-off",
    point=point_heartbeat_interval,
    renderer=functools.partial(
        render_ablation, title="A3 — heartbeat interval trade-off"),
    grid={"heartbeat_interval_s": (5.0, 15.0, 60.0)},
    fixed={"n_pnas": 12, "target": 8, "kill": 4},
    smoke_grid={"heartbeat_interval_s": (5.0, 15.0)},
    smoke_fixed={"n_pnas": 8, "target": 6, "kill": 3},
))

register(Scenario(
    name="a4",
    description="Ablation — heartbeat aggregation (footnote-3 extension)",
    point=point_aggregation,
    renderer=functools.partial(
        render_ablation, title="A4 — heartbeat aggregation fan-out"),
    grid={"aggregators": (0, 2, 4, 8)},
    fixed={"n_pnas": 24, "heartbeat_s": 5.0, "aggregation_s": 20.0,
           "horizon_s": 600.0},
    smoke_grid={"aggregators": (0, 2)},
    smoke_fixed={"n_pnas": 12, "horizon_s": 180.0},
))

register(Scenario(
    name="a5",
    description="Ablation — speculative tail replication",
    point=point_replication,
    renderer=functools.partial(
        render_ablation, title="A5 — tail replication"),
    grid={"replicate_tail": (False, True)},
    smoke_fixed={"n_tasks": 16, "ref_seconds": 5.0},
    finalize=finalize_replication,
))

register(Scenario(
    name="a6",
    description="Ablation — control-plane comparison (Sec. 3 vs Sec. 4)",
    point=point_plane_comparison,
    renderer=functools.partial(
        render_ablation,
        title="A6 — generic broadcast vs DSM-CC carousel control plane"),
    grid={"image_mb": (1.0, 4.0, 8.0)},
    fixed={"n_nodes": 8},
    smoke_grid={"image_mb": (1.0,)},
    smoke_fixed={"n_nodes": 4},
))
