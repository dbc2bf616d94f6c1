"""Event-tier performance harness — the repo's perf measuring stick.

Two scenario families, each probing a different layer:

* ``kernel`` — pure DES timer churn: N self-rescheduling callbacks on a
  bare :class:`~repro.sim.core.Simulator`.  The event count is identical
  on every build (the workload *is* the events), so ``events_per_sec``
  ratios measure raw kernel throughput with nothing else moving.
* ``oddci`` — the full wakeup+heartbeat+bag-of-tasks cycle on the
  faithful per-node event tier at 10^3 / 10^4 / 10^5 PNAs.  Batching
  optimisations legitimately *remove* events here, so compare
  ``wall_s`` (and semantic outputs: ``makespan`` must be bit-identical
  across builds) rather than raw events/sec.

Recorded per run: ``events`` / ``events_per_sec``, ``peak_heap``
(maximum calendar size, sampled), ``build_wall_s`` / ``run_wall_s``,
and ``makespan`` / ``sim_time`` so before/after runs can be compared
for equivalence, not just speed.

Measurement policy: the garbage collector is disabled for the timed
section (the ``timeit`` convention) and restored afterwards; wall
numbers are only comparable when before/after runs interleave in fresh
processes on an otherwise idle machine — single runs on shared hosts
carry ±10% noise.

Results are written as JSON (``BENCH_event_tier.json`` at the repo root
is the tracked artifact; see DESIGN.md §8).  Regenerate with::

    python -m repro bench                # or: make bench
    python -m repro bench --scales 1000 10000 --label after
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import time
from typing import Dict, List, Optional

from repro.net.message import MEGABYTE

__all__ = [
    "SCENARIO",
    "DEFAULT_SCALES",
    "KERNEL_SCALES",
    "CENSUS_SCALES",
    "DISPATCH_SCALES",
    "run_scenario",
    "run_kernel_scenario",
    "run_telemetry_overhead",
    "run_census_scenario",
    "run_dispatch_scenario",
    "run_federation_scenario",
    "run_serve_scenario",
    "run_vector_scenario",
    "run_scales",
    "write_report",
    "main",
]

DEFAULT_SCALES = (1_000, 10_000, 100_000)
KERNEL_SCALES = (10_000,)
CENSUS_SCALES = (100_000,)
DISPATCH_SCALES = (50_000,)
FEDERATION_SCALES = (100_000,)
SERVE_SCALES = (32,)
VECTOR_SCALES = (100_000, 1_000_000, 10_000_000)

#: Scenario constants — change these and old JSON is incomparable.
SCENARIO = {
    "tasks_per_node": 4,
    "ref_seconds": 5.0,
    "input_bits": 4096.0,
    "result_bits": 4096.0,
    "image_bits": float(MEGABYTE),  # 1 MB staged image
    "heartbeat_interval_s": 10.0,
    "maintenance_interval_s": 60.0,
    "dve_poll_interval_s": 15.0,
    "seed": 1,
    "kernel_tick_s": 1.0,
    "kernel_horizon_s": 30.0,
    "gc": "disabled during measured section",
}


class _gc_paused:
    """Disable collection for the timed section; restore on exit."""

    def __enter__(self):
        self._was_enabled = gc.isenabled()
        gc.disable()
        return self

    def __exit__(self, *exc):
        if self._was_enabled:
            gc.enable()
        return False


def run_scenario(n_nodes: int, *, seed: Optional[int] = None,
                 sample_interval_s: float = 5.0) -> Dict[str, float]:
    """One wakeup+heartbeat+BoT cycle at ``n_nodes`` PNAs; returns metrics.

    ``makespan`` must be bit-identical to the per-PNA reference path
    (``scripts/refresh_bench_event_tier.py`` times both) — wall time is
    the only legitimate difference.
    """
    from repro.core import OddCISystem
    from repro.workloads import uniform_bag

    cfg = SCENARIO
    with _gc_paused():
        t0 = time.perf_counter()
        system = OddCISystem(
            seed=cfg["seed"] if seed is None else seed,
            maintenance_interval_s=cfg["maintenance_interval_s"])
        system.add_pnas(n_nodes,
                        heartbeat_interval_s=cfg["heartbeat_interval_s"],
                        dve_poll_interval_s=cfg["dve_poll_interval_s"])
        build_wall_s = time.perf_counter() - t0

        sim = system.sim
        peak = {"heap": 0}

        def sample() -> None:
            heap_len = len(sim._heap)
            if heap_len > peak["heap"]:
                peak["heap"] = heap_len
            sim.schedule(sample_interval_s, sample)

        sim.schedule(0.0, sample)

        job = uniform_bag(n_nodes * cfg["tasks_per_node"],
                          image_bits=cfg["image_bits"],
                          input_bits=cfg["input_bits"],
                          ref_seconds=cfg["ref_seconds"],
                          result_bits=cfg["result_bits"])
        t1 = time.perf_counter()
        submission = system.provider.submit_job(
            job, target_size=n_nodes,
            heartbeat_interval_s=cfg["heartbeat_interval_s"])
        report = system.provider.run_job_to_completion(submission, limit_s=1e7)
        run_wall_s = time.perf_counter() - t1

    events = sim.events_executed
    return {
        "n_nodes": n_nodes,
        "events": events,
        "events_per_sec": events / run_wall_s if run_wall_s > 0 else 0.0,
        "peak_heap": peak["heap"],
        "build_wall_s": round(build_wall_s, 4),
        "run_wall_s": round(run_wall_s, 4),
        "wall_s": round(build_wall_s + run_wall_s, 4),
        "makespan": report.makespan,
        "sim_time": sim.now,
        "n_tasks": report.n_tasks,
        "distinct_workers": report.distinct_workers,
    }


def run_kernel_scenario(n_timers: int, *,
                        horizon_s: Optional[float] = None
                        ) -> Dict[str, float]:
    """Raw kernel churn: ``n_timers`` self-rescheduling callbacks.

    Every build executes the *same* number of events (timers fire once
    per tick until the horizon), so the events/sec ratio between two
    builds is a clean kernel-speed comparison.  A small per-timer phase
    stagger keeps the calendar from degenerating into one giant
    same-time bucket.
    """
    from repro.sim.core import Simulator

    tick = SCENARIO["kernel_tick_s"]
    horizon = SCENARIO["kernel_horizon_s"] if horizon_s is None else horizon_s
    sim = Simulator(seed=1)
    # Feature-detect the fast path so the same harness can measure
    # builds that predate Simulator.schedule_fast.
    schedule = getattr(sim, "schedule_fast", None) or sim.schedule

    def timer(i: int) -> None:
        schedule(tick, timer, i)

    for i in range(n_timers):
        schedule(tick + (i % 97) * 1e-6, timer, i)
    with _gc_paused():
        t0 = time.perf_counter()
        sim.run(until=horizon)
        wall_s = time.perf_counter() - t0
    events = sim.events_executed
    return {
        "n_timers": n_timers,
        "horizon_s": horizon,
        "events": events,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
        "wall_s": round(wall_s, 4),
    }


def run_telemetry_overhead(n_timers: int = 10_000, *,
                           repeats: int = 3) -> Dict[str, float]:
    """Disabled-telemetry overhead on the kernel microbench.

    Interleaves ``repeats`` pairs of kernel runs — plain vs. with a
    tracer installed whose ``kernel`` category is *disabled* (the
    production shape of a ``--trace`` run: components resolve a ``None``
    channel and pay one truthiness check per call site) — and compares
    best-of-N events/sec.  ``ratio`` is traced/plain; the guard in
    ``benchmarks/test_telemetry_overhead.py`` requires >= 0.97
    (<= ~3% overhead).  Interleaving and best-of-N squeeze out most
    scheduler noise; single pairs on a shared host are still ±5%.
    """
    from repro.telemetry.trace import Tracer, active

    plain_best = traced_best = 0.0
    for _ in range(max(1, repeats)):
        plain = run_kernel_scenario(n_timers)
        plain_best = max(plain_best, plain["events_per_sec"])
        with active(Tracer("runner")):  # kernel category disabled
            traced = run_kernel_scenario(n_timers)
        traced_best = max(traced_best, traced["events_per_sec"])
    return {
        "n_timers": n_timers,
        "repeats": repeats,
        "plain_events_per_sec": round(plain_best, 1),
        "traced_events_per_sec": round(traced_best, 1),
        "ratio": round(traced_best / plain_best, 4) if plain_best else 0.0,
    }


def _census_controller(store_cls):
    """A bare Controller (no PNA fleet) on a ``store_cls`` census engine.

    Heartbeat payloads are injected directly at the consolidation entry
    points, so the measurement isolates the census data path — no link
    math, no kernel traffic.  Reset replies no-op identically on both
    engines (no registered PNA channels)."""
    from repro.core.controller import Controller, DirectControlPlane
    from repro.core.instance import reset_instance_sequence
    from repro.core.network import Router
    from repro.net.broadcast import BroadcastChannel
    from repro.net.crypto import KeyRegistry
    from repro.sim.core import Simulator

    reset_instance_sequence()
    sim = Simulator(seed=SCENARIO["seed"])
    router = Router(sim)
    plane = DirectControlPlane(
        BroadcastChannel(sim, beta_bps=1e9, name="bench.bcast"))
    controller = Controller(
        sim, router, plane, KeyRegistry(),
        maintenance_interval_s=SCENARIO["maintenance_interval_s"],
        census=store_cls(router.interner))
    return router, controller


def run_census_scenario(n_members: int, *, rounds: int = 5,
                        repeats: int = 3) -> Dict[str, float]:
    """Heartbeat-consolidation throughput: columnar vs per-payload.

    One cohort of ``n_members`` heartbeats (90% busy members of a live
    instance, 10% idle — the steady-state shape of a healthy fleet) is
    consolidated ``rounds`` times per engine: the dict-backed reference
    through ``_receive_batch`` (the payload-by-payload baseline) and the
    columnar store through ``_receive_cohort``.  Runs interleave and the
    best of ``repeats`` is kept.  ``speedup`` is the tracked number; the
    engines' final censuses are asserted equal before returning.
    """
    from repro.core.census import ColumnarCensusStore, DictCensusStore
    from repro.core.instance import InstanceSpec
    from repro.core.messages import HeartbeatPayload, PNAState

    spec = InstanceSpec(
        target_size=max(1, (n_members * 9) // 10), image_name="bench-img",
        image_bits=SCENARIO["image_bits"],
        heartbeat_interval_s=SCENARIO["heartbeat_interval_s"])

    def build(store_cls):
        router, controller = _census_controller(store_cls)
        iid = controller.create_instance(spec).instance_id
        payloads = []
        for i in range(n_members):
            pna_id = f"pna-{i}"
            if i % 10 == 0:
                payload = HeartbeatPayload(pna_id=pna_id,
                                           state=PNAState.IDLE,
                                           instance_id=None)
            else:
                payload = HeartbeatPayload(pna_id=pna_id,
                                           state=PNAState.BUSY,
                                           instance_id=iid)
            payloads.append(payload)
        return controller, payloads, router.heartbeat_columns(payloads)

    baseline, base_payloads, _ = build(DictCensusStore)
    columnar, _, col_columns = build(ColumnarCensusStore)

    base_best = col_best = float("inf")
    with _gc_paused():
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            for _r in range(rounds):
                baseline._receive_batch(base_payloads)
            base_best = min(base_best, time.perf_counter() - t0)
            t0 = time.perf_counter()
            for _r in range(rounds):
                columnar._receive_cohort(*col_columns)
            col_best = min(col_best, time.perf_counter() - t0)

    # Equivalence: both engines must have consolidated the same census.
    iid = next(iter(baseline.instances))
    assert len(baseline.registry) == len(columnar.registry) == n_members
    assert baseline.instances[iid].size == columnar.instances[iid].size
    assert baseline.idle_estimate() == columnar.idle_estimate()
    assert sorted(baseline.registry.items()) == \
        sorted(columnar.registry.items())

    consolidations = n_members * rounds
    base_cps = consolidations / base_best if base_best > 0 else 0.0
    col_cps = consolidations / col_best if col_best > 0 else 0.0
    return {
        "n_members": n_members,
        "rounds": rounds,
        "repeats": repeats,
        "baseline_wall_s": round(base_best, 4),
        "columnar_wall_s": round(col_best, 4),
        "baseline_consolidations_per_sec": round(base_cps, 1),
        "columnar_consolidations_per_sec": round(col_cps, 1),
        "speedup": round(col_cps / base_cps, 3) if base_cps else 0.0,
        "instance_size": baseline.instances[iid].size,
        "idle_estimate": baseline.idle_estimate(),
    }


def run_dispatch_scenario(n_requesters: int, *, rounds: int = 5,
                          repeats: int = 3) -> Dict[str, float]:
    """Backend dispatch-tier throughput: batched vs per-request.

    ``n_requesters`` concurrent task requests are served ``rounds``
    times from a bag deep enough that the pending queue never empties —
    once through the scalar ``_serve_request`` loop (what the per-PNA
    reference path produces) and once through one
    ``receive_request_cohort`` call per round (the cohort wire shape).
    Runs interleave; best of ``repeats`` per engine is kept.  The
    assigned task-id sequences are asserted identical before returning,
    so ``speedup`` never trades away dispatch order.
    """
    from repro.core.backend import Backend
    from repro.core.network import Router
    from repro.sim.core import Simulator
    from repro.workloads import uniform_bag
    from repro.workloads.job import reset_job_sequence

    requesters = [f"pna-{i}" for i in range(n_requesters)]

    def build():
        reset_job_sequence()
        sim = Simulator(seed=SCENARIO["seed"])
        job = uniform_bag(n_requesters * rounds,
                          ref_seconds=SCENARIO["ref_seconds"])
        return Backend(sim, job, Router(sim), backend_id="bench-dispatch")

    base_best = coh_best = float("inf")
    base_ids = coh_ids = None
    with _gc_paused():
        for _ in range(max(1, repeats)):
            backend = build()
            t0 = time.perf_counter()
            ids = [backend._serve_request(r, "i-bench").task_id
                   for _r in range(rounds) for r in requesters]
            base_best = min(base_best, time.perf_counter() - t0)
            backend.shutdown()
            base_ids = ids

            backend = build()
            t0 = time.perf_counter()
            ids = [reply.task_id for _r in range(rounds) for reply in
                   backend.receive_request_cohort(requesters, "i-bench")]
            coh_best = min(coh_best, time.perf_counter() - t0)
            backend.shutdown()
            coh_ids = ids

    assert base_ids == coh_ids, "dispatch order diverged across tiers"
    assignments = n_requesters * rounds
    base_aps = assignments / base_best if base_best > 0 else 0.0
    coh_aps = assignments / coh_best if coh_best > 0 else 0.0
    return {
        "n_requesters": n_requesters,
        "rounds": rounds,
        "repeats": repeats,
        "baseline_wall_s": round(base_best, 4),
        "cohort_wall_s": round(coh_best, 4),
        "baseline_assignments_per_sec": round(base_aps, 1),
        "cohort_assignments_per_sec": round(coh_aps, 1),
        "speedup": round(coh_aps / base_aps, 3) if base_aps else 0.0,
    }


def run_federation_scenario(n_nodes: int, *, n_networks: int = 3,
                            seed: Optional[int] = None,
                            sample_interval_s: float = 5.0
                            ) -> Dict[str, float]:
    """One full federated cycle: ``n_nodes`` PNAs across ``n_networks``.

    The federated analogue of :func:`run_scenario` — three controller
    shards over one shared interner, spread placement at full capacity,
    one Backend routing the bag over every shard's fabric.  Records the
    same wall/heap/makespan metrics plus the per-network completion
    split, and asserts the merged accounting matches the bag before
    returning (a fast federation that loses tasks cannot score).
    """
    from repro.core.federation import FederatedOddCISystem, NetworkDescriptor
    from repro.core.instance import reset_instance_sequence
    from repro.workloads import uniform_bag

    cfg = SCENARIO
    reset_instance_sequence()
    base, extra = divmod(n_nodes, n_networks)
    descriptors = [
        NetworkDescriptor(name=f"net{i}",
                          capacity=base + (1 if i < extra else 0),
                          cost_per_node_hour=0.5 + 0.5 * i)
        for i in range(n_networks)]
    with _gc_paused():
        t0 = time.perf_counter()
        system = FederatedOddCISystem(
            descriptors, seed=cfg["seed"] if seed is None else seed,
            placement="spread",
            maintenance_interval_s=cfg["maintenance_interval_s"])
        system.build_fleets(
            heartbeat_interval_s=cfg["heartbeat_interval_s"],
            dve_poll_interval_s=cfg["dve_poll_interval_s"])
        build_wall_s = time.perf_counter() - t0

        sim = system.sim
        peak = {"heap": 0}

        def sample() -> None:
            heap_len = len(sim._heap)
            if heap_len > peak["heap"]:
                peak["heap"] = heap_len
            sim.schedule(sample_interval_s, sample)

        sim.schedule(0.0, sample)

        job = uniform_bag(n_nodes * cfg["tasks_per_node"],
                          image_bits=cfg["image_bits"],
                          input_bits=cfg["input_bits"],
                          ref_seconds=cfg["ref_seconds"],
                          result_bits=cfg["result_bits"])
        t1 = time.perf_counter()
        submission = system.provider.submit_job(
            job, target_size=n_nodes,
            heartbeat_interval_s=cfg["heartbeat_interval_s"])
        report = system.provider.run_job_to_completion(
            submission, limit_s=1e7)
        run_wall_s = time.perf_counter() - t1

    backend = submission.backend
    completed_by_network = dict(backend.completed_by_network)
    assert sum(completed_by_network.values()) == report.n_tasks, \
        "per-network completion accounting diverged from the bag"
    events = sim.events_executed
    return {
        "n_nodes": n_nodes,
        "n_networks": n_networks,
        "events": events,
        "events_per_sec": events / run_wall_s if run_wall_s > 0 else 0.0,
        "peak_heap": peak["heap"],
        "build_wall_s": round(build_wall_s, 4),
        "run_wall_s": round(run_wall_s, 4),
        "wall_s": round(build_wall_s + run_wall_s, 4),
        "makespan": report.makespan,
        "sim_time": sim.now,
        "n_tasks": report.n_tasks,
        "distinct_workers": report.distinct_workers,
        "completed_by_network": completed_by_network,
    }


def run_serve_scenario(n_pnas: int, *, offered_rps: Optional[float] = None,
                       warm_target: int = 2,
                       horizon_s: float = 600.0,
                       seed: Optional[int] = None) -> Dict[str, float]:
    """Warm-pool benefit on the request tier: cold vs warm, same load.

    Runs the full service pipeline (open-loop Poisson traffic → gateway
    → pool → Provider) twice at the same offered load — once with the
    warm pool disabled, once at ``warm_target`` — and records the p50 /
    p99 time-to-ready of both, the warm run's pool hit ratio and the
    ``p99_improvement`` ratio (cold p99 over warm p99), the number the
    floor guard in ``benchmarks/test_serve_floor.py`` tracks.  Both
    runs must settle every issued request (``lost == 0``) or the
    scenario refuses to score — a fast tier that strands requests is
    not a result.
    """
    from repro.core import OddCISystem
    from repro.core.instance import reset_instance_sequence
    from repro.serve import (
        GatewayConfig,
        PoolConfig,
        ServiceTier,
        TrafficSpec,
    )

    cfg = SCENARIO
    # Default load sits just below the fleet's knee (per Little's law
    # ~n/4 concurrent instances against ~(ttr + hold) residence), so
    # the cold run strains visibly while the warm run still clears —
    # the regime where standby capacity matters most.
    rate = offered_rps if offered_rps is not None else 0.00125 * n_pnas

    def run_once(warm: int):
        reset_instance_sequence()
        with _gc_paused():
            t0 = time.perf_counter()
            system = OddCISystem(
                seed=cfg["seed"] if seed is None else seed,
                maintenance_interval_s=15.0)
            system.add_pnas(n_pnas, heartbeat_interval_s=10.0,
                            dve_poll_interval_s=cfg["dve_poll_interval_s"])
            traffic = TrafficSpec(
                pattern="poisson", rate_rps=rate, horizon_s=horizon_s,
                n_tenants=4, target_size=4, hold_s_mean=60.0)
            tier = ServiceTier(
                system, traffic,
                gateway=GatewayConfig(max_concurrent=6),
                pool=PoolConfig(warm_target=warm, standby_size=4,
                                refill_interval_s=20.0),
                heartbeat_interval_s=10.0)
            summary = tier.run()
            wall_s = time.perf_counter() - t0
        return summary, wall_s, system.sim.events_executed

    cold, cold_wall, cold_events = run_once(0)
    warm, warm_wall, warm_events = run_once(warm_target)
    assert cold["lost"] == 0 and warm["lost"] == 0, \
        "service tier stranded requests; timings are meaningless"
    warm_p99 = warm["ttr_p99_s"]
    return {
        "n_pnas": n_pnas,
        "offered_rps": rate,
        "horizon_s": horizon_s,
        "warm_target": warm_target,
        "issued": cold["issued"],
        "cold_ttr_p50_s": cold["ttr_p50_s"],
        "cold_ttr_p99_s": cold["ttr_p99_s"],
        "warm_ttr_p50_s": warm["ttr_p50_s"],
        "warm_ttr_p99_s": warm_p99,
        # Denominator floored at 1 s so an all-warm run (p99 = 0.0)
        # stays finite/JSON-plain; the guard only needs a lower bound.
        "p99_improvement": round(
            cold["ttr_p99_s"] / max(warm_p99, 1.0), 3),
        "cold_rejection_rate": cold["rejection_rate"],
        "warm_rejection_rate": warm["rejection_rate"],
        "pool_hit_ratio": warm["pool"]["hit_ratio"],
        "cold_wall_s": round(cold_wall, 4),
        "warm_wall_s": round(warm_wall, 4),
        "wall_s": round(cold_wall + warm_wall, 4),
        "events": cold_events + warm_events,
    }


def run_vector_scenario(n_nodes: int, *, storm_magnitude: float = 0.3,
                        seed: Optional[int] = None) -> Dict[str, float]:
    """Vector-tier system throughput at ``n_nodes`` receivers.

    Two sequential submissions against a persistent population (the
    ``vector_scale`` scenario's shape): job 1 rides through a churn
    storm (``storm_magnitude`` of the fleet for 200 s), job 2 runs
    clean on the same clock.  The scored figure is ``nodes_per_sec`` —
    recruited nodes fully simulated (wakeup sampling, fault masks,
    census epochs, availability integration) per second of host wall
    time — which the floor guard in ``benchmarks/test_vector_floor.py``
    tracks.  The job is a constant-space :class:`~repro.workloads.bot.
    BagSpec` so a 10⁷-node point does not materialise 10⁸ Task objects.
    """
    from repro.experiments.vector_scale import storm_plan
    from repro.vector.system import VectorOddCISystem
    from repro.workloads.bot import uniform_bag_spec

    cfg = SCENARIO
    with _gc_paused():
        t0 = time.perf_counter()
        system = VectorOddCISystem(
            int(n_nodes * 1.25) + 10,
            seed=cfg["seed"] if seed is None else seed,
            plan=storm_plan(storm_magnitude))
        job = uniform_bag_spec(
            n_nodes * cfg["tasks_per_node"],
            image_bits=8 * MEGABYTE, ref_seconds=30.0,
            input_bits=cfg["input_bits"], result_bits=cfg["result_bits"])
        build_wall_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        r1 = system.run_job(job, target_size=n_nodes)
        r2 = system.run_job(job, target_size=n_nodes)
        run_wall_s = time.perf_counter() - t0
    recruited = r1.recruited + r2.recruited
    return {
        "nodes": n_nodes,
        "recruited": recruited,
        "storm_magnitude": storm_magnitude,
        "makespan_1": round(r1.makespan_s, 3),
        "makespan_2": round(r2.makespan_s, 3),
        "availability_1": round(r1.availability, 4),
        "availability_2": round(r2.availability, 4),
        "efficiency_1": round(r1.efficiency, 4),
        "sim_time": round(system.now, 3),
        "build_wall_s": round(build_wall_s, 4),
        "run_wall_s": round(run_wall_s, 4),
        "wall_s": round(build_wall_s + run_wall_s, 4),
        "nodes_per_sec": round(recruited / run_wall_s, 1),
    }


def run_scales(scales: List[int],
               kernel_scales: Optional[List[int]] = None,
               *, verbose: bool = True) -> Dict[str, dict]:
    """Run both families; returns ``{"oddci": {...}, "kernel": {...}}``."""
    oddci: Dict[str, dict] = {}
    for n in scales:
        metrics = run_scenario(int(n))
        oddci[str(n)] = metrics
        if verbose:
            print(f"  oddci  n={n:>7}  events={metrics['events']:>10}  "
                  f"{metrics['events_per_sec']:>10.0f} ev/s  "
                  f"peak_heap={metrics['peak_heap']:>8}  "
                  f"wall={metrics['wall_s']:.2f}s  "
                  f"makespan={metrics['makespan']:.3f}")
    kernel: Dict[str, dict] = {}
    for n in (KERNEL_SCALES if kernel_scales is None else kernel_scales):
        metrics = run_kernel_scenario(int(n))
        kernel[str(n)] = metrics
        if verbose:
            print(f"  kernel n={n:>7}  events={metrics['events']:>10}  "
                  f"{metrics['events_per_sec']:>10.0f} ev/s  "
                  f"wall={metrics['wall_s']:.2f}s")
    return {"oddci": oddci, "kernel": kernel}


def write_report(path: str, results: Dict[str, dict],
                 label: str, merge_into: Optional[str] = None,
                 *, benchmark: str = "event_tier") -> dict:
    """Write ``results`` under key ``label`` ("before"/"after").

    ``merge_into`` — path of an existing report whose other labels are
    preserved (so an "after" run keeps the recorded "before" numbers).
    """
    doc = {
        "benchmark": benchmark,
        "scenario": dict(SCENARIO),
        "python": platform.python_version(),
    }
    if merge_into:
        try:
            with open(merge_into) as fh:
                old = json.load(fh)
            for key in ("before", "after", "notes"):
                if key in old:
                    doc[key] = old[key]
        except (OSError, ValueError):
            pass
    doc[label] = results
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Event-tier perf scenarios (see DESIGN.md §8)")
    parser.add_argument("--scales", type=int, nargs="+",
                        default=list(DEFAULT_SCALES),
                        help="oddci-family fleet sizes")
    parser.add_argument("--kernel-scales", type=int, nargs="+",
                        default=list(KERNEL_SCALES),
                        help="kernel-family timer counts")
    parser.add_argument("--out", type=str, default="BENCH_event_tier.json")
    parser.add_argument("--label", type=str, default="after",
                        choices=("before", "after"))
    parser.add_argument("--profile", type=int, nargs="?", const=25,
                        default=0, metavar="N",
                        help="run under cProfile and print the top N "
                             "functions by cumulative time (default 25)")
    parser.add_argument("--telemetry-overhead", action="store_true",
                        help="measure disabled-telemetry kernel overhead "
                             "instead of the scenario families")
    parser.add_argument("--census", action="store_true",
                        help="measure census consolidation throughput "
                             "(columnar vs per-payload) instead of the "
                             "scenario families")
    parser.add_argument("--census-scales", type=int, nargs="+",
                        default=list(CENSUS_SCALES),
                        help="census-family member counts")
    parser.add_argument("--dispatch", action="store_true",
                        help="measure Backend dispatch-tier throughput "
                             "(batched cohort vs per-request) instead of "
                             "the scenario families")
    parser.add_argument("--dispatch-scales", type=int, nargs="+",
                        default=list(DISPATCH_SCALES),
                        help="dispatch-family requester counts")
    parser.add_argument("--federation", action="store_true",
                        help="measure the federated control plane "
                             "(multi-network cycle) instead of the "
                             "scenario families")
    parser.add_argument("--federation-scales", type=int, nargs="+",
                        default=list(FEDERATION_SCALES),
                        help="federation-family total fleet sizes")
    parser.add_argument("--serve", action="store_true",
                        help="measure the request-tier warm-pool benefit "
                             "(cold vs warm time-to-ready) instead of the "
                             "scenario families")
    parser.add_argument("--serve-scales", type=int, nargs="+",
                        default=list(SERVE_SCALES),
                        help="serve-family fleet sizes (PNAs)")
    parser.add_argument("--vector", action="store_true",
                        help="measure the vector-tier system (persistent "
                             "population, faults, census) instead of the "
                             "scenario families")
    parser.add_argument("--vector-scales", type=int, nargs="+",
                        default=list(VECTOR_SCALES),
                        help="vector-family fleet sizes (receivers)")
    args = parser.parse_args(argv)
    if args.vector:
        out = args.out if args.out != "BENCH_event_tier.json" \
            else "BENCH_vector.json"
        vector: Dict[str, dict] = {}
        for n in args.vector_scales:
            metrics = _maybe_profiled(args.profile, run_vector_scenario,
                                      int(n))
            vector[str(n)] = metrics
            print(f"  vector n={n:>9}  "
                  f"{metrics['nodes_per_sec']:>12.0f} nodes/s  "
                  f"wall={metrics['wall_s']:.2f}s  "
                  f"avail#1={metrics['availability_1']:.3f}  "
                  f"makespan#1={metrics['makespan_1']:.0f}s")
        if args.profile:
            print(f"[profiled run: {out} left untouched]")
        else:
            write_report(out, {"vector": vector}, args.label,
                         merge_into=out, benchmark="vector")
            print(f"[written to {out}]")
        return 0
    if args.serve:
        out = args.out if args.out != "BENCH_event_tier.json" \
            else "BENCH_serve.json"
        serve: Dict[str, dict] = {}
        for n in args.serve_scales:
            metrics = _maybe_profiled(args.profile, run_serve_scenario,
                                      int(n))
            serve[str(n)] = metrics
            print(f"  serve n={n:>5}  "
                  f"cold p99 {metrics['cold_ttr_p99_s']:>7.2f}s  "
                  f"warm p99 {metrics['warm_ttr_p99_s']:>7.2f}s  "
                  f"improvement {metrics['p99_improvement']:.2f}x  "
                  f"hit {metrics['pool_hit_ratio']:.2f}  "
                  f"wall={metrics['wall_s']:.2f}s")
        if args.profile:
            print(f"[profiled run: {out} left untouched]")
        else:
            write_report(out, {"serve": serve}, args.label,
                         merge_into=out, benchmark="serve")
            print(f"[written to {out}]")
        return 0
    if args.federation:
        out = args.out if args.out != "BENCH_event_tier.json" \
            else "BENCH_federation.json"
        federation: Dict[str, dict] = {}
        for n in args.federation_scales:
            metrics = _maybe_profiled(args.profile, run_federation_scenario,
                                      int(n))
            federation[str(n)] = metrics
            print(f"  federation n={n:>7}  "
                  f"events={metrics['events']:>10}  "
                  f"{metrics['events_per_sec']:>10.0f} ev/s  "
                  f"wall={metrics['wall_s']:.2f}s  "
                  f"makespan={metrics['makespan']:.3f}  "
                  f"nets={metrics['n_networks']}")
        if args.profile:
            print(f"[profiled run: {out} left untouched]")
        else:
            write_report(out, {"federation": federation}, args.label,
                         merge_into=out, benchmark="federation")
            print(f"[written to {out}]")
        return 0
    if args.dispatch:
        out = args.out if args.out != "BENCH_event_tier.json" \
            else "BENCH_dispatch.json"
        dispatch: Dict[str, dict] = {}
        for n in args.dispatch_scales:
            metrics = _maybe_profiled(args.profile, run_dispatch_scenario,
                                      int(n))
            dispatch[str(n)] = metrics
            print(f"  dispatch n={n:>7}  "
                  f"scalar {metrics['baseline_assignments_per_sec']:>12.0f}/s  "
                  f"cohort {metrics['cohort_assignments_per_sec']:>12.0f}/s  "
                  f"speedup {metrics['speedup']:.2f}x")
        if args.profile:
            print(f"[profiled run: {out} left untouched]")
        else:
            write_report(out, {"dispatch": dispatch}, args.label,
                         merge_into=out, benchmark="dispatch")
            print(f"[written to {out}]")
        return 0
    if args.census:
        out = args.out if args.out != "BENCH_event_tier.json" \
            else "BENCH_census.json"
        census: Dict[str, dict] = {}
        for n in args.census_scales:
            metrics = run_census_scenario(int(n))
            census[str(n)] = metrics
            print(f"  census n={n:>7}  "
                  f"baseline {metrics['baseline_consolidations_per_sec']:>12.0f}/s  "
                  f"columnar {metrics['columnar_consolidations_per_sec']:>12.0f}/s  "
                  f"speedup {metrics['speedup']:.2f}x")
        write_report(out, {"census": census}, args.label,
                     merge_into=out, benchmark="census")
        print(f"[written to {out}]")
        return 0
    if args.telemetry_overhead:
        metrics = run_telemetry_overhead(int(args.kernel_scales[0]))
        print(f"telemetry overhead (kernel n={metrics['n_timers']}): "
              f"plain {metrics['plain_events_per_sec']:.0f} ev/s, "
              f"traced(disabled) {metrics['traced_events_per_sec']:.0f} "
              f"ev/s, ratio {metrics['ratio']:.4f}")
        return 0
    print(f"event-tier perf bench — oddci {args.scales}, "
          f"kernel {args.kernel_scales} ({args.label})")
    results = _maybe_profiled(args.profile, run_scales, args.scales,
                              args.kernel_scales)
    if args.profile:
        print(f"[profiled run: {args.out} left untouched]")
    else:
        write_report(args.out, results, args.label, merge_into=args.out)
        print(f"[written to {args.out}]")
    return 0


def _maybe_profiled(top_n: int, fn, *args, **kwargs):
    """Run ``fn`` under cProfile when ``top_n`` > 0, printing the top-N
    rows by cumulative time; otherwise call it directly.

    Profiler overhead inflates wall numbers 2-4x — profiled runs are
    for finding hot spots, never for recording in BENCH artifacts.
    """
    if not top_n:
        return fn(*args, **kwargs)
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args, **kwargs)
    print(f"\n-- cProfile top {top_n} (cumulative) "
          "— wall numbers are inflated; do not record --")
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(top_n)
    return result


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
