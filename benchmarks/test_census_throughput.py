"""Census consolidation throughput guard (PR: columnar census engine).

The cohort fast path must consolidate a 10^5-member heartbeat round at
least 3x faster than the payload-by-payload baseline, and produce a
byte-identical census while doing it.  The structural test always runs
(small scale, asserts equivalence plumbing); the full-scale speedup
guard is perf-marked (``pytest benchmarks/ --run-perf``) so default
collection stays fast on loaded CI workers; ``make bench-floor`` runs
both.
"""

import time

import pytest

from benchmarks.scenario import SCENARIO, gc_paused
from repro.core.census import ColumnarCensusStore, DictCensusStore
from repro.core.controller import Controller, DirectControlPlane
from repro.core.instance import InstanceSpec, reset_instance_sequence
from repro.core.messages import HeartbeatPayload, PNAState
from repro.core.network import Router
from repro.net.broadcast import BroadcastChannel
from repro.net.crypto import KeyRegistry
from repro.sim.core import Simulator

#: The columnar engine's floor; ~9.6x at 10^5 members was recorded at
#: 757214e (the census bench record, see git history).
MIN_SPEEDUP = 3.0
CENSUS_SCALES = (100_000,)


def run_census_scenario(n_members: int, *, rounds: int = 5,
                        repeats: int = 3) -> dict:
    """Heartbeat-consolidation throughput: columnar vs per-payload.

    One cohort of ``n_members`` heartbeats (90% busy members of a live
    instance, 10% idle — the steady-state shape of a healthy fleet) is
    consolidated ``rounds`` times per engine: the dict-backed reference
    through ``_receive_batch`` (the payload-by-payload baseline) and the
    columnar store through ``_receive_cohort``.  Runs interleave and the
    best of ``repeats`` is kept.  The engines' final censuses are
    asserted equal before returning.
    """
    spec = InstanceSpec(
        target_size=max(1, (n_members * 9) // 10), image_name="bench-img",
        image_bits=SCENARIO["image_bits"],
        heartbeat_interval_s=SCENARIO["heartbeat_interval_s"])

    def build(store_cls):
        # A bare Controller (no PNA fleet): heartbeats are injected at
        # the consolidation entry points, so the measurement isolates
        # the census data path — no link math, no kernel traffic.  Reset
        # replies no-op identically on both engines (no PNA channels).
        reset_instance_sequence()
        sim = Simulator(seed=SCENARIO["seed"])
        router = Router(sim)
        plane = DirectControlPlane(
            BroadcastChannel(sim, beta_bps=1e9, name="bench.bcast"))
        controller = Controller(
            sim, router, plane, KeyRegistry(),
            maintenance_interval_s=SCENARIO["maintenance_interval_s"],
            census=store_cls(router.interner))
        iid = controller.create_instance(spec).instance_id
        payloads = [
            HeartbeatPayload(pna_id=f"pna-{i}", state=PNAState.IDLE,
                             instance_id=None) if i % 10 == 0 else
            HeartbeatPayload(pna_id=f"pna-{i}", state=PNAState.BUSY,
                             instance_id=iid)
            for i in range(n_members)]
        return controller, payloads, router.heartbeat_columns(payloads)

    baseline, base_payloads, _ = build(DictCensusStore)
    columnar, _, col_columns = build(ColumnarCensusStore)

    base_best = col_best = float("inf")
    with gc_paused():
        for _ in range(repeats):
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
        "baseline_consolidations_per_sec": round(base_cps, 1),
        "columnar_consolidations_per_sec": round(col_cps, 1),
        "speedup": round(col_cps / base_cps, 3) if base_cps else 0.0,
        "instance_size": baseline.instances[iid].size,
        "idle_estimate": baseline.idle_estimate(),
    }


def test_census_scenario_is_an_equivalence_check():
    """Small scale, always-on: the scenario itself asserts the dict and
    columnar engines consolidated identical censuses, so a green run is
    a correctness statement, not just a stopwatch."""
    metrics = run_census_scenario(2_000, rounds=2, repeats=1)
    assert metrics["n_members"] == 2_000
    assert metrics["instance_size"] == 1_800   # 90% busy members
    assert metrics["idle_estimate"] == 200     # 10% idle
    assert metrics["baseline_consolidations_per_sec"] > 0
    assert metrics["columnar_consolidations_per_sec"] > 0


@pytest.mark.perf
@pytest.mark.parametrize("n_members", list(CENSUS_SCALES))
def test_columnar_speedup_at_scale(n_members):
    metrics = run_census_scenario(n_members)
    assert metrics["speedup"] >= MIN_SPEEDUP, (
        f"columnar census fell to {metrics['speedup']:.2f}x at "
        f"n={n_members}; the tracked floor is {MIN_SPEEDUP}x")
