"""Cross-validation: the event tier and the vector tier implement the
same semantics, so on overlapping sizes their outcomes must agree.

The suite has three layers:

* **Point agreement** — single runs on small fleets, makespan and
  efficiency within the modelling differences (broadcast-message vs
  carousel wakeup, protocol chatter): rel 0.25.
* **Statistical agreement** — 8 seeds with probabilistic recruitment
  (target < fleet, so both tiers draw a binomial cohort): per-seed
  makespans within rel 0.15, seed-mean makespans within rel 0.10,
  recruited-count distributions matching the shared binomial law, and
  a churn-storm configuration whose availability agrees within
  abs 0.15 over the window both tiers cover.  Raw storm *makespans*
  diverge by design — the event tier kills victims (in-flight work is
  lost and re-dispatched after lease expiry) while the vector tier
  models suspended capacity — so the storm comparison integrates the
  instance-size series over a common horizon instead.
* **Churn analytics** — the vector tier's closed forms
  (:func:`~repro.vector.churn.effective_capacity`,
  :func:`~repro.vector.churn.makespan_under_churn`) against the event
  tier's *sampled* availability: an OddCI-DTV fleet with per-receiver
  ON/OFF churn samples ``online_count`` over time; the closed-form
  capacity curve must track it (mean abs error ≲ MC noise) and the
  makespan dilution factor must equal the reciprocal of the sampled
  availability.  The discrete tier's actual makespan upper-bounds the
  closed form (lease-expiry tails are extra).

10^4/10^5-node agreement points run under ``--run-experiments``.
"""

import numpy as np
import pytest

from repro.core import OddCISystem
from repro.core.policies import DeficitProportional
from repro.dtv_oddci import OddCIDTVSystem
from repro.faults import (
    FaultEvent,
    FaultPlan,
    active_plan,
    availability_fraction,
)
from repro.net.message import KILOBYTE, MEGABYTE, bits_from_bytes
from repro.vector import VectorOddCISystem, makespan_waterfill
from repro.vector.churn import effective_capacity, makespan_under_churn
from repro.workloads import (
    REFERENCE_PC,
    ChurnModel,
    PowerMode,
    uniform_bag,
)
from repro.workloads.devices import REFERENCE_STB
from tests.vector.heap_executor import makespan_heap


def event_tier_makespan(n_nodes, n_tasks, ref_seconds, io_bits,
                        image_bits, seed=0):
    system = OddCISystem(beta_bps=1_000_000.0, delta_bps=150_000.0,
                         delta_latency_s=0.0, seed=seed,
                         maintenance_interval_s=1e6)
    system.add_pnas(n_nodes, heartbeat_interval_s=1e5,
                    dve_poll_interval_s=5.0)
    job = uniform_bag(n_tasks, image_bits=image_bits,
                      input_bits=io_bits / 2, ref_seconds=ref_seconds,
                      result_bits=io_bits / 2)
    submission = system.provider.submit_job(job, target_size=n_nodes)
    report = system.provider.run_job_to_completion(submission, limit_s=1e8)
    return report.makespan


def vector_tier_makespan(n_nodes, n_tasks, ref_seconds, io_bits,
                         image_bits, seed=0):
    system = VectorOddCISystem(n_nodes, seed=seed, profile=REFERENCE_PC,
                               beta_bps=1_000_000.0, delta_bps=150_000.0)
    job = uniform_bag(n_tasks, image_bits=image_bits,
                      input_bits=io_bits / 2, ref_seconds=ref_seconds,
                      result_bits=io_bits / 2)
    return system.run_job(job, target_size=n_nodes).makespan_s


@pytest.mark.parametrize("n_nodes,n_tasks,ref_seconds", [
    (10, 100, 30.0),
    (20, 200, 10.0),
    (5, 25, 60.0),
])
def test_event_and_vector_makespans_agree(n_nodes, n_tasks, ref_seconds):
    """Same job, same channels: the tiers agree within the modelling
    differences (broadcast-message vs carousel wakeup, protocol chatter)."""
    kwargs = dict(io_bits=float(KILOBYTE), image_bits=2 * MEGABYTE)
    event = event_tier_makespan(n_nodes, n_tasks, ref_seconds, **kwargs)
    vector = vector_tier_makespan(n_nodes, n_tasks, ref_seconds, **kwargs)
    assert vector == pytest.approx(event, rel=0.25)


def test_heap_and_waterfill_agree_on_big_uniform_bag():
    rng = np.random.default_rng(0)
    ready = rng.uniform(0.0, 60.0, size=500)
    wf = makespan_waterfill(ready, 5_000, 3.7)
    hp = makespan_heap(ready, np.full(5_000, 3.7))
    assert wf.finish_time == pytest.approx(hp.finish_time, rel=1e-9)


def test_vector_efficiency_matches_event_derived_efficiency():
    n_nodes, n_tasks, p = 10, 200, 20.0
    kwargs = dict(io_bits=float(KILOBYTE), image_bits=2 * MEGABYTE)
    event_m = event_tier_makespan(n_nodes, n_tasks, p, **kwargs)
    vector_m = vector_tier_makespan(n_nodes, n_tasks, p, **kwargs)
    event_eff = n_tasks * p / (event_m * n_nodes)
    vector_eff = n_tasks * p / (vector_m * n_nodes)
    assert vector_eff == pytest.approx(event_eff, abs=0.12)


# ---------------------------------------------------------------------------
# Statistical agreement: probabilistic recruitment, 8 seeds.
# ---------------------------------------------------------------------------

SEEDS = tuple(range(8))
FLEET, TARGET = 600, 400
#: 1440 tasks / 400 nodes = 3.6, so the tasks-per-node ceiling is a
#: stable 4 for any recruited count in [360, 480) — both tiers draw
#: Binomial(600, 2/3) cohorts (sd ≈ 11.5), so the quantized makespan
#: never flips between seeds and the comparison measures the model,
#: not the ceiling.
TASKS, REF_S = 1440, 120.0


def _stat_job():
    return uniform_bag(TASKS, image_bits=2 * MEGABYTE, input_bits=512.0,
                       ref_seconds=REF_S, result_bits=512.0)


def _event_statistical_run(seed, plan=None, fleet=FLEET, target=TARGET,
                           job=None):
    """One event-tier run with *one-shot* probabilistic recruitment.

    ``DeficitProportional(safety=1.0)`` against a warmed census is the
    event-tier pendant of the vector tier's exact ``target/idle`` gate.
    The maintenance interval (120 s) exceeds the image-staging latency,
    so the deficit is not re-evaluated while the first cohort is still
    registering — a cold census or a short interval would re-publish
    the wakeup into a half-staged fleet and over-recruit (then trim,
    then re-dispatch the trimmed nodes' tasks: a pathology the vector
    tier deliberately does not model).
    """
    with active_plan(plan):
        system = OddCISystem(
            beta_bps=1e6, delta_bps=150e3, delta_latency_s=0.0,
            seed=seed, maintenance_interval_s=120.0,
            probability_policy=DeficitProportional(safety=1.0))
        system.add_pnas(fleet, heartbeat_interval_s=15.0,
                        dve_poll_interval_s=5.0)
        system.sim.run(until=130.0)  # one census round: idle known
        submission = system.provider.submit_job(
            job or _stat_job(), target_size=target,
            heartbeat_interval_s=15.0, lease_factor=3.0,
            release_on_completion=False)
        report = system.provider.run_job_to_completion(
            submission, limit_s=1e7)
    return system, submission, report


def _vector_statistical_run(seed, plan=None, fleet=FLEET, target=TARGET,
                            job=None):
    system = VectorOddCISystem(fleet, seed=seed, profile=REFERENCE_PC,
                               beta_bps=1e6, delta_bps=150e3,
                               heartbeat_interval_s=15.0, plan=plan)
    return system.run_job(job or _stat_job(), target_size=target)


def test_statistical_agreement_across_seeds():
    """8 seeds, recruitment probability 2/3: per-seed and seed-mean
    makespans agree, recruited cohorts follow the same binomial law."""
    event_mk, vector_mk = [], []
    event_rec, vector_rec = [], []
    for seed in SEEDS:
        _, _, ereport = _event_statistical_run(seed)
        vreport = _vector_statistical_run(seed)
        event_mk.append(ereport.makespan)
        vector_mk.append(vreport.makespan_s)
        event_rec.append(ereport.distinct_workers)
        vector_rec.append(vreport.recruited)
        # Per-seed: one carousel cycle of ramp skew at most.
        assert vreport.makespan_s == pytest.approx(
            ereport.makespan, rel=0.15)
        # Efficiency from the same definition on both sides.
        event_eff = TASKS * REF_S / (ereport.makespan
                                     * ereport.distinct_workers)
        assert vreport.efficiency == pytest.approx(event_eff, abs=0.12)
    # Seed means agree tighter than any single seed must.
    assert np.mean(vector_mk) == pytest.approx(
        np.mean(event_mk), rel=0.10)
    # Both cohorts are ~Binomial(600, 2/3): mean 400, sd 11.5.  Means
    # within a few standard errors, every draw inside the 4-sigma band
    # (the event tier's second maintenance round may add a handful).
    assert abs(np.mean(event_rec) - np.mean(vector_rec)) < 25
    assert all(355 <= r <= 450 for r in event_rec + vector_rec)
    assert all(355 <= r <= 450 for r in vector_rec)


STORM_PLAN = FaultPlan((FaultEvent(kind="churn_storm", time=150.0,
                                   duration_s=120.0, magnitude=0.3),),
                       name="tier-agreement-storm")


def test_storm_availability_agrees_over_common_window():
    """Churn storm: availability integrated over the window both tiers
    cover agrees within abs 0.15, even though raw makespans diverge
    (kill + lease-expiry re-dispatch vs suspended capacity)."""
    n, tasks, ref = 300, 900, 60.0
    job = uniform_bag(tasks, image_bits=2 * MEGABYTE, input_bits=512.0,
                      ref_seconds=ref, result_bits=512.0)
    for seed in (0, 1):
        with active_plan(STORM_PLAN):
            system = OddCISystem(
                beta_bps=1e6, delta_bps=150e3, delta_latency_s=0.0,
                seed=seed, maintenance_interval_s=30.0)
            system.add_pnas(n, heartbeat_interval_s=15.0,
                            dve_poll_interval_s=5.0)
            submission = system.provider.submit_job(
                job, target_size=n, heartbeat_interval_s=15.0,
                lease_factor=3.0, release_on_completion=False)
            ereport = system.provider.run_job_to_completion(
                submission, limit_s=1e7)
        eseries = system.controller.size_history[submission.instance_id]
        vsys = VectorOddCISystem(n, seed=seed, profile=REFERENCE_PC,
                                 beta_bps=1e6, delta_bps=150e3,
                                 heartbeat_interval_s=15.0,
                                 plan=STORM_PLAN)
        vreport = vsys.run_job(job, target_size=n)
        horizon = min(ereport.completed_at, vreport.finish_time)
        event_avail = float(availability_fraction(
            eseries, n, size_tolerance=0.1, until=horizon))
        vector_avail = float(availability_fraction(
            vreport.size_series, n, size_tolerance=0.1, until=horizon))
        assert vector_avail == pytest.approx(event_avail, abs=0.15)
        # The storm must cost availability on both sides.
        assert event_avail < 0.9
        assert vreport.availability < 0.95
        # And stretch the vector makespan beyond the clean run.
        clean = VectorOddCISystem(n, seed=seed, profile=REFERENCE_PC,
                                  beta_bps=1e6, delta_bps=150e3)
        assert vreport.makespan_s > clean.run_job(
            job, target_size=n).makespan_s


# ---------------------------------------------------------------------------
# Churn analytics vs the event tier's sampled availability.
# ---------------------------------------------------------------------------

CHURN = ChurnModel(mean_on_s=1200.0, mean_off_s=300.0,
                   initial_on_probability=1.0)


def _dtv_fleet(n, seed=23, heartbeat_interval_s=120.0,
               dve_poll_interval_s=30.0):
    system = OddCIDTVSystem(beta_bps=4e6, seed=seed,
                            maintenance_interval_s=120.0,
                            pna_xlet_bits=bits_from_bytes(64 * 1024))
    system.add_receivers(n, heartbeat_interval_s=heartbeat_interval_s,
                         dve_poll_interval_s=dve_poll_interval_s,
                         churn=CHURN)
    return system


def test_effective_capacity_matches_dtv_sampled_availability():
    """The closed-form capacity curve tracks the DTV tier's sampled
    online fraction: every receiver churns ON/OFF per the same model,
    so a(t) = a_inf + (1-a_inf)exp(-rate t) must match the fleet's
    online_count within Monte-Carlo noise (n=60: sigma ~ 0.05)."""
    n = 60
    system = _dtv_fleet(n)
    errors = []
    for t in range(200, 3001, 140):
        system.sim.run(until=float(t))
        sampled = system.online_count() / n
        errors.append(sampled - effective_capacity(CHURN, float(t)))
    errors = np.asarray(errors)
    assert np.abs(errors).mean() < 0.10
    assert abs(errors.mean()) < 0.06      # no systematic bias
    assert np.abs(errors).max() < 0.20
    # Steady state: the sampled tail sits at a_inf = 0.8.
    tail = errors[-8:] + np.array(
        [effective_capacity(CHURN, float(t))
         for t in range(3000 - 7 * 140, 3001, 140)])
    assert tail.mean() == pytest.approx(
        CHURN.steady_state_availability, abs=0.08)


def test_makespan_under_churn_dilution_matches_sampled_availability():
    """makespan_under_churn's dilution factor is the reciprocal of the
    availability the event tier actually samples, and the DTV tier's
    makespan upper-bounds the closed form (lease-expiry re-dispatch
    tails are on top of pure capacity loss)."""
    n_nodes, n_tasks = 12, 480
    factor = REFERENCE_STB.factor(PowerMode.STANDBY)
    wall = 2.0 * factor
    ready = np.zeros(n_nodes)
    predicted = makespan_under_churn(ready, n_tasks, wall, CHURN,
                                     recomposition_lag_s=90.0)
    clean = makespan_under_churn(ready, n_tasks, wall, None)
    dilution = predicted.finish_time / clean.finish_time
    assert dilution > 1.0

    # Sampled availability over the predicted horizon, from a DTV fleet
    # churning per the same model (larger n to tame MC noise).
    n = 60
    system = _dtv_fleet(n)
    samples = []
    step = predicted.finish_time / 24.0
    for k in range(1, 25):
        system.sim.run(until=k * step)
        samples.append(system.online_count() / n)
    sampled_avail = float(np.mean(samples))
    assert dilution == pytest.approx(1.0 / sampled_avail, rel=0.12)

    # The discrete tier pays lease-expiry tails on top: its makespan
    # must exceed the capacity-only closed form.
    dtv = OddCIDTVSystem(beta_bps=4e6, seed=5,
                         maintenance_interval_s=60.0,
                         pna_xlet_bits=bits_from_bytes(64 * 1024))
    dtv.add_receivers(n_nodes, heartbeat_interval_s=30.0,
                      dve_poll_interval_s=10.0, churn=CHURN)
    dtv.sim.run(until=60.0)
    job = uniform_bag(n_tasks, image_bits=MEGABYTE, ref_seconds=2.0)
    submission = dtv.provider.submit_job(job, target_size=n_nodes,
                                         heartbeat_interval_s=30.0,
                                         lease_factor=1.5)
    report = dtv.provider.run_job_to_completion(submission, limit_s=1e7)
    assert report.makespan > predicted.finish_time


# ---------------------------------------------------------------------------
# Large-N agreement (10^4, 10^5) — experiments tier.
# ---------------------------------------------------------------------------

@pytest.mark.experiments
@pytest.mark.parametrize("n_nodes,seed", [
    (10_000, 0), (10_000, 1), (100_000, 0),
])
def test_large_scale_agreement(n_nodes, seed):
    """The tiers keep agreeing at 10^4-10^5 nodes (census and
    heartbeats idled so the event tier's cost stays linear)."""
    n_tasks, ref = 4 * n_nodes, 120.0
    kwargs = dict(io_bits=float(KILOBYTE), image_bits=2 * MEGABYTE,
                  seed=seed)
    event = event_tier_makespan(n_nodes, n_tasks, ref, **kwargs)
    vector = vector_tier_makespan(n_nodes, n_tasks, ref, **kwargs)
    assert vector == pytest.approx(event, rel=0.15)
