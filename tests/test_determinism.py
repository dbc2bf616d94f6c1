"""Whole-system determinism: identical seeds reproduce identical runs.

Reproducibility is a first-class requirement for a simulation library —
every stochastic choice flows from named RNG streams derived from the
simulator seed, so re-running any experiment with the same seed must
give bit-identical results.
"""

import pytest

from repro.core import OddCISystem
from repro.dtv_oddci import OddCIDTVSystem
from repro.net.message import MEGABYTE, bits_from_bytes
from repro.vector import VectorOddCISystem
from repro.workloads import uniform_bag


def run_generic(seed):
    system = OddCISystem(seed=seed, maintenance_interval_s=30.0)
    system.add_pnas(10, heartbeat_interval_s=15.0, dve_poll_interval_s=5.0)
    job = uniform_bag(60, image_bits=MEGABYTE, ref_seconds=7.0)
    submission = system.provider.submit_job(job, target_size=10)
    report = system.provider.run_job_to_completion(submission, limit_s=1e7)
    return (report.makespan, report.tasks_assigned,
            report.distinct_workers, system.sim.events_executed)


def run_dtv(seed):
    system = OddCIDTVSystem(seed=seed, maintenance_interval_s=100.0,
                            pna_xlet_bits=bits_from_bytes(64 * 1024))
    system.add_receivers(5, heartbeat_interval_s=40.0,
                         dve_poll_interval_s=10.0, in_use_fraction=0.5)
    system.sim.run(until=30.0)
    job = uniform_bag(10, image_bits=MEGABYTE, ref_seconds=2.0)
    submission = system.provider.submit_job(job, target_size=5,
                                            heartbeat_interval_s=40.0)
    report = system.provider.run_job_to_completion(submission, limit_s=1e7)
    return (report.makespan, system.sim.events_executed)


def run_vector(seed):
    system = VectorOddCISystem(50_000, seed=seed)
    job = uniform_bag(100_000, image_bits=8 * MEGABYTE, ref_seconds=30.0)
    result = system.run_job(job, target_size=10_000)
    return (result.recruited, result.wakeup_mean_s, result.makespan_s)


def test_generic_system_deterministic():
    assert run_generic(42) == run_generic(42)


def test_generic_system_seed_sensitivity():
    """With a sub-1 wakeup probability the accept/drop draws are live,
    so different seeds recruit different subsets."""
    from repro.core import FixedProbability

    def run(seed):
        system = OddCISystem(seed=seed, maintenance_interval_s=1e6,
                             probability_policy=FixedProbability(0.5))
        system.add_pnas(40, heartbeat_interval_s=1e5)
        job = uniform_bag(10, image_bits=1e5, ref_seconds=1e4)
        system.provider.submit_job(job, target_size=20)
        system.sim.run(until=50.0)
        return tuple(p.pna_id for p in system.pnas
                     if p.instance_id is not None)

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_dtv_system_deterministic():
    assert run_dtv(7) == run_dtv(7)


def test_vector_tier_deterministic():
    assert run_vector(3) == run_vector(3)
    assert run_vector(3) != run_vector(4)


def test_experiment_drivers_deterministic():
    from repro.experiments import run_fig6, run_wakeup_sweep

    a = run_wakeup_sweep(vector_nodes=5000, event_readers=10, seed=1)
    b = run_wakeup_sweep(vector_nodes=5000, event_readers=10, seed=1)
    assert a == b
    c = run_fig6(sim_nodes=50, sim_ratios=(10,), seed=2)
    d = run_fig6(sim_nodes=50, sim_ratios=(10,), seed=2)
    assert c == d
