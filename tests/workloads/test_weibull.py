"""Tests for the heavy-tailed Weibull bag generator."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from tests.workloads.bags import weibull_bag


def test_mean_matches_target():
    rng = np.random.default_rng(0)
    job = weibull_bag(20_000, rng, mean_ref_seconds=60.0, shape=0.7)
    assert job.stats().mean_ref_seconds == pytest.approx(60.0, rel=0.05)


def test_heavy_tail_present():
    """shape < 1: the maximum is many times the mean (unlike uniform)."""
    rng = np.random.default_rng(1)
    job = weibull_bag(5000, rng, mean_ref_seconds=10.0, shape=0.6)
    durations = [t.ref_seconds for t in job.tasks]
    assert max(durations) > 8 * np.mean(durations)


def test_shape_one_is_exponential_like():
    rng = np.random.default_rng(2)
    job = weibull_bag(20_000, rng, mean_ref_seconds=5.0, shape=1.0)
    durations = np.array([t.ref_seconds for t in job.tasks])
    # exponential: std ~ mean
    assert durations.std() == pytest.approx(durations.mean(), rel=0.1)


def test_all_durations_positive():
    rng = np.random.default_rng(3)
    job = weibull_bag(1000, rng, shape=0.5)
    assert all(t.ref_seconds > 0 for t in job.tasks)


def test_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(WorkloadError):
        weibull_bag(0, rng)
    with pytest.raises(WorkloadError):
        weibull_bag(5, rng, mean_ref_seconds=0)
    with pytest.raises(WorkloadError):
        weibull_bag(5, rng, shape=0)


def test_tail_replication_pays_off_on_weibull_bags():
    """End-to-end: heavy-tailed bags are where replication helps even on
    a homogeneous fleet (re-run of a stuck long task is pure waste, but
    replicating the tail-end stragglers trims the finish)."""
    from repro.core import OddCISystem

    def run(replicate):
        system = OddCISystem(seed=9, maintenance_interval_s=1e6)
        system.add_pnas(6, heartbeat_interval_s=1e5,
                        dve_poll_interval_s=2.0)
        rng = np.random.default_rng(4)
        job = weibull_bag(36, rng, image_bits=1e6, mean_ref_seconds=20.0,
                          shape=0.6, name=f"wb-{replicate}")
        submission = system.provider.submit_job(
            job, target_size=6, replicate_tail=replicate)
        return system.provider.run_job_to_completion(
            submission, limit_s=1e8).makespan

    base = run(False)
    repl = run(True)
    # Homogeneous fleet: replication cannot *hurt* the makespan beyond
    # protocol noise, and often helps.
    assert repl <= base * 1.05
