"""Tests for the job model and bag-of-tasks generators."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.net.message import KILOBYTE, MEGABYTE
from repro.workloads import (
    Job,
    Task,
    bag_from_phi,
    uniform_bag,
)
from tests.workloads.bags import (is_parametric, lognormal_bag, parametric_bag,
                                  phi_of_job)


# -- Task -----------------------------------------------------------------

def test_task_validation():
    with pytest.raises(WorkloadError):
        Task(task_id=-1, input_bits=0, ref_seconds=1, result_bits=0)
    with pytest.raises(WorkloadError):
        Task(task_id=0, input_bits=-1, ref_seconds=1, result_bits=0)
    with pytest.raises(WorkloadError):
        Task(task_id=0, input_bits=0, ref_seconds=0, result_bits=0)
    with pytest.raises(WorkloadError):
        Task(task_id=0, input_bits=0, ref_seconds=1, result_bits=-1)


def test_task_io_bits():
    t = Task(task_id=0, input_bits=100, ref_seconds=1, result_bits=50)
    assert t.io_bits == 150


# -- Job -----------------------------------------------------------------

def test_job_validation():
    t = Task(task_id=0, input_bits=0, ref_seconds=1, result_bits=0)
    with pytest.raises(WorkloadError):
        Job(image_bits=0, tasks=(t,))
    with pytest.raises(WorkloadError):
        Job(image_bits=1, tasks=())
    with pytest.raises(WorkloadError):
        Job(image_bits=1, tasks=(t, t))  # duplicate ids


def test_job_stats():
    tasks = tuple(Task(task_id=i, input_bits=100 * (i + 1), ref_seconds=i + 1,
                       result_bits=10)
                  for i in range(4))
    job = Job(image_bits=1e6, tasks=tasks)
    stats = job.stats()
    assert stats.n == 4
    assert stats.mean_input_bits == pytest.approx(250.0)
    assert stats.mean_ref_seconds == pytest.approx(2.5)
    assert stats.mean_result_bits == pytest.approx(10.0)
    assert stats.mean_io_bits == pytest.approx(260.0)
    assert job.total_ref_seconds() == pytest.approx(10.0)


def test_job_ids_unique():
    a = uniform_bag(2)
    b = uniform_bag(2)
    assert a.job_id != b.job_id


# -- generators -----------------------------------------------------------

def test_uniform_bag_shape():
    job = uniform_bag(10, input_bits=512, ref_seconds=2.0, result_bits=256)
    assert job.n == 10
    assert all(t.input_bits == 512 for t in job.tasks)
    assert all(t.ref_seconds == 2.0 for t in job.tasks)
    assert not is_parametric(job)
    with pytest.raises(WorkloadError):
        uniform_bag(0)


def test_parametric_bag_has_no_inputs():
    job = parametric_bag(5)
    assert is_parametric(job)
    assert all(t.input_bits == 0 for t in job.tasks)
    with pytest.raises(WorkloadError):
        parametric_bag(-1)


def test_lognormal_bag_mean_close_to_target():
    rng = np.random.default_rng(0)
    job = lognormal_bag(5000, rng, mean_ref_seconds=60.0, sigma=0.5)
    stats = job.stats()
    assert stats.mean_ref_seconds == pytest.approx(60.0, rel=0.05)
    assert all(t.ref_seconds > 0 for t in job.tasks)


def test_lognormal_bag_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(WorkloadError):
        lognormal_bag(0, rng)
    with pytest.raises(WorkloadError):
        lognormal_bag(5, rng, mean_ref_seconds=0)
    with pytest.raises(WorkloadError):
        lognormal_bag(5, rng, sigma=-1)


def test_bag_from_phi_roundtrip():
    """phi_of_job recovers the Φ a bag was generated with."""
    delta = 150_000.0
    for phi in (1.0, 10.0, 1000.0, 1e5):
        job = bag_from_phi(100, phi, delta_bps=delta)
        assert phi_of_job(job, delta) == pytest.approx(phi)


def test_bag_from_phi_paper_examples():
    """Paper Section 5.2.2: with (s+r)=1 KB and delta=150 kbps,
    phi=1 gives p ~ 53-55 ms and phi=100000 gives p ~ 1.5 h."""
    delta = 150_000.0
    job1 = bag_from_phi(10, 1.0, delta_bps=delta, io_bits=KILOBYTE)
    p1 = job1.stats().mean_ref_seconds
    assert 0.05 < p1 < 0.06  # ~54.6 ms

    job2 = bag_from_phi(10, 1e5, delta_bps=delta, io_bits=KILOBYTE)
    p2 = job2.stats().mean_ref_seconds
    assert 5000 < p2 < 6000  # ~1.5 hours


def test_bag_from_phi_validation():
    with pytest.raises(WorkloadError):
        bag_from_phi(10, 0.0)
    with pytest.raises(WorkloadError):
        bag_from_phi(10, 1.0, delta_bps=0)
    with pytest.raises(WorkloadError):
        bag_from_phi(10, 1.0, io_bits=0)


def test_phi_of_job_validation():
    job = parametric_bag(3, result_bits=0.0) if False else None
    # zero-IO job cannot be built via parametric_bag(result_bits=0)?
    # It can: result_bits=0 and input_bits=0 -> io == 0.
    zero_io = Job(image_bits=1e6, tasks=(
        Task(task_id=0, input_bits=0, ref_seconds=1, result_bits=0),))
    with pytest.raises(WorkloadError):
        phi_of_job(zero_io, 150_000.0)
    with pytest.raises(WorkloadError):
        phi_of_job(uniform_bag(2), 0.0)
