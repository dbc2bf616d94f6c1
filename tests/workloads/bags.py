"""Bag generators only tests use: log-normal, Weibull and parametric
bags, the suitability Φ of a job and whether it is parametric.  (The
programs build uniform and Φ-parameterised bags,
:mod:`repro.workloads.bot`.)"""

import numpy as np

from repro.errors import WorkloadError
from repro.net.message import KILOBYTE, MEGABYTE
from repro.workloads.job import Job, TaskTable


def lognormal_bag(
    n: int,
    rng: np.random.Generator,
    *,
    image_bits: float = 10 * MEGABYTE,
    mean_ref_seconds: float = 60.0,
    sigma: float = 0.5,
    input_bits: float = KILOBYTE / 2,
    result_bits: float = KILOBYTE / 2,
    name: str = "lognormal-bag",
) -> Job:
    """Tasks with log-normal durations around ``mean_ref_seconds``.

    ``sigma`` is the log-space standard deviation; the log-space mean is
    adjusted so the arithmetic mean equals ``mean_ref_seconds``.
    """
    if n <= 0:
        raise WorkloadError(f"n must be > 0, got {n}")
    if mean_ref_seconds <= 0:
        raise WorkloadError("mean_ref_seconds must be > 0")
    if sigma < 0:
        raise WorkloadError("sigma must be >= 0")
    mu = np.log(mean_ref_seconds) - sigma**2 / 2.0
    durations = rng.lognormal(mean=mu, sigma=sigma, size=n)
    tasks = TaskTable(range(n), input_bits, np.maximum(durations, 1e-9),
                      result_bits)
    return Job(image_bits=image_bits, tasks=tasks, name=name)


def parametric_bag(
    n: int,
    *,
    image_bits: float = 10 * MEGABYTE,
    ref_seconds: float = 1.0,
    result_bits: float = KILOBYTE,
    name: str = "parametric-bag",
) -> Job:
    """Parametric application: tasks need no input staging (s = 0)."""
    if n <= 0:
        raise WorkloadError(f"n must be > 0, got {n}")
    tasks = TaskTable(range(n), 0.0, ref_seconds, result_bits)
    return Job(image_bits=image_bits, tasks=tasks, name=name)


def phi_of_job(job: Job, delta_bps: float) -> float:
    """Suitability Φ = δ·p̄ / (s̄ + r̄) of a job on channels of rate δ."""
    if delta_bps <= 0:
        raise WorkloadError("delta_bps must be > 0")
    stats = job.stats()
    if stats.mean_io_bits == 0:
        raise WorkloadError(
            "phi undefined for jobs with zero I/O (fully parametric, "
            "zero-size results)")
    return delta_bps * stats.mean_ref_seconds / stats.mean_io_bits


def weibull_bag(
    n: int,
    rng: np.random.Generator,
    *,
    image_bits: float = 10 * MEGABYTE,
    mean_ref_seconds: float = 60.0,
    shape: float = 0.7,
    input_bits: float = KILOBYTE / 2,
    result_bits: float = KILOBYTE / 2,
    name: str = "weibull-bag",
) -> Job:
    """Heavy-tailed task durations (Weibull with shape < 1).

    MTC traces show heavy tails; shape ≈ 0.7 produces occasional tasks
    many times the mean — the regime where tail replication and LPT
    dispatch earn their keep.  The scale is set so the arithmetic mean
    equals ``mean_ref_seconds``.
    """
    if n <= 0:
        raise WorkloadError(f"n must be > 0, got {n}")
    if mean_ref_seconds <= 0:
        raise WorkloadError("mean_ref_seconds must be > 0")
    if shape <= 0:
        raise WorkloadError("shape must be > 0")
    from scipy.special import gamma as _gamma

    scale = mean_ref_seconds / _gamma(1.0 + 1.0 / shape)
    durations = scale * rng.weibull(shape, size=n)
    tasks = TaskTable(range(n), input_bits, np.maximum(durations, 1e-9),
                      result_bits)
    return Job(image_bits=image_bits, tasks=tasks, name=name)


def is_parametric(job: Job) -> bool:
    """True when no task of ``job`` needs input staged (all ``s == 0``)."""
    return not bool((job.tasks.input_bits != 0).any())
