"""Bag-of-tasks workload generators.

These build :class:`~repro.workloads.job.Job` instances for the
experiments: uniform bags (the paper's homogeneous analysis), their
constant-space vector-tier stand-in, and the Φ-parameterised bags used
by Figures 6 and 7.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import WorkloadError
from repro.net.message import KILOBYTE, MEGABYTE
from repro.workloads.job import Job, JobStats, TaskTable

__all__ = [
    "BagSpec",
    "uniform_bag",
    "uniform_bag_spec",
    "bag_from_phi",
]


from dataclasses import dataclass


@dataclass(frozen=True)
class BagSpec:
    """Constant-space stand-in for a uniform bag at vector scale.

    A 10⁷-node vector run executes ~10⁸ identical tasks; materialising
    that many :class:`~repro.workloads.job.Task` objects costs gigabytes
    for information three floats carry.  ``BagSpec`` quacks like a
    uniform :class:`~repro.workloads.job.Job` for everything the vector
    tier reads (``n``, ``image_bits``, ``stats()``,
    ``total_ref_seconds()``) without holding any task tuple; the event
    tier keeps requiring a real Job (it dispatches individual tasks).
    """

    n_tasks: int
    image_bits: float
    input_bits: float
    ref_seconds: float
    result_bits: float
    name: str = "uniform-bag-spec"

    def __post_init__(self) -> None:
        if self.n_tasks <= 0:
            raise WorkloadError(f"n_tasks must be > 0, got {self.n_tasks}")
        if self.image_bits <= 0 or self.ref_seconds <= 0:
            raise WorkloadError("image_bits and ref_seconds must be > 0")
        if self.input_bits < 0 or self.result_bits < 0:
            raise WorkloadError("I/O sizes must be >= 0")

    @property
    def n(self) -> int:
        return self.n_tasks

    def stats(self) -> JobStats:
        return JobStats(
            n=self.n_tasks,
            mean_input_bits=float(self.input_bits),
            mean_ref_seconds=float(self.ref_seconds),
            mean_result_bits=float(self.result_bits),
        )

    def total_ref_seconds(self) -> float:
        return self.n_tasks * self.ref_seconds


def uniform_bag_spec(
    n: int,
    *,
    image_bits: float = 10 * MEGABYTE,
    input_bits: float = KILOBYTE / 2,
    ref_seconds: float = 1.0,
    result_bits: float = KILOBYTE / 2,
    name: str = "uniform-bag-spec",
) -> BagSpec:
    """The :func:`uniform_bag` parameters as a :class:`BagSpec` (same
    defaults, no task materialisation)."""
    return BagSpec(n_tasks=n, image_bits=image_bits,
                   input_bits=input_bits, ref_seconds=ref_seconds,
                   result_bits=result_bits, name=name)


def uniform_bag(
    n: int,
    *,
    image_bits: float = 10 * MEGABYTE,
    input_bits: float = KILOBYTE / 2,
    ref_seconds: float = 1.0,
    result_bits: float = KILOBYTE / 2,
    name: str = "uniform-bag",
) -> Job:
    """``n`` identical tasks — the paper's homogeneous job model."""
    if n <= 0:
        raise WorkloadError(f"n must be > 0, got {n}")
    return Job(image_bits=image_bits,
               tasks=TaskTable(range(n), input_bits, ref_seconds, result_bits),
               name=name)


def bag_from_phi(
    n: int,
    phi: float,
    *,
    delta_bps: float = 150_000.0,
    io_bits: float = KILOBYTE,
    image_bits: float = 10 * MEGABYTE,
    name: Optional[str] = None,
) -> Job:
    """Job whose suitability ratio is exactly ``phi``.

    The paper defines the suitability of an application as the
    compute/communication ratio Φ = δ·p / (s + r) (see DESIGN.md on the
    sign of the published formula).  Given Φ, δ and (s+r) this derives
    the per-task compute cost ``p = Φ·(s+r)/δ`` and splits the I/O
    equally between input and result.
    """
    if phi <= 0:
        raise WorkloadError(f"phi must be > 0, got {phi}")
    if delta_bps <= 0:
        raise WorkloadError("delta_bps must be > 0")
    if io_bits <= 0:
        raise WorkloadError("io_bits must be > 0")
    p = phi * io_bits / delta_bps
    return uniform_bag(
        n,
        image_bits=image_bits,
        input_bits=io_bits / 2.0,
        ref_seconds=p,
        result_bits=io_bits / 2.0,
        name=name or f"phi-{phi:g}-bag",
    )
