"""Common interface for DCI comparator models (paper Table I).

Each model answers two questions for a requested scale ``n``:

* :meth:`DCIModel.provision` — how many nodes can actually be acquired,
  how long until they are ready, and whether per-node manual effort is
  involved;
* :meth:`DCIModel.job_makespan` — end-to-end makespan of a bag-of-tasks
  job on the acquired fleet, including the model's image-staging path
  (broadcast vs per-node unicast vs shared store).

:func:`evaluate_requirements` converts those answers into the paper's
three ✓/✗ requirement columns using explicit thresholds, so Table I is
*derived* from the models instead of hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import BaselineError
from repro.workloads.job import Job

__all__ = ["ProvisionResult", "DCIModel", "RequirementThresholds",
           "evaluate_requirements", "REQUIREMENTS"]

#: The paper's requirement names, in Table I order.
REQUIREMENTS = ("extremely_high_scalability", "on_demand_instantiation",
                "efficient_setup")


@dataclass(frozen=True)
class ProvisionResult:
    """Outcome of trying to assemble ``requested`` nodes."""

    requested: int
    acquired: int
    ready_time_s: float
    per_node_manual_effort: bool
    notes: str = ""

    def __post_init__(self) -> None:
        if self.requested <= 0:
            raise BaselineError("requested must be > 0")
        if self.acquired < 0 or self.acquired > self.requested:
            raise BaselineError(
                f"acquired must be in [0, requested], got {self.acquired}")
        if self.ready_time_s < 0:
            raise BaselineError("ready_time_s must be >= 0")


class DCIModel:
    """Base class for distributed-computing-infrastructure models."""

    #: Human-readable technology name.
    name: str = "abstract"
    #: Hard ceiling on assembled nodes (None = effectively unbounded).
    max_scale: Optional[int] = None
    #: Can instances be created/resized/destroyed programmatically?
    programmatic_lifecycle: bool = False

    def provision(self, n: int) -> ProvisionResult:
        raise NotImplementedError

    def staging_time(self, image_bits: float, n_nodes: int) -> float:
        """Time to deliver the application image to ``n_nodes`` nodes."""
        raise NotImplementedError

    def job_makespan(self, job: Job, n: int) -> float:
        """Makespan of ``job`` at requested scale ``n`` (provision +
        stage + execute with pull scheduling on homogeneous nodes)."""
        result = self.provision(n)
        if result.acquired == 0:
            raise BaselineError(
                f"{self.name}: no nodes acquired at scale {n}")
        stats = job.stats()
        per_task = stats.mean_io_bits / self.delta_bps + \
            stats.mean_ref_seconds
        execute = (job.n / result.acquired) * per_task
        return (result.ready_time_s
                + self.staging_time(job.image_bits, result.acquired)
                + execute)

    #: Direct-channel rate used in job execution (paper's δ).
    delta_bps: float = 150_000.0


@dataclass(frozen=True)
class RequirementThresholds:
    """Thresholds converting measurements into Table I checkmarks.

    * scalability: can the model assemble ``scalability_scale`` nodes at
      all (in finite time)?  Slowness is judged by the other columns —
      the paper credits voluntary computing with this requirement even
      though growth takes months.
    * on-demand: can ``on_demand_scale`` nodes be provisioned
      programmatically within ``on_demand_horizon_s`` (and torn down /
      reassigned the same way)?
    * efficient setup: is ``setup_scale`` ready within
      ``setup_horizon_s`` with **no** per-node manual effort?
    """

    scalability_scale: int = 1_000_000
    on_demand_scale: int = 100
    on_demand_horizon_s: float = 3600.0
    setup_scale: int = 10_000
    setup_horizon_s: float = 3600.0


def evaluate_requirements(
    model: DCIModel,
    thresholds: RequirementThresholds = RequirementThresholds(),
) -> Dict[str, bool]:
    """Derive the Table I row of ``model``."""
    out: Dict[str, bool] = {}

    import math

    big = model.provision(thresholds.scalability_scale)
    out["extremely_high_scalability"] = (
        big.acquired >= thresholds.scalability_scale
        and math.isfinite(big.ready_time_s))

    small = model.provision(thresholds.on_demand_scale)
    out["on_demand_instantiation"] = (
        model.programmatic_lifecycle
        and small.acquired >= thresholds.on_demand_scale
        and small.ready_time_s <= thresholds.on_demand_horizon_s)

    mid = model.provision(thresholds.setup_scale)
    out["efficient_setup"] = (
        mid.acquired >= thresholds.setup_scale
        and mid.ready_time_s <= thresholds.setup_horizon_s
        and not mid.per_node_manual_effort)
    return out
