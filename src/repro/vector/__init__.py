"""Vector tier: array-based simulation of very large populations.

Provides the same wakeup + pull-execution semantics as the event tier,
computed with NumPy over millions of nodes:

* :class:`~repro.vector.population.VectorPopulation` — state arrays and
  bulk recruitment, with the event tier's named RNG streams.
* :class:`~repro.vector.system.VectorOddCISystem` — the event tier's
  peer and the one job pipeline (carousel wakeup sampling → greedy
  pull execution → efficiency): persistent population, sequential
  multi-job submissions on one clock, fault-plan windows, columnar
  census and telemetry.  A single job is a system with one
  ``run_job`` call.
* :mod:`~repro.vector.executor` — greedy-pull makespans (exact
  water-filling for homogeneous bags, outage-aware generalisation, heap
  for the general case).
* :class:`~repro.vector.census.VectorCensus` — struct-of-arrays census
  with the event tier's grace-window liveness and metric names.
"""

from repro.vector.census import VectorCensus
from repro.vector.executor import (
    ExecutionOutcome,
    makespan_heap,
    makespan_under_outages,
    makespan_waterfill,
    per_task_wall_seconds,
)
from repro.vector.population import VectorPopulation
from repro.vector.system import (
    VectorJobReport,
    VectorOddCISystem,
    carousel_schedule,
)

__all__ = [
    "ExecutionOutcome",
    "makespan_waterfill",
    "makespan_under_outages",
    "makespan_heap",
    "per_task_wall_seconds",
    "VectorCensus",
    "VectorPopulation",
    "VectorJobReport",
    "VectorOddCISystem",
    "carousel_schedule",
]
