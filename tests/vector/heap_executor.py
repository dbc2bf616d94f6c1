"""Greedy pull scheduling with a heap: the oracle of the vectorised
executors.

Heterogeneous tasks, shared queue: each task goes to the node that
frees up earliest, O(n log N).  ``tests/vector/test_executor.py`` and
``tests/test_tier_agreement.py`` check the water-filling executor
against it.
"""

import heapq
from typing import Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.vector.executor import ExecutionOutcome


def makespan_heap(
    ready_times: np.ndarray,
    task_wall_seconds: Sequence[float],
) -> ExecutionOutcome:
    """General greedy pull scheduling: heterogeneous tasks, shared queue.

    Tasks are handed out in order; each goes to the node that frees up
    earliest.  O(n log N).
    """
    ready = np.asarray(ready_times, dtype=float)
    durations = np.asarray(task_wall_seconds, dtype=float)
    if ready.ndim != 1 or ready.size == 0:
        raise AnalysisError("ready_times must be a non-empty 1-D array")
    if durations.ndim != 1 or durations.size == 0:
        raise AnalysisError("task_wall_seconds must be a non-empty 1-D array")
    if np.any(durations <= 0):
        raise AnalysisError("task durations must be > 0")

    # Hoist numpy out of the hot loop: native-float lists iterate ~5x
    # faster than ndarray element access, and the heap then holds plain
    # (float, int) tuples.
    ready_list = ready.tolist()
    dur_list = durations.tolist()
    n_nodes = len(ready_list)

    if durations.size <= n_nodes and ready.min() == ready.max():
        # Uniform-ready shortcut: with every node free at the same
        # instant and no more tasks than nodes, greedy pull hands task j
        # to node j — no heap needed.
        start = ready_list[0]
        return ExecutionOutcome(
            finish_time=start + max(dur_list),
            n_tasks=int(durations.size),
            n_nodes=n_nodes,
            tasks_per_node_max=1,
        )

    heap = [(t, i) for i, t in enumerate(ready_list)]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    counts = [0] * n_nodes
    finish = min(ready_list)
    for dur in dur_list:
        available, idx = heappop(heap)
        done = available + dur
        counts[idx] += 1
        if done > finish:
            finish = done
        heappush(heap, (done, idx))
    return ExecutionOutcome(
        finish_time=finish,
        n_tasks=int(durations.size),
        n_nodes=n_nodes,
        tasks_per_node_max=max(counts),
    )
