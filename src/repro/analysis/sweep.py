"""Parameter-grid plumbing for the scenario runner.

``grid_points`` expands a named parameter grid into its cartesian
product of points.  ``run_points`` applies a function to an ordered
list of keyword calls either in-process or on a
``ProcessPoolExecutor``, always returning results in submission order
so parallel sweeps are indistinguishable from serial ones.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Mapping, Sequence

from repro.errors import AnalysisError

__all__ = ["grid_points", "run_points"]


def grid_points(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of a named parameter grid, as dicts.

    Iteration order is deterministic: the first named parameter varies
    slowest.
    """
    if not grid:
        raise AnalysisError("empty parameter grid")
    names = list(grid)
    for name in names:
        values = grid[name]
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise AnalysisError(
                f"grid entry {name!r} must be a non-empty list/tuple")
    combos = itertools.product(*(grid[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def run_points(
    fn: Callable[..., Any],
    calls: Sequence[Mapping[str, Any]],
    *,
    jobs: int = 1,
) -> List[Any]:
    """Apply ``fn(**call)`` to every call mapping, preserving order.

    ``jobs > 1`` fans the calls out over a process pool; results still
    come back in submission order, so callers see identical output for
    any worker count.  In that mode ``fn`` and every call value must be
    picklable (module-level functions and plain data).
    """
    if jobs < 1:
        raise AnalysisError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(calls) <= 1:
        return [fn(**call) for call in calls]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(calls))) as pool:
        futures = [pool.submit(fn, **call) for call in calls]
        return [future.result() for future in futures]

