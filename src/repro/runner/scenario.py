"""Declarative experiment scenarios and the global registry.

A :class:`Scenario` captures everything the runner needs to regenerate
one paper artifact:

* a **parameter grid** — named value lists whose cartesian product is
  the set of independent *points* (one record each);
* a **per-point function** ``point(**params, **fixed, seed=...)`` that
  computes the result fields for one point (the runner merges the grid
  parameters into each record);
* a **renderer** mapping the full record list to the ASCII artifact;
* optional **smoke overrides** — a reduced grid and/or cheaper fixed
  kwargs for fast CI sweeps (``--smoke``);
* an optional **finalize** hook for cross-point derived fields (e.g.
  the tail-replication speedup, which needs both records).

Experiment modules register their scenario at import time; the registry
is populated lazily by :func:`load_scenarios` so worker processes and
the CLI resolve the same set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.analysis.sweep import grid_points
from repro.errors import ScenarioError

__all__ = ["Scenario", "register", "get_scenario", "all_scenarios",
           "scenario_ids", "load_scenarios"]

Record = Dict[str, Any]
PointFn = Callable[..., Mapping[str, Any]]
RenderFn = Callable[[List[Record]], str]
FinalizeFn = Callable[[List[Record]], List[Record]]


@dataclass(frozen=True)
class Scenario:
    """One registered experiment (see module docstring)."""

    name: str
    description: str
    point: PointFn
    renderer: RenderFn
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    fixed: Mapping[str, Any] = field(default_factory=dict)
    smoke_grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    smoke_fixed: Mapping[str, Any] = field(default_factory=dict)
    finalize: Optional[FinalizeFn] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if not callable(self.point) or not callable(self.renderer):
            raise ScenarioError(
                f"scenario {self.name!r}: point and renderer must be "
                f"callable")

    def resolved_grid(self, smoke: bool = False) -> Dict[str, Sequence]:
        """The effective grid (smoke overrides applied on top)."""
        grid = dict(self.grid)
        if smoke:
            grid.update(self.smoke_grid)
        return grid

    def resolved_fixed(self, smoke: bool = False) -> Dict[str, Any]:
        """The effective non-grid kwargs for the point function."""
        fixed = dict(self.fixed)
        if smoke:
            fixed.update(self.smoke_fixed)
        return fixed

    def points(self, smoke: bool = False) -> List[Dict[str, Any]]:
        """Grid points in deterministic order (``[{}]`` if gridless)."""
        grid = self.resolved_grid(smoke)
        if not grid:
            return [{}]
        return grid_points(grid)


_REGISTRY: Dict[str, Scenario] = {}
_LOADED = False


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the global registry; returns it (decorator-
    friendly).  Duplicate names are rejected — each experiment id maps
    to exactly one definition."""
    if scenario.name in _REGISTRY:
        raise ScenarioError(
            f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def load_scenarios() -> None:
    """Import every experiment module so registrations run.

    Idempotent; called by the lookup helpers so CLI, tests and pool
    workers all see the same registry without import-order footguns.
    """
    global _LOADED
    if _LOADED:
        return
    import repro.experiments  # noqa: F401  (registers on import)
    _LOADED = True


def get_scenario(name: str) -> Scenario:
    """Resolve an experiment id, loading the registry on first use."""
    load_scenarios()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; known: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def all_scenarios() -> List[Scenario]:
    """Every registered scenario, in registration order."""
    load_scenarios()
    return list(_REGISTRY.values())


def scenario_ids() -> List[str]:
    """Registered experiment ids, in registration order."""
    load_scenarios()
    return list(_REGISTRY)
