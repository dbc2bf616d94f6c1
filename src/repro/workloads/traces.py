"""Availability / churn models for receiver populations.

Set-top boxes come and go at the will of their owners (paper Section
3.2: "a PNA can generally be switched off at the will of its owner"), so
the Controller must recompose instances.  A :class:`ChurnModel` samples
alternating ON/OFF session durations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError

__all__ = ["ChurnModel"]


@dataclass(frozen=True)
class ChurnModel:
    """Exponential ON/OFF churn.

    ``mean_on_s`` / ``mean_off_s`` are the expected session durations;
    ``initial_on_probability`` is the chance a node starts in the ON
    state (steady-state default: on/(on+off)).
    """

    mean_on_s: float
    mean_off_s: float
    initial_on_probability: float = -1.0  # sentinel: steady state

    def __post_init__(self) -> None:
        if self.mean_on_s <= 0 or self.mean_off_s <= 0:
            raise WorkloadError("mean session durations must be > 0")
        if self.initial_on_probability != -1.0 and not (
                0.0 <= self.initial_on_probability <= 1.0):
            raise WorkloadError("initial_on_probability must be in [0,1]")

    @property
    def steady_state_availability(self) -> float:
        """Long-run fraction of time a node is ON."""
        return self.mean_on_s / (self.mean_on_s + self.mean_off_s)

    def start_on_probability(self) -> float:
        if self.initial_on_probability == -1.0:
            return self.steady_state_availability
        return self.initial_on_probability

    def sample_on(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_on_s))

    def sample_off(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_off_s))
