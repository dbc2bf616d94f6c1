"""Measurement utilities: time series and counters.

Every experiment in the benchmark harness observes the simulation through
these monitors rather than poking at component internals, which keeps the
observation side-effect free and the components unit-testable.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError

__all__ = ["TimeSeries", "Counter"]


class TimeSeries:
    """Append-only (time, value) series with step-function semantics.

    Used for instance sizes, queue lengths, controller load, etc.  Its
    readers (:mod:`repro.faults.availability`) treat the series as
    piecewise constant (value holds until the next sample).
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise AnalysisError(
                f"non-monotone sample at t={time} (< {self._times[-1]})")
        self._times.append(float(time))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def last(self) -> float:
        if not self._values:
            raise AnalysisError(f"time series {self.name!r} is empty")
        return self._values[-1]

    def max(self) -> float:
        if not self._values:
            raise AnalysisError(f"time series {self.name!r} is empty")
        return float(np.max(self.values))

    def min(self) -> float:
        if not self._values:
            raise AnalysisError(f"time series {self.name!r} is empty")
        return float(np.min(self.values))


class Counter:
    """Named monotone counters (messages sent, tasks done, ...)."""

    def __init__(self):
        self._counts: dict[str, int] = {}

    def incr(self, key: str, amount: int = 1) -> None:
        if amount < 0:
            raise AnalysisError(f"counter increment must be >= 0, got {amount}")
        self._counts[key] = self._counts.get(key, 0) + amount

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self._counts!r})"
