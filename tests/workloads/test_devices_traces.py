"""Tests for device profiles and churn traces."""

import bisect
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, WorkloadError
from repro.workloads import (
    ChurnModel,
    DeviceProfile,
    PowerMode,
    REFERENCE_PC,
    REFERENCE_STB,
    STB_IN_USE_OVER_PC,
    STB_IN_USE_OVER_STANDBY,
)


@dataclass(frozen=True)
class AvailabilityTrace:
    """Alternating availability timeline for one node (a test-only
    reading of a :class:`ChurnModel`'s sessions).

    ``transitions`` is a sorted tuple of times at which the state flips;
    ``initial_on`` is the state before the first transition.  The trace
    covers ``[0, horizon)``; queries beyond the horizon raise.
    """

    transitions: Tuple[float, ...]
    initial_on: bool
    horizon: float

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise WorkloadError("horizon must be > 0")
        last = -1.0
        for t in self.transitions:
            if t <= last:
                raise WorkloadError("transitions must be strictly increasing")
            if t < 0 or t >= self.horizon:
                raise WorkloadError("transitions must lie within [0, horizon)")
            last = t

    def is_on(self, t: float) -> bool:
        """State at time ``t``."""
        if not 0 <= t < self.horizon:
            raise WorkloadError(f"t={t} outside [0, {self.horizon})")
        flips = bisect.bisect_right(self.transitions, t)
        return self.initial_on if flips % 2 == 0 else not self.initial_on

    def on_fraction(self) -> float:
        """Fraction of the horizon spent ON."""
        total_on = 0.0
        state = self.initial_on
        prev = 0.0
        for t in self.transitions:
            if state:
                total_on += t - prev
            state = not state
            prev = t
        if state:
            total_on += self.horizon - prev
        return total_on / self.horizon

    def segments(self) -> Iterator[Tuple[float, float, bool]]:
        """Yield ``(start, end, on)`` segments covering the horizon."""
        state = self.initial_on
        prev = 0.0
        for t in self.transitions:
            yield prev, t, state
            state = not state
            prev = t
        yield prev, self.horizon, state


def generate_trace(
    model: ChurnModel,
    horizon: float,
    rng: np.random.Generator,
) -> AvailabilityTrace:
    """Sample one node's availability trace over ``[0, horizon)`` (a
    test-only generator)."""
    if horizon <= 0:
        raise WorkloadError("horizon must be > 0")
    initial_on = bool(rng.random() < model.start_on_probability())
    transitions = []
    t = 0.0
    state = initial_on
    while True:
        duration = (model.sample_on(rng) if state else model.sample_off(rng))
        t += duration
        if t >= horizon:
            break
        transitions.append(t)
        state = not state
    return AvailabilityTrace(
        transitions=tuple(transitions), initial_on=initial_on,
        horizon=horizon)


# -- DeviceProfile -----------------------------------------------------------

def test_reference_pc_is_unit():
    assert REFERENCE_PC.factor(PowerMode.IN_USE) == 1.0
    assert REFERENCE_PC.execution_time(10.0, PowerMode.STANDBY) == 10.0


def test_stb_calibration_matches_paper_ratios():
    in_use = REFERENCE_STB.factor(PowerMode.IN_USE)
    standby = REFERENCE_STB.factor(PowerMode.STANDBY)
    assert in_use == pytest.approx(STB_IN_USE_OVER_PC)
    assert in_use / standby == pytest.approx(STB_IN_USE_OVER_STANDBY)


def test_profile_validation():
    with pytest.raises(ConfigurationError):
        DeviceProfile(name="x", slowdown=0)
    with pytest.raises(ConfigurationError):
        DeviceProfile(name="x", slowdown=1,
                      mode_factors={PowerMode.OFF: 1.0})
    with pytest.raises(ConfigurationError):
        DeviceProfile(name="x", slowdown=1,
                      mode_factors={PowerMode.IN_USE: -1.0})


def test_off_mode_cannot_compute():
    with pytest.raises(ConfigurationError):
        REFERENCE_STB.factor(PowerMode.OFF)
    with pytest.raises(ConfigurationError):
        REFERENCE_STB.execution_time(1.0, PowerMode.OFF)


def test_missing_mode_factor():
    p = DeviceProfile(name="x", slowdown=1,
                      mode_factors={PowerMode.STANDBY: 1.0})
    with pytest.raises(ConfigurationError):
        p.factor(PowerMode.IN_USE)


def test_negative_work_rejected():
    with pytest.raises(ConfigurationError):
        REFERENCE_PC.execution_time(-1.0, PowerMode.IN_USE)


# -- ChurnModel ---------------------------------------------------------------

def test_churn_validation():
    with pytest.raises(WorkloadError):
        ChurnModel(mean_on_s=0, mean_off_s=1)
    with pytest.raises(WorkloadError):
        ChurnModel(mean_on_s=1, mean_off_s=1, initial_on_probability=2.0)


def test_steady_state_availability():
    m = ChurnModel(mean_on_s=30, mean_off_s=10)
    assert m.steady_state_availability == pytest.approx(0.75)
    assert m.start_on_probability() == pytest.approx(0.75)
    m2 = ChurnModel(mean_on_s=30, mean_off_s=10, initial_on_probability=1.0)
    assert m2.start_on_probability() == 1.0


def test_sample_durations_positive():
    m = ChurnModel(mean_on_s=10, mean_off_s=5)
    rng = np.random.default_rng(0)
    ons = [m.sample_on(rng) for _ in range(100)]
    offs = [m.sample_off(rng) for _ in range(100)]
    assert all(x >= 0 for x in ons + offs)
    assert np.mean(ons) == pytest.approx(10, rel=0.5)


# -- AvailabilityTrace ---------------------------------------------------------

def test_trace_validation():
    with pytest.raises(WorkloadError):
        AvailabilityTrace(transitions=(5.0, 5.0), initial_on=True,
                          horizon=10.0)
    with pytest.raises(WorkloadError):
        AvailabilityTrace(transitions=(11.0,), initial_on=True, horizon=10.0)
    with pytest.raises(WorkloadError):
        AvailabilityTrace(transitions=(), initial_on=True, horizon=0.0)


def test_trace_is_on_alternates():
    tr = AvailabilityTrace(transitions=(2.0, 5.0), initial_on=True,
                           horizon=10.0)
    assert tr.is_on(0.0)
    assert tr.is_on(1.9)
    assert not tr.is_on(2.0)
    assert not tr.is_on(4.9)
    assert tr.is_on(5.0)
    assert tr.is_on(9.9)
    with pytest.raises(WorkloadError):
        tr.is_on(10.0)


def test_trace_on_fraction():
    tr = AvailabilityTrace(transitions=(2.0, 5.0), initial_on=True,
                           horizon=10.0)
    # on [0,2), off [2,5), on [5,10) -> 7/10
    assert tr.on_fraction() == pytest.approx(0.7)


def test_trace_segments_cover_horizon():
    tr = AvailabilityTrace(transitions=(2.0, 5.0), initial_on=False,
                           horizon=10.0)
    segs = list(tr.segments())
    assert segs == [(0.0, 2.0, False), (2.0, 5.0, True), (5.0, 10.0, False)]


def test_generate_trace_within_horizon():
    m = ChurnModel(mean_on_s=5, mean_off_s=5)
    rng = np.random.default_rng(1)
    tr = generate_trace(m, horizon=100.0, rng=rng)
    assert tr.horizon == 100.0
    assert all(0 <= t < 100.0 for t in tr.transitions)
    with pytest.raises(WorkloadError):
        generate_trace(m, horizon=0, rng=rng)


def test_generated_traces_match_steady_state():
    m = ChurnModel(mean_on_s=20, mean_off_s=10)
    rng = np.random.default_rng(2)
    fractions = [generate_trace(m, horizon=2000.0, rng=rng).on_fraction()
                 for _ in range(50)]
    assert np.mean(fractions) == pytest.approx(m.steady_state_availability,
                                               abs=0.05)


@given(
    trans=st.lists(st.floats(min_value=0.01, max_value=0.98),
                   unique=True, max_size=8),
    initial=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_property_on_fraction_consistent_with_is_on(trans, initial):
    tr = AvailabilityTrace(transitions=tuple(sorted(trans)),
                           initial_on=initial, horizon=1.0)
    # Riemann estimate of on_fraction from point queries.
    ts = np.linspace(0.0005, 0.9995, 2000)
    est = float(np.mean([tr.is_on(float(t)) for t in ts]))
    assert est == pytest.approx(tr.on_fraction(), abs=0.01)
