"""Churn-aware execution at the vector tier.

The event tier simulates each receiver's ON/OFF sessions; at millions of
nodes we instead sample per-node availability traces lazily and compute
their effect on the fleet's *effective capacity*:

* :func:`effective_capacity` — expected fraction of recruited nodes
  still powered at time t after recruitment, for an exponential ON/OFF
  churn model (nodes recruited while ON; survival of the current ON
  session plus the steady-state return).
* :func:`makespan_under_churn` — inflates the per-task service rate by
  the time-averaged availability and adds the Controller's
  recomposition delay model, giving a closed-form pendant of the event
  tier's churn behaviour.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import AnalysisError
from repro.vector.executor import ExecutionOutcome, makespan_waterfill
from repro.workloads.traces import ChurnModel

__all__ = [
    "on_session_survival",
    "effective_capacity",
    "makespan_under_churn",
]


def on_session_survival(model: ChurnModel, t: float) -> float:
    """P(a node recruited 'now' is still in the same ON session at t).

    Recruitment happens at a uniformly random point of an ON session, so
    the *residual* session length of an exponential ON time is again
    exponential (memorylessness): survival = exp(-t / mean_on).
    """
    if t < 0:
        raise AnalysisError("t must be >= 0")
    return math.exp(-t / model.mean_on_s)


def effective_capacity(model: ChurnModel, t: float) -> float:
    """Expected powered fraction of the recruited fleet at time t.

    Starts at 1 (everyone just accepted a wakeup, hence ON) and decays
    toward the steady-state availability a∞ = on/(on+off) with the
    two-state Markov chain's relaxation rate 1/on + 1/off::

        a(t) = a∞ + (1 − a∞) · exp(−(1/on + 1/off) · t)
    """
    if t < 0:
        raise AnalysisError("t must be >= 0")
    a_inf = model.steady_state_availability
    rate = 1.0 / model.mean_on_s + 1.0 / model.mean_off_s
    return a_inf + (1.0 - a_inf) * math.exp(-rate * t)


def makespan_under_churn(
    ready_times: np.ndarray,
    n_tasks: int,
    task_wall_seconds: float,
    model: Optional[ChurnModel],
    *,
    recomposition_lag_s: float = 0.0,
) -> ExecutionOutcome:
    """Greedy-pull finish time when nodes churn.

    Without churn this is exactly :func:`makespan_waterfill`.  With
    churn, the fleet's throughput over the horizon scales by the
    time-averaged effective capacity ā(T) (the Controller recomposes
    from the idle pool after ``recomposition_lag_s``, which shifts the
    capacity curve), so each task effectively costs
    ``task_wall_seconds / ā(T)``.  Since ā depends on the finish time T,
    the result is computed by fixed-point iteration, to a relative
    1e-3 of the finish time or 100 rounds.
    """
    if model is None:
        return makespan_waterfill(ready_times, n_tasks, task_wall_seconds)
    if recomposition_lag_s < 0:
        raise AnalysisError("recomposition_lag_s must be >= 0")

    def avg_capacity(horizon: float) -> float:
        if horizon <= 0:
            return 1.0
        # Mean of a(t) over [0, horizon], lag shifting recovery: during
        # the lag the fleet only decays (no recomposition), afterwards
        # the controller backfills to min(1, a(t) + recovered share).
        steps = 200
        ts = np.linspace(0.0, horizon, steps)
        a = np.array([effective_capacity(model, float(t)) for t in ts])
        if recomposition_lag_s > 0:
            # before recomposition kicks in, capacity is the raw ON-session
            # survival (no replacements yet)
            surv = np.array([on_session_survival(model, float(t))
                             for t in ts])
            early = ts < recomposition_lag_s
            a = np.where(early, surv, a)
        return float(a.mean())

    outcome = makespan_waterfill(ready_times, n_tasks, task_wall_seconds)
    finish = outcome.finish_time
    for _ in range(100):
        horizon = finish - float(np.min(ready_times))
        capacity = max(avg_capacity(horizon), 1e-6)
        new_outcome = makespan_waterfill(
            ready_times, n_tasks, task_wall_seconds / capacity)
        if abs(new_outcome.finish_time - finish) <= 1e-3 * max(finish, 1.0):
            return new_outcome
        finish = new_outcome.finish_time
        outcome = new_outcome
    return outcome
