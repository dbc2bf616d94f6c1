"""Tests for the vectorised executors (waterfill vs heap agreement, and
the distinct-row bisection against the full-width loops it replaced)."""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.vector import executor
from repro.vector import (
    makespan_heap,
    makespan_under_outages,
    makespan_waterfill,
    per_task_wall_seconds,
)
from repro.vector.executor import ExecutionOutcome


def test_per_task_wall_seconds():
    # 1 KB over 150 kbps + 2 s compute * factor 20.6
    d = per_task_wall_seconds(2.0, 8192, 150_000.0, 20.6)
    assert d == pytest.approx(8192 / 150_000 + 41.2)
    with pytest.raises(AnalysisError):
        per_task_wall_seconds(0, 1, 1)
    with pytest.raises(AnalysisError):
        per_task_wall_seconds(1, -1, 1)
    with pytest.raises(AnalysisError):
        per_task_wall_seconds(1, 1, 1, device_factor=0)


def test_waterfill_single_node():
    out = makespan_waterfill(np.array([10.0]), 5, 2.0)
    assert out.finish_time == pytest.approx(20.0)
    assert out.tasks_per_node_max == 5


def test_waterfill_equal_ready_times_balances():
    out = makespan_waterfill(np.zeros(4), 8, 3.0)
    assert out.finish_time == pytest.approx(6.0)  # 2 tasks each
    assert out.tasks_per_node_max == 2


def test_waterfill_uneven_split():
    # 3 nodes, 7 tasks, d=1: two nodes get 2, one gets 3 -> finish 3.
    out = makespan_waterfill(np.zeros(3), 7, 1.0)
    assert out.finish_time == pytest.approx(3.0)
    assert out.tasks_per_node_max == 3


def test_waterfill_staggered_ready_times():
    # Node A ready at 0, node B at 10; 3 tasks of 4 s.
    # Greedy: A takes t0 (0-4), t1 (4-8), t2 (8-12); B would finish its
    # first task at 14 — so A does all three, finish 12.
    out = makespan_waterfill(np.array([0.0, 10.0]), 3, 4.0)
    assert out.finish_time == pytest.approx(12.0)


def test_waterfill_validation():
    with pytest.raises(AnalysisError):
        makespan_waterfill(np.array([]), 1, 1.0)
    with pytest.raises(AnalysisError):
        makespan_waterfill(np.zeros(2), 0, 1.0)
    with pytest.raises(AnalysisError):
        makespan_waterfill(np.zeros(2), 1, 0.0)


def test_heap_matches_manual_example():
    # Same staggered example as above.
    out = makespan_heap(np.array([0.0, 10.0]), [4.0, 4.0, 4.0])
    assert out.finish_time == pytest.approx(12.0)


def test_heap_heterogeneous_tasks():
    out = makespan_heap(np.zeros(2), [5.0, 1.0, 1.0, 1.0])
    # node0 takes 5s task; node1 takes three 1s tasks -> finish 5.
    assert out.finish_time == pytest.approx(5.0)
    assert out.tasks_per_node_max == 3


def test_heap_validation():
    with pytest.raises(AnalysisError):
        makespan_heap(np.array([]), [1.0])
    with pytest.raises(AnalysisError):
        makespan_heap(np.zeros(2), [])
    with pytest.raises(AnalysisError):
        makespan_heap(np.zeros(2), [0.0])


@given(
    n_nodes=st.integers(min_value=1, max_value=40),
    n_tasks=st.integers(min_value=1, max_value=200),
    d=st.floats(min_value=0.01, max_value=100.0),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=150, deadline=None)
def test_property_waterfill_equals_heap_on_identical_tasks(
        n_nodes, n_tasks, d, seed):
    rng = np.random.default_rng(seed)
    ready = rng.uniform(0.0, 50.0, size=n_nodes)
    wf = makespan_waterfill(ready, n_tasks, d)
    hp = makespan_heap(ready, np.full(n_tasks, d))
    assert wf.finish_time == pytest.approx(hp.finish_time, rel=1e-6)
    assert wf.tasks_per_node_max == hp.tasks_per_node_max or \
        abs(wf.tasks_per_node_max - hp.tasks_per_node_max) <= 1


@given(
    n_nodes=st.integers(min_value=1, max_value=30),
    n_tasks=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=60, deadline=None)
def test_property_makespan_monotone_in_tasks_and_nodes(n_nodes, n_tasks):
    ready = np.zeros(n_nodes)
    m1 = makespan_waterfill(ready, n_tasks, 1.0).finish_time
    m2 = makespan_waterfill(ready, n_tasks + 10, 1.0).finish_time
    assert m2 >= m1
    m3 = makespan_waterfill(np.zeros(n_nodes + 5), n_tasks, 1.0).finish_time
    assert m3 <= m1 + 1e-9


def test_waterfill_scales_to_a_million_nodes():
    rng = np.random.default_rng(0)
    ready = rng.uniform(0.0, 120.0, size=1_000_000)
    out = makespan_waterfill(ready, 10_000_000, 5.0)
    assert out.n_nodes == 1_000_000
    # 10 tasks per node on average at 5 s each: finish around 50-170 s.
    assert 50.0 < out.finish_time < 200.0


# -- full-width oracle --------------------------------------------------------
# The two bisection loops as they stood before the distinct-row bisection:
# every probe sums floor(active_i / d_i) over every row.  Kept verbatim (bar
# the names and docstrings) as the differential oracle.

def full_width_waterfill(
    ready_times: np.ndarray,
    n_tasks: int,
    task_wall_seconds: float,
) -> ExecutionOutcome:
    ready = np.asarray(ready_times, dtype=float)
    if ready.ndim != 1 or ready.size == 0:
        raise AnalysisError("ready_times must be a non-empty 1-D array")
    if n_tasks <= 0:
        raise AnalysisError(f"n_tasks must be > 0, got {n_tasks}")
    if task_wall_seconds <= 0:
        raise AnalysisError("task_wall_seconds must be > 0")

    d = float(task_wall_seconds)

    def capacity(t: float) -> int:
        return int(np.floor(np.maximum(t - ready, 0.0) / d).sum())

    eps = min(1e-9, d * 1e-6)
    lo = float(ready.min()) + d
    hi = float(ready.min()) + d * float(n_tasks)  # one node does it all
    if capacity(hi) < n_tasks:  # numeric safety
        hi = float(ready.max()) + d * float(n_tasks)
    for _ in range(200):
        if hi - lo <= max(eps, 1e-12 * hi):
            break
        mid = 0.5 * (lo + hi)
        if capacity(mid) >= n_tasks:
            hi = mid
        else:
            lo = mid
    # Snap to the exact completion instant: with finish bound hi, each
    # node i contributes k_i = floor((hi - ready_i)^+ / d) tasks; greedy
    # pull performs exactly the n earliest completions, so drop the
    # surplus from the latest finishers (at most one per node — ties at
    # the boundary instant).
    k = np.floor(np.maximum(hi - ready, 0.0) / d + eps).astype(np.int64)
    total = int(k.sum())
    if total < n_tasks:
        raise AnalysisError("waterfill failed to converge")  # pragma: no cover
    surplus = total - n_tasks
    if surplus > 0:
        finish_candidates = ready + k * d
        active_idx = np.nonzero(k > 0)[0]
        order = active_idx[np.argsort(finish_candidates[active_idx],
                                      kind="stable")]
        if surplus > order.size:  # pragma: no cover - eps pathologies
            raise AnalysisError("waterfill surplus exceeds active nodes")
        k[order[-surplus:]] -= 1
    active = k > 0
    finish = float((ready[active] + k[active] * d).max())
    return ExecutionOutcome(
        finish_time=finish,
        n_tasks=int(n_tasks),
        n_nodes=int(ready.size),
        tasks_per_node_max=int(k.max()),
    )


def full_width_under_outages(
    ready_times: np.ndarray,
    n_tasks: int,
    task_wall_seconds,
    outages: Sequence = (),
) -> ExecutionOutcome:
    ready = np.asarray(ready_times, dtype=float)
    if ready.ndim != 1 or ready.size == 0:
        raise AnalysisError("ready_times must be a non-empty 1-D array")
    if n_tasks <= 0:
        raise AnalysisError(f"n_tasks must be > 0, got {n_tasks}")
    scalar_d = np.isscalar(task_wall_seconds) or (
        np.asarray(task_wall_seconds).ndim == 0)
    if scalar_d:
        if float(task_wall_seconds) <= 0:
            raise AnalysisError("task_wall_seconds must be > 0")
        if not outages:
            return full_width_waterfill(ready, n_tasks,
                                        float(task_wall_seconds))
        d_i = np.full(ready.size, float(task_wall_seconds))
    else:
        d_i = np.asarray(task_wall_seconds, dtype=float)
        if d_i.shape != ready.shape:
            raise AnalysisError(
                "per-node task_wall_seconds must align with ready_times")
        if np.any(d_i <= 0):
            raise AnalysisError("task durations must be > 0")

    windows = []
    for start, end, mask in outages:
        if end <= start:
            raise AnalysisError(
                f"outage window must have end > start, got [{start}, {end})")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != ready.shape:
                raise AnalysisError(
                    "outage mask must align with ready_times")
            if not mask.any():
                continue
        windows.append((float(start), float(end), mask))

    def active_time(t: float) -> np.ndarray:
        active = np.maximum(t - ready, 0.0)
        for start, end, mask in windows:
            overlap = np.minimum(t, end) - np.maximum(ready, start)
            np.maximum(overlap, 0.0, out=overlap)
            if mask is not None:
                overlap *= mask
            active -= overlap
        np.maximum(active, 0.0, out=active)
        return active

    def capacity(t: float) -> int:
        return int(np.floor(active_time(t) / d_i).sum())

    d_max = float(d_i.max())
    # One node doing the whole bag plus sitting out every (finite)
    # window bounds the finish from above; permanent windows contribute
    # through the mask (a fully masked-forever fleet cannot finish).
    horizon_pad = sum(end - start for start, end, _m in windows
                      if end < float("inf"))
    lo = float(ready.min())
    hi = lo + d_max * float(n_tasks) + horizon_pad
    for _ in range(64):  # numeric safety for pathological overlaps
        if capacity(hi) >= n_tasks:
            break
        hi = lo + 2.0 * (hi - lo)
    else:
        raise AnalysisError(
            "outage schedule leaves insufficient capacity to finish")
    for _ in range(200):
        if hi - lo <= max(1e-9, 1e-12 * hi):
            break
        mid = 0.5 * (lo + hi)
        if capacity(mid) >= n_tasks:
            hi = mid
        else:
            lo = mid
    k = np.floor(active_time(hi) / d_i + 1e-9).astype(np.int64)
    return ExecutionOutcome(
        finish_time=hi,
        n_tasks=int(n_tasks),
        n_nodes=int(ready.size),
        tasks_per_node_max=int(k.max()) if k.size else 0,
    )


# -- makespan_under_outages ---------------------------------------------------

def test_outages_hand_worked_example():
    # Two nodes ready at 0, 2 s tasks, node 0 down over [1, 5).  Node 1
    # finishes tasks at 2, 4, 6, 8; node 0 is active 1 s before the
    # window and from 5 s on, finishing tasks at 6 and 8.  The sixth
    # completion lands at 8 s.
    out = makespan_under_outages(np.zeros(2), 6, 2.0,
                                 [(1.0, 5.0, np.array([True, False]))])
    assert out.finish_time == pytest.approx(8.0, abs=1e-8)
    assert out.tasks_per_node_max == 4
    assert (out.n_tasks, out.n_nodes) == (6, 2)
    # Per-node durations: 1 s and 3 s tasks complete 3 + 1 by t = 3.
    out = makespan_under_outages(np.zeros(2), 4, np.array([1.0, 3.0]))
    assert out.finish_time == pytest.approx(3.0, abs=1e-8)
    assert out.tasks_per_node_max == 3


def test_outages_validation():
    ready = np.zeros(3)
    with pytest.raises(AnalysisError, match="end > start"):
        makespan_under_outages(ready, 3, 1.0, [(5.0, 5.0, None)])
    with pytest.raises(AnalysisError, match="mask must align"):
        makespan_under_outages(ready, 3, 1.0,
                               [(0.0, 1.0, np.array([True, False]))])
    with pytest.raises(AnalysisError, match="insufficient capacity"):
        makespan_under_outages(ready, 3, 1.0, [(0.0, float("inf"), None)])
    with pytest.raises(AnalysisError, match="must align"):
        makespan_under_outages(ready, 3, np.ones(2))
    with pytest.raises(AnalysisError, match="> 0"):
        makespan_under_outages(ready, 3, np.array([1.0, 0.0, 1.0]))


def test_many_windows_keep_every_row():
    # The collapse makes one pass per victim pattern, so past 16 windows
    # or 16 patterns present the rows are bisected as they are; at the
    # cap they collapse.  Either way the outcome is the full width's.
    rng = np.random.default_rng(3)
    ready = np.round(rng.uniform(0.0, 60.0, size=2_000), -1)

    def masks(count, p):
        return [rng.random(ready.size) < p for _ in range(count)]

    shared = masks(2, 0.3)
    for victims, collapses in [
            (masks(20, 0.2), False),  # more than 16 windows
            (masks(16, 0.2), False),  # hundreds of patterns
            (masks(5, 0.5), False),  # 32 patterns
            (masks(4, 0.5), True),  # 16 patterns
            ([shared[i % 2] for i in range(16)], True)]:  # 4 patterns
        windows = [(40.0 * i, 40.0 * i + 25.0, m)
                   for i, m in enumerate(victims)]
        weights = executor._distinct(ready, 7.0, windows)[3]
        assert (weights is not None) == collapses, len(windows)
        want = full_width_under_outages(ready, 6_000, 7.0, windows)
        got = makespan_under_outages(ready, 6_000, 7.0, windows)
        assert got.finish_time.hex() == want.finish_time.hex()
        assert got.tasks_per_node_max == want.tasks_per_node_max


@st.composite
def fleets(draw):
    """Ready times (often tied), per-node or scalar durations, outage
    windows (overlapping, everyone, permanent, straddling the finish)
    and a bag size, from a handful of rows up to a few thousand."""
    n_nodes = draw(st.sampled_from([1, 2, 3, 7, 40, 300, 2500]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ready = rng.uniform(0.0, 80.0, size=n_nodes)
    if draw(st.booleans()):
        ready = np.round(ready, draw(st.integers(-1, 1)))  # ties
    if draw(st.booleans()):
        d = float(draw(st.sampled_from([0.5, 3.0, 7.25, 30.0, 618.4])))
    else:
        d = np.round(rng.uniform(0.5, 40.0, size=n_nodes),
                     draw(st.integers(0, 2)))
    n_tasks = draw(st.integers(1, 8 * n_nodes + 5))
    # Windows placed against the clean finish, so many straddle it.
    finish = full_width_under_outages(ready, n_tasks, d).finish_time
    windows = []
    for _ in range(draw(st.integers(0, 3))):
        start = finish * draw(st.floats(0.0, 1.5))
        end = (float("inf") if draw(st.integers(0, 5)) == 0 else
               start + finish * draw(st.floats(1e-3, 1.0)))
        kind = draw(st.sampled_from(["fraction", "same", "everyone"]))
        if kind == "everyone":
            mask = None
        elif kind == "same" and windows and windows[-1][2] is not None:
            mask = windows[-1][2]  # overlapping windows, same victims
        else:
            mask = rng.random(n_nodes) < draw(st.floats(0.05, 0.9))
        windows.append((start, end, mask))
    return ready, n_tasks, d, windows


def _outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except AnalysisError as exc:
        return type(exc)


@given(fleet=fleets())
@settings(max_examples=150, deadline=None)
def test_bisection_is_bit_identical_to_full_width(fleet):
    ready, n_tasks, d, windows = fleet
    want = _outcome_or_error(full_width_under_outages,
                             ready, n_tasks, d, windows)
    got = _outcome_or_error(makespan_under_outages,
                            ready, n_tasks, d, windows)
    if isinstance(want, ExecutionOutcome):
        assert got.finish_time.hex() == want.finish_time.hex()
        assert got.tasks_per_node_max == want.tasks_per_node_max
    else:
        assert got is want
    if np.ndim(d) == 0:
        want = full_width_waterfill(ready, n_tasks, d)
        got = makespan_waterfill(ready, n_tasks, d)
        assert got.finish_time.hex() == want.finish_time.hex()
        assert got.tasks_per_node_max == want.tasks_per_node_max


def test_bisection_touches_few_rows(monkeypatch):
    """Collapsing tied rows keeps a 2x10^5-row bisection to a few
    full-width passes (the full-width loop makes one per probe, about
    60), with ready times tied the way carousel wakeups tie them."""
    rng = np.random.default_rng(7)
    victims = rng.random(200_000) < 0.3
    ready = np.where(rng.random(victims.size) < 0.97, 61.5, 128.0)
    touched = []
    terms = executor._terms
    monkeypatch.setattr(executor, "_terms", lambda t, rows, *a, **k: (
        touched.append(rows.size), terms(t, rows, *a, **k))[1])
    for outages in ([(500.0, 700.0, victims)], []):
        touched.clear()
        makespan_under_outages(ready, 4 * ready.size, 618.4, outages)
        assert sum(touched) <= 8 * ready.size, len(touched)
