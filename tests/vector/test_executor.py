"""Tests for the vectorised executors (waterfill vs heap agreement, and
the distinct-row bisection against the full-width loops it replaced)."""

import tracemalloc
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.vector import executor
from repro.vector import (
    makespan_under_outages,
    makespan_waterfill,
    per_task_wall_seconds,
)
from repro.vector.executor import ExecutionOutcome, victim_patterns
from tests.vector.heap_executor import makespan_heap


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


# -- grouped waterfill snap ---------------------------------------------------
# Tied ready times collapse to distinct rows before the snap; these pin the
# tie rule (the highest-indexed rows at the cut lose a task) on the cases
# where the groups alone do not decide it.

_M = 6


@pytest.mark.parametrize("ready, n_tasks, d", [
    # ready 0 and d: the finishes of k and k - 1 tasks tie at the cut,
    # and the last _M tie rows (one whole group) lose their task.
    ([1.0] * _M + [0.0] * _M, 4 * _M, 1.0),
    ([0.0] * _M + [1.0] * _M, 4 * _M, 1.0),
    ([0.0, 1.0] * _M, 4 * _M, 1.0),
    ([0.0, 1.0] * _M, 4 * _M + 1, 1.0),
    ([0.5] * _M + [0.0] * _M + [0.5] * _M, 7 * _M - 2, 0.5),
    ([0.0, 0.0, 3.0, 6.0, 3.0, 0.0, 6.0] * _M, 11 * _M, 3.0),
    # the surplus is the tie rows, or rows finish above the cut too
    ([0.0] * _M + [1e-12] * _M, _M, 1.0),
    ([1e-12] * _M + [0.0] * _M + [2e-12] * _M, 2 * _M, 1.0),
    ([0.0] * _M + [1e-12] * _M + [2e-12] * _M, 2 * _M - 1, 1.0),
    # rows that take no task (ready after the finish)
    ([0.0] * _M + [100.0] * _M, 2 * _M - 1, 1.0),
    ([100.0] * _M + [0.0, 1.0] * _M, 3 * _M, 1.0),
    # one row, and one group
    ([5.0], 3, 2.0),
    ([2.0] * 3, 7, 1.0),
    # too many distinct ready times to group: the rows' own tie rule
    ([1.0] * _M + [0.0] * _M + [100.0 + i for i in range(3 * _M)],
     4 * _M, 1.0),
])
def test_grouped_snap_ties_match_full_width(ready, n_tasks, d):
    ready = np.array(ready)
    grouped = executor._distinct(ready, d, [])[3] is not None
    assert grouped == (ready.size > 1 and np.unique(ready).size <= 16)
    want = full_width_waterfill(ready, n_tasks, d)
    for got in (makespan_waterfill(ready, n_tasks, d),
                makespan_under_outages(ready, n_tasks, d)):
        assert got.finish_time.hex() == want.finish_time.hex()
        assert got.tasks_per_node_max == want.tasks_per_node_max


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
    """Ready times (often tied, also on multiples of the shortest task
    duration), per-node or scalar durations, outage
    windows (overlapping, everyone, permanent, straddling the finish)
    and a bag size, from a handful of rows up to a few thousand."""
    n_nodes = draw(st.sampled_from([1, 2, 3, 7, 40, 300, 2500]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        d = float(draw(st.sampled_from([0.5, 3.0, 7.25, 30.0, 618.4])))
    else:
        d = np.round(rng.uniform(0.5, 40.0, size=n_nodes),
                     draw(st.integers(0, 2)))
    ready = rng.uniform(0.0, 80.0, size=n_nodes)
    ties = draw(st.sampled_from(["none", "rounded", "multiples"]))
    if ties == "rounded":
        ready = np.round(ready, draw(st.integers(-1, 1)))
    elif ties == "multiples":  # finishes of different k tie
        ready = np.min(d) * rng.integers(0, draw(st.integers(1, 4)),
                                         size=n_nodes)
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
    """Collapsing tied rows keeps a 2x10^5-row bisection and the
    waterfill snap after it on the distinct rows, with ready times tied
    the way carousel wakeups tie them: all their terms together touch
    fewer rows than one full-width pass (the full-width loop makes one
    per probe, about 60, and one for the snap)."""
    rng = np.random.default_rng(7)
    victims = rng.random(200_000) < 0.3
    ready = np.where(rng.random(victims.size) < 0.97, 61.5, 128.0)
    touched = []
    terms = executor._terms
    monkeypatch.setattr(executor, "_terms", lambda t, rows, *a, **k: (
        touched.append(rows.size), terms(t, rows, *a, **k))[1])
    for run in (
            lambda: makespan_under_outages(ready, 4 * ready.size, 618.4,
                                           [(500.0, 700.0, victims)]),
            lambda: makespan_under_outages(ready, 4 * ready.size, 618.4),
            lambda: makespan_waterfill(ready, 4 * ready.size + 3, 618.4)):
        touched.clear()
        run()
        assert 0 < sum(touched) < ready.size, len(touched)


@pytest.mark.parametrize("storm", [False, True])
def test_tied_rows_allocate_less_than_two_ready_columns(storm):
    """On 10^6 rows tied the way carousel wakeups tie them, the executor
    allocates at most twice the ready column (tracemalloc peak): it
    groups and snaps with narrow temporaries, not full-width floats."""
    rng = np.random.default_rng(11)
    ready = np.where(rng.random(1_000_000) < 0.97, 61.5, 128.0)
    outages = [(500.0, 700.0, rng.random(ready.size) < 0.3)] if storm else []
    runs = [lambda: makespan_under_outages(ready, 4 * ready.size, 618.4,
                                           outages)]
    if not storm:
        runs.append(lambda: makespan_waterfill(ready, 4 * ready.size, 618.4))
    for run in runs:
        run()  # first-call imports are not the executor's memory
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * ready.nbytes, peak / ready.nbytes


def test_grouping_counts_every_value():
    """The grouping takes its values from the rows, rare ones and ones a
    strided sample (every 4th row of 20,000) would miss included, so it
    counts every row, in victim pattern then ascending value order.
    Past 16 values the rows stay as they are.  Either way the outcome is
    the full width's."""
    ready = np.full(20_000, 61.5)
    ready[[1, 2, 7]] = 128.0
    ready[3] = 0.5
    victims = np.zeros(ready.size, dtype=bool)
    victims[[2, 3, 5]] = True
    for windows, values, weights in [
            ([], [0.5, 61.5, 128.0], [1, 19_996, 3]),
            ([(100.0, 300.0, victims)], [61.5, 128.0, 0.5, 61.5, 128.0],
             [19_995, 2, 1, 1, 1])]:
        fleet = executor._distinct(ready, 618.4, windows)
        assert fleet[0].tolist() == values
        assert fleet[3].tolist() == weights
        if windows:
            assert fleet[2][0][2].tolist() == [False] * 2 + [True] * 3
    many = ready.copy()
    many[1:80:4] = 1_000.0 + np.arange(20)
    assert executor._distinct(many, 618.4, [])[3] is None
    for rows in (ready, many):
        for windows in ([], [(100.0, 300.0, victims)]):
            want = full_width_under_outages(rows, 60_000, 618.4, windows)
            got = makespan_under_outages(rows, 60_000, 618.4, windows)
            assert got.finish_time.hex() == want.finish_time.hex()
            assert got.tasks_per_node_max == want.tasks_per_node_max


@st.composite
def coded_fleets(draw):
    """A fleet as the vector system hands it over: ready instants coded
    into a table of 1-20 of them (past the tally's 16, the rows are
    bisected as they are; often on multiples of the shortest task, so
    finishes of different task counts tie), one or two device classes
    (a scalar duration, or a class code into two), 0-3 outage windows
    and a bag size, from one row to past one 2^16-row chunk."""
    n_nodes = draw(st.sampled_from([1, 2, 7, 40, 300, 2500,
                                    executor._CHUNK + 77]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    durations = np.array([0.5, 3.0, 7.25, 30.0, 618.4])
    classes = min(n_nodes, draw(st.integers(1, 2)))
    table = rng.choice(durations, size=classes, replace=False)
    if classes == 1:
        d = float(table[0])
    else:
        codes = (rng.random(n_nodes) < draw(st.floats(0.05, 0.95)))
        codes[:2] = [False, True]
        d = executor.Coded(table, codes.view(np.uint8))
    count = min(n_nodes, draw(st.integers(1, 20)))
    if draw(st.booleans()):  # multiples of the shortest duration
        instants = table.min() * rng.choice(40, size=count, replace=False)
    else:
        instants = rng.choice(np.round(rng.uniform(0.0, 80.0, 200), 2),
                              size=count, replace=False)
    codes = rng.integers(0, count, size=n_nodes).astype(np.uint8)
    codes[rng.permutation(n_nodes)[:count]] = np.arange(count)
    ready = executor.Coded(instants, codes)
    n_tasks = draw(st.integers(1, 6 * n_nodes + 5))
    finish = full_width_under_outages(instants[codes], n_tasks,
                                      executor._column(d)).finish_time
    windows = []
    for _ in range(draw(st.integers(0, 3))):
        start = finish * draw(st.floats(0.0, 1.2))
        end = start + finish * draw(st.floats(1e-3, 1.0))
        mask = (None if draw(st.integers(0, 4)) == 0 else
                rng.random(n_nodes) < draw(st.floats(0.0, 0.9)))
        windows.append((start, end, mask))
    return ready, n_tasks, d, windows


@given(fleet=coded_fleets(), pass_patterns=st.booleans())
@settings(max_examples=150, deadline=None)
def test_coded_fleet_matches_float_columns(fleet, pass_patterns):
    """The executor on coded ready instants and device classes (with or
    without the caller's victim patterns) equals the executor on the
    float columns they stand for, and the full-width loops, bit for
    bit; so does the waterfill, whose partial-tie snap reads row order
    off the codes."""
    ready, n_tasks, d, windows = fleet
    rows, d_rows = executor._column(ready), executor._column(d)
    patterns = (victim_patterns([m for _s, _e, m in windows],
                                ready.codes.size) if pass_patterns else None)
    want = _outcome_or_error(full_width_under_outages,
                             rows, n_tasks, d_rows, windows)
    outcomes = [
        _outcome_or_error(lambda *a: makespan_under_outages(
            *a, patterns=patterns), ready, n_tasks, d, windows),
        _outcome_or_error(makespan_under_outages,
                          rows, n_tasks, d_rows, windows)]
    if not isinstance(d, executor.Coded) and not windows:
        outcomes.append(makespan_waterfill(ready, n_tasks, d))
        assert want.finish_time.hex() == full_width_waterfill(
            rows, n_tasks, d).finish_time.hex()
    for got in outcomes:
        if isinstance(want, ExecutionOutcome):
            assert got.finish_time.hex() == want.finish_time.hex()
            assert got.tasks_per_node_max == want.tasks_per_node_max
        else:
            assert got is want


def test_partial_tie_reads_row_order_from_codes(monkeypatch):
    """A waterfill snap whose tie spans different task counts keeps the
    task on the first tie rows in row order, read off the codes: the
    same rows as the float column, and a tie spread over chunks."""
    calls = []
    first_values = executor._first_values
    monkeypatch.setattr(executor, "_first_values", lambda *a: (
        calls.append(a[2]), first_values(*a))[1])
    n = 3 * executor._CHUNK
    codes = np.zeros(n, dtype=np.uint8)
    codes[1::3] = 1
    codes[n - 5:] = 2
    ready = executor.Coded(np.array([0.0, 1.0, 2.0]), codes)
    for n_tasks in (4 * n + 1, 4 * n + 7, 4 * n - 3):
        want = full_width_waterfill(executor._column(ready), n_tasks, 1.0)
        got = makespan_waterfill(ready, n_tasks, 1.0)
        assert got.finish_time.hex() == want.finish_time.hex()
        assert got.tasks_per_node_max == want.tasks_per_node_max
    assert calls


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_victim_patterns_number_the_bit_codes_densely(data):
    """``victim_patterns`` numbers each row's victim bit code (one bit
    per mask, ``None`` setting none) densely in code order, in any
    number of masks — past 64 too, where the codes outgrow a machine
    word — and its counts and victim table match the codes."""
    size = data.draw(st.integers(1, 60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    masks = []
    for _ in range(data.draw(st.sampled_from([0, 1, 2, 5, 70]))):
        kind = data.draw(st.sampled_from(["none", "all", "some", "same"]))
        if kind == "none":
            masks.append(None)
        elif kind == "all":
            masks.append(np.ones(size, dtype=bool))
        elif kind == "same" and masks and masks[-1] is not None:
            masks.append(masks[-1])
        else:
            masks.append(rng.random(size) < data.draw(st.floats(0.0, 1.0)))
    code, counts, victim = executor.victim_patterns(masks, size)
    bits = [sum(1 << w for w, m in enumerate(masks)
                if m is not None and m[i]) for i in range(size)]
    distinct = sorted(set(bits))
    assert code.dtype.kind == "u"
    assert code.tolist() == [distinct.index(b) for b in bits]
    assert counts.tolist() == [bits.count(b) for b in distinct]
    assert victim.shape == (len(masks), len(distinct))
    for w, m in enumerate(masks):
        assert victim[w].tolist() == [m is None or bool(b >> w & 1)
                                      for b in distinct]


def _victim_patterns_reference(masks, size: int):
    """``victim_patterns`` as it was before it worked in chunks: each
    mask as a cohort-sized ``astype``/product and a fancy-indexed
    ``bincount`` (the oracle of the chunked one)."""
    code = np.zeros(size, dtype=np.uint8)
    counts, victim = np.array([size]), np.zeros((0, 1), dtype=bool)
    for mask in masks:
        mask = np.ones(size, dtype=bool) if mask is None else mask
        g = counts.size
        code = code.astype(np.min_scalar_type(2 * g - 1), copy=False)
        hit = (np.bincount(code[mask], minlength=g) if g > 1
               else np.array([np.count_nonzero(mask)]))
        code += mask.astype(code.dtype) * code.dtype.type(g)
        counts = np.concatenate([counts - hit, hit])
        victim = np.vstack([np.hstack([victim, victim]),
                            np.arange(2 * g) >= g])
        present = counts > 0
        if not present.all():  # renumber densely
            code = (np.cumsum(present) - 1).astype(code.dtype)[code]
            counts, victim = counts[present], victim[:, present]
    return code, counts, victim


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_chunked_victim_patterns_match_the_reference(data):
    """The chunked ``victim_patterns`` returns the reference's codes,
    counts and victim table byte for byte (dtypes included): 0-3 masks
    and 9 (past 128 patterns, so the codes widen to uint16), ``None``
    masks, masks that leave patterns empty (dense renumbering) and
    sizes on both sides of a 2^16-row chunk."""
    chunk = executor._CHUNK
    size = data.draw(st.one_of(st.integers(1, 300), st.sampled_from(
        (chunk - 1, chunk, chunk + 77, 2 * chunk + 5))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    masks = []
    for _ in range(data.draw(st.sampled_from((0, 1, 2, 3, 9)))):
        kind = data.draw(st.sampled_from(("none", "all", "empty", "some",
                                          "same")))
        if kind == "none":
            masks.append(None)
        elif kind in ("all", "empty"):
            masks.append(np.full(size, kind == "all"))
        elif kind == "same" and masks and masks[-1] is not None:
            masks.append(masks[-1])
        else:
            masks.append(rng.random(size) < data.draw(st.sampled_from(
                (0.05, 0.3, 0.5, 0.9))))
    got = victim_patterns(masks, size)
    want = _victim_patterns_reference(masks, size)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape,
                                                   w.tobytes())


def test_chunked_victim_patterns_widen_past_128_patterns():
    """Nine independent masks over 3,000 rows leave more than 128
    patterns before the last one: its codes widen to uint16, as the
    reference's do."""
    rng = np.random.default_rng(5)
    masks = [rng.random(3_000) < 0.5 for _ in range(9)]
    code, counts, victim = victim_patterns(masks, 3_000)
    assert code.dtype == np.uint16 and counts.size > 256
    for g, w in zip((code, counts, victim),
                    _victim_patterns_reference(masks, 3_000)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
