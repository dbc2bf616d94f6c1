"""Vectorised bag-of-tasks execution for very large node counts.

The event tier simulates every message; that is faithful but caps out
around 10⁴ nodes.  For the paper's scalability claims (requirement I:
"hundreds of millions of processing resources") we compute the *same*
pull-scheduling outcome with array math:

* :func:`makespan_waterfill` — homogeneous tasks: binary-search the
  finish time T such that the fleet's aggregate task capacity by T
  reaches ``n``; exact greedy list-scheduling result in O(N · log)
  vectorised passes.
* :func:`makespan_heap` — general case (heterogeneous tasks and/or
  nodes): classic event-free greedy list scheduling with a heap,
  O(n log N).

Both include the per-task direct-channel I/O time, matching the event
tier's DVE loop (request → input transfer → compute → result transfer).
Tests cross-validate the two against each other and against the event
tier on overlapping sizes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import AnalysisError

__all__ = ["ExecutionOutcome", "makespan_waterfill", "makespan_heap",
           "makespan_under_outages", "per_task_wall_seconds"]


@dataclass(frozen=True)
class ExecutionOutcome:
    """Result of a vectorised execution.

    ``finish_time`` is when the last result lands (absolute, same
    origin as the ready times); ``tasks_per_node_max`` characterises the
    load imbalance.
    """

    finish_time: float
    n_tasks: int
    n_nodes: int
    tasks_per_node_max: int

    def makespan(self, submit_time: float = 0.0) -> float:
        return self.finish_time - submit_time


def per_task_wall_seconds(
    ref_seconds: float,
    io_bits: float,
    delta_bps: float,
    device_factor: float = 1.0,
) -> float:
    """Wall time one node spends per task: I/O at δ plus scaled compute."""
    if ref_seconds <= 0:
        raise AnalysisError("ref_seconds must be > 0")
    if io_bits < 0 or delta_bps <= 0:
        raise AnalysisError("bad I/O parameters")
    if device_factor <= 0:
        raise AnalysisError("device_factor must be > 0")
    return io_bits / delta_bps + ref_seconds * device_factor


def _terms(t: float, ready: np.ndarray, d, windows, weights=None,
           bias: float = 0.0) -> np.ndarray:
    """Per-row ``floor(active_i(t) / d_i + bias)`` (times the row's
    multiplicity in ``weights``), active time being time since ready
    less the overlap with each window the row is a victim of — the same
    float operations on any subset of rows."""
    out = np.subtract(t, ready)
    np.maximum(out, 0.0, out=out)
    scratch = np.empty_like(out) if windows else None
    for start, end, mask in windows:
        np.maximum(ready, start, out=scratch)
        np.subtract(min(t, end), scratch, out=scratch)
        np.maximum(scratch, 0.0, out=scratch)
        if mask is not None:
            scratch *= mask
        out -= scratch
    np.maximum(out, 0.0, out=out)
    np.divide(out, d, out=out)
    if bias:
        out += bias
    np.floor(out, out=out)
    if weights is not None:
        out *= weights
    return out


def _distinct(ready: np.ndarray, d, windows):
    """``(ready, d, windows, weights)``: rows equal in ready time,
    duration and victimhood have equal terms at every ``t``, so when
    that at least halves the rows (carousel wakeups tie ready times)
    keep one row per kind, weighted by its multiplicity.  The weighted
    terms are integer-valued floats, so every capacity sum is exact
    below 2^53 (and reads >= 2^53 > n above), as over the full rows."""
    # Victim patterns are bit codes (one per window, counted by
    # bincount) and the collapse makes one full-width pass per pattern
    # present: past 16 windows or patterns, or with mostly distinct
    # ready times in a strided sample, it would not pay for the probes
    # it saves.
    sample = ready[::max(1, ready.size // 4096)]
    if len(windows) > 16 or 2 * np.unique(sample).size > sample.size:
        return ready, d, windows, None
    code = np.zeros(ready.size, dtype=np.int64)
    for bit, (_s, _e, mask) in enumerate(windows):
        if mask is not None:
            code[mask] |= 1 << bit
    patterns = np.flatnonzero(np.bincount(code))
    if patterns.size > 16:
        return ready, d, windows, None
    key = ready if np.ndim(d) == 0 else ready + 1j * d
    kinds = [(c, *np.unique(key[code == c], return_counts=True))
             for c in patterns]
    if 2 * sum(u.size for _c, u, _w in kinds) > ready.size:
        return ready, d, windows, None
    code = np.concatenate([np.full(u.size, c) for c, u, _w in kinds])
    key = np.concatenate([u for _c, u, _w in kinds])
    return (key.real, d if np.ndim(d) == 0 else key.imag,
            [(s, e, m if m is None else (code >> bit & 1).astype(bool))
             for bit, (s, e, m) in enumerate(windows)],
            np.concatenate([w for _c, _u, w in kinds]).astype(float))


def _capacity(t: float, fleet) -> int:
    """``sum_i floor(active_i(t) / d_i)`` over a :func:`_distinct` fleet."""
    return int(_terms(t, *fleet).sum())


def _bisect(fleet, n: int, lo: float, hi: float, eps: float) -> float:
    """Smallest probed ``t`` in ``(lo, hi]`` with capacity >= ``n``
    (the final ``hi``), halving until ``max(eps, 1e-12 * hi)``."""
    for _ in range(200):
        if hi - lo <= max(eps, 1e-12 * hi):
            break
        mid = 0.5 * (lo + hi)
        if _capacity(mid, fleet) >= n:
            hi = mid
        else:
            lo = mid
    return hi


def makespan_waterfill(
    ready_times: np.ndarray,
    n_tasks: int,
    task_wall_seconds: float,
) -> ExecutionOutcome:
    """Exact greedy-pull finish time for identical tasks.

    Each node starts pulling at its ready time and executes tasks back
    to back, each taking ``task_wall_seconds``.  Greedy pull (always the
    earliest-free node takes the next task) finishes the bag at the
    smallest T with ``sum_i floor((T - ready_i)^+ / d) >= n``; we then
    snap T to an exact task-completion instant.
    """
    ready = np.asarray(ready_times, dtype=float)
    if ready.ndim != 1 or ready.size == 0:
        raise AnalysisError("ready_times must be a non-empty 1-D array")
    if n_tasks <= 0:
        raise AnalysisError(f"n_tasks must be > 0, got {n_tasks}")
    if task_wall_seconds <= 0:
        raise AnalysisError("task_wall_seconds must be > 0")

    d = float(task_wall_seconds)
    fleet = _distinct(ready, d, [])
    eps = min(1e-9, d * 1e-6)
    lo = float(ready.min()) + d
    hi = float(ready.min()) + d * float(n_tasks)  # one node does it all
    if _capacity(hi, fleet) < n_tasks:  # numeric safety
        hi = float(ready.max()) + d * float(n_tasks)
    hi = _bisect(fleet, n_tasks, lo, hi, eps)
    # Snap to the exact completion instant: with finish bound hi, each
    # node i contributes k_i = floor((hi - ready_i)^+ / d) tasks; greedy
    # pull performs exactly the n earliest completions, so drop the
    # surplus from the latest finishers (at most one per node — ties at
    # the boundary instant).
    k = _terms(hi, ready, d, (), bias=eps).astype(np.int64)
    total = int(k.sum())
    if total < n_tasks:
        raise AnalysisError("waterfill failed to converge")  # pragma: no cover
    surplus = total - n_tasks
    if surplus > 0:
        if surplus > np.count_nonzero(k):  # pragma: no cover - eps pathologies
            raise AnalysisError("waterfill surplus exceeds active nodes")
        # The latest finishers in stable order: every finish above the
        # cut, then the highest-indexed rows finishing at it.
        done = k * d
        done += ready
        done[k == 0] = -np.inf
        cut = np.partition(done, done.size - surplus)[done.size - surplus]
        later = done > cut
        ties = np.flatnonzero(done == cut)
        k[later] -= 1
        k[ties[ties.size - surplus + int(np.count_nonzero(later)):]] -= 1
    active = k > 0
    finish = float((ready[active] + k[active] * d).max())
    return ExecutionOutcome(
        finish_time=finish,
        n_tasks=int(n_tasks),
        n_nodes=int(ready.size),
        tasks_per_node_max=int(k.max()),
    )


def makespan_under_outages(
    ready_times: np.ndarray,
    n_tasks: int,
    task_wall_seconds,
    outages: Sequence = (),
) -> ExecutionOutcome:
    """Greedy-pull finish time with heterogeneous nodes and downtime.

    Generalises :func:`makespan_waterfill` along two axes at once:

    * ``task_wall_seconds`` may be a scalar (homogeneous fleet) or a
      per-node array aligned with ``ready_times``;
    * ``outages`` is a sequence of ``(start, end, mask)`` triples — a
      victim (``mask`` is a boolean array over nodes, or ``None`` for
      everyone) contributes no capacity while ``start <= t < end``.

    Node *i*'s active time by T is ``(T - ready_i)^+`` minus the summed
    overlap of its outage windows with ``[ready_i, T)``; capacity is
    ``sum_i floor(active_i / d_i)`` and the finish time is found by
    binary search, snapped to within one task duration of the exact
    greedy completion (adequate at vector scale, and exact — via
    :func:`makespan_waterfill` — in the homogeneous fault-free case).
    Overlapping windows hitting the same node sum their downtime, a
    conservative (never optimistic) capacity estimate.
    """
    ready = np.asarray(ready_times, dtype=float)
    if ready.ndim != 1 or ready.size == 0:
        raise AnalysisError("ready_times must be a non-empty 1-D array")
    if n_tasks <= 0:
        raise AnalysisError(f"n_tasks must be > 0, got {n_tasks}")
    if np.isscalar(task_wall_seconds) or (
            np.asarray(task_wall_seconds).ndim == 0):
        d = float(task_wall_seconds)
        if d <= 0:
            raise AnalysisError("task_wall_seconds must be > 0")
        if not outages:
            return makespan_waterfill(ready, n_tasks, d)
    else:
        d = np.asarray(task_wall_seconds, dtype=float)
        if d.shape != ready.shape:
            raise AnalysisError(
                "per-node task_wall_seconds must align with ready_times")
        if np.any(d <= 0):
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

    fleet = _distinct(ready, d, windows)
    # One node doing the whole bag plus sitting out every (finite)
    # window bounds the finish from above; permanent windows contribute
    # through the mask (a fully masked-forever fleet cannot finish).
    horizon_pad = sum(end - start for start, end, _m in windows
                      if end < float("inf"))
    lo = float(ready.min())
    hi = lo + float(np.max(d)) * float(n_tasks) + horizon_pad
    for _ in range(64):  # numeric safety for pathological overlaps
        if _capacity(hi, fleet) >= n_tasks:
            break
        hi = lo + 2.0 * (hi - lo)
    else:
        raise AnalysisError(
            "outage schedule leaves insufficient capacity to finish")
    hi = _bisect(fleet, n_tasks, lo, hi, 1e-9)
    k = _terms(hi, *fleet[:3], bias=1e-9)  # distinct rows
    return ExecutionOutcome(
        finish_time=hi,
        n_tasks=int(n_tasks),
        n_nodes=int(ready.size),
        tasks_per_node_max=int(k.max()) if k.size else 0,
    )


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
