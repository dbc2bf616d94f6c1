"""Vectorised bag-of-tasks execution for very large node counts.

The event tier simulates every message: faithful, at ~290 B per PNA
(10⁷ PNAs: ~9 s, 2.9 GB).  For the paper's scalability claims (requirement I:
"hundreds of millions of processing resources") we compute the *same*
pull-scheduling outcome with array math: :func:`makespan_waterfill`
binary-searches the finish time T such that the fleet's aggregate task
capacity by T reaches ``n`` (homogeneous tasks; exact greedy
list-scheduling result in O(N · log) vectorised passes), and
:func:`makespan_under_outages` generalises it to compute-outage
windows.

Both include the per-task direct-channel I/O time, matching the event
tier's DVE loop (request → input transfer → compute → result transfer).
Tests cross-validate them against a heap-based greedy scheduler and
against the event tier on overlapping sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import AnalysisError

__all__ = ["ExecutionOutcome", "makespan_waterfill",
           "makespan_under_outages", "per_task_wall_seconds",
           "victim_patterns"]


@dataclass(frozen=True)
class ExecutionOutcome:
    """Result of a vectorised execution.

    ``finish_time`` is when the last result lands (absolute, same
    origin as the ready times); ``tasks_per_node_max`` characterises the
    load imbalance; ``groups`` is the :func:`_distinct` fleet it ran on.
    """

    finish_time: float
    n_tasks: int
    n_nodes: int
    tasks_per_node_max: int
    groups: Optional[tuple] = field(default=None, compare=False, repr=False)


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


def victim_patterns(masks, size: int):
    """Each of ``size`` rows' victim pattern over ``masks`` (boolean
    arrays, ``None`` for every row): ``(code, counts, victim)``, the
    row's pattern number (narrowest unsigned dtype, in the order of the
    bit codes ``sum_w mask_w << w``), the rows per pattern and, per
    mask, whether each pattern is its victim."""
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


def _distinct(ready: np.ndarray, d, windows):
    """``(ready, d, windows, weights)``: rows equal in ready time,
    duration and victimhood have equal terms at every ``t``, so when
    that at least halves the rows (carousel wakeups tie ready times)
    keep one row per kind, weighted by its multiplicity.  The weighted
    terms are integer-valued floats, so every capacity sum is exact
    below 2^53 (and reads >= 2^53 > n above), as over the full rows."""
    # One full-width compare pass per value and pattern: past 16 windows,
    # patterns or values, or with mostly distinct ready times in a
    # strided sample, it would not pay for the probes it saves.
    sample = ready[::max(1, ready.size // 4096)]
    if len(windows) > 16 or 2 * np.unique(sample).size > sample.size:
        return ready, d, windows, None
    code, counts, victim = victim_patterns(
        [m for _s, _e, m in windows], ready.size)
    key = ready if np.ndim(d) == 0 else ready + 1j * d
    values, table, hit = [], [], np.zeros(ready.size, dtype=bool)
    eq = np.empty_like(hit)
    while not hit.all():  # the value of the first row not yet counted
        if counts.size > 16 or len(values) == 16:
            return ready, d, windows, None
        values.append(key[np.argmin(hit)])
        hit |= np.equal(key, values[-1], out=eq)
        table.append([np.count_nonzero(eq & (code == c))
                      for c in range(counts.size)])
    order = np.argsort(values)
    table = np.array(table)[order].T  # rows per (pattern, value)
    code, kind = np.nonzero(table)
    if 2 * code.size > ready.size:
        return ready, d, windows, None
    key = np.array(values)[order][kind]
    return (key.real, d if np.ndim(d) == 0 else key.imag,
            [(s, e, m if m is None else victim[w][code])
             for w, (s, e, m) in enumerate(windows)],
            table[code, kind].astype(float))


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
    # the boundary instant), on the distinct rows.
    vals, _d, _w, weight = fleet

    def rows(sel) -> int:  # rows the selected distinct rows stand for
        return int(np.count_nonzero(sel) if weight is None else weight @ sel)
    k = _terms(hi, vals, d, (), bias=eps)
    total = int(k.sum() if weight is None else k @ weight)
    k = k.astype(np.int64)
    if total < n_tasks:
        raise AnalysisError("waterfill failed to converge")  # pragma: no cover
    surplus = total - n_tasks
    if surplus > 0:
        if surplus > rows(k > 0):  # pragma: no cover - eps pathologies
            raise AnalysisError("waterfill surplus exceeds active nodes")
        # The latest finishers in stable order: every finish above the
        # cut (row N - surplus's), then the highest-indexed rows at it.
        done = k * d
        done += vals
        done[k == 0] = -np.inf
        at = ready.size - surplus
        if weight is None:
            cut = np.partition(done, at)[at]
        else:  # the distinct row holding row ``at`` in finish order
            cut = np.sort(done)[np.cumsum(weight[np.argsort(done)]) > at][0]
        later, tie = done > cut, done == cut
        spare = rows(tie) - surplus + rows(later)  # tie rows keeping k
        k[later] -= 1
        if weight is None:
            k[np.flatnonzero(tie)[spare:]] -= 1
        elif spare == 0:
            k[tie] -= 1
        elif np.ptp(k[tie]):  # rows holding k and k - 1 count as k, so
            # a partial tie across different k asks which rows keep k
            kept = ready[np.isin(ready, vals[tie])][:spare]
            k[tie & ~np.isin(vals, kept)] -= 1
    active = k > 0
    finish = float((vals[active] + k[active] * d).max())
    return ExecutionOutcome(
        finish_time=finish,
        n_tasks=int(n_tasks),
        n_nodes=int(ready.size),
        tasks_per_node_max=int(k.max()),
        groups=fleet,
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
        groups=fleet,
    )
