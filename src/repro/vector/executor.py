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
Ready times and durations come as float or :class:`Coded` columns (the
wakeup's instants, the device classes' durations); the fleet is a tally
over (ready, duration, victim pattern) when that halves the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import AnalysisError

__all__ = ["Coded", "ExecutionOutcome", "code_rows", "makespan_waterfill",
           "makespan_under_outages", "per_task_wall_seconds",
           "victim_patterns"]

#: Rows per chunk of a column pass (a population build or gate, a
#: tally, a census write) and per wakeup leaf (>= 128).
_CHUNK = 1 << 16
#: Most values, device classes or victim patterns a tally takes; past
#: it the rows are bisected as they are.
_TALLY_MAX = 16


class Coded(NamedTuple):
    """A column held as ``values[codes]``: one unsigned code per row
    into a table of values, each of them held by some row."""

    values: np.ndarray
    codes: np.ndarray


def _widen(codes: np.ndarray, size: int) -> np.ndarray:
    """``codes`` in a dtype that holds codes below ``size``."""
    return codes.astype(np.promote_types(
        codes.dtype, np.min_scalar_type(size - 1)), copy=False)


def code_rows(column: np.ndarray, codes: np.ndarray, lo: int,
              index: dict) -> np.ndarray:
    """Write the code of each value of ``column`` into ``codes[lo:]``;
    ``index`` maps each value met so far to its code, in first-met
    order.  Returns ``codes``, widened when the index outgrows its
    dtype.  The first 16 values of ``column`` are found by one compare
    pass each (the value of the first row not yet coded), any others
    by one sort."""
    rows = slice(lo, lo + column.size)
    codes[rows] = 0
    left = np.ones(column.size, dtype=bool)  # rows not yet coded
    eq = np.empty_like(left)
    for _ in range(_TALLY_MAX):
        first = int(np.argmax(left))
        if not left[first]:
            return codes
        np.equal(column, column[first], out=eq)
        k = index.setdefault(float(column[first]), len(index))
        codes = _widen(codes, len(index))
        # its rows are all still 0: an add (a masked write is ~50x slower)
        codes[rows] += eq.view(np.uint8) * codes.dtype.type(k)
        left ^= eq
    rest = np.flatnonzero(left)
    if rest.size:
        values, inverse = np.unique(column[rest], return_inverse=True)
        table = [index.setdefault(v, len(index)) for v in values.tolist()]
        codes = _widen(codes, len(index))
        codes[lo + rest] = np.array(table)[inverse]
    return codes


def _coded(column: np.ndarray) -> Optional[Coded]:
    """``column`` as a :class:`Coded` of at most ``_TALLY_MAX`` values,
    or ``None`` when a strided sample shows mostly distinct values or
    the rows hold more."""
    sample = column[::max(1, column.size // 4096)]
    if 2 * np.unique(sample).size > sample.size:
        return None
    index, codes = {}, np.empty(column.size, dtype=np.uint8)
    for lo in range(0, column.size, _CHUNK):
        codes = code_rows(column[lo:lo + _CHUNK], codes, lo, index)
        if len(index) > _TALLY_MAX:
            return None
    return Coded(np.array(list(index), dtype=column.dtype), codes)


def _column(x):
    """A :class:`Coded` column's rows as floats; anything else as is."""
    return x.values[x.codes] if isinstance(x, Coded) else x


def _bounds(x):
    """Least and greatest value of a column, coded or not."""
    values = x.values if isinstance(x, Coded) else x
    return float(np.min(values)), float(np.max(values))


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
    mask, whether each pattern is its victim.  A mask is counted and
    added into the code column in place, 2^16 rows at a time through
    one buffer."""
    code = np.zeros(size, dtype=np.uint8)
    counts, victim = np.array([size]), np.zeros((0, 1), dtype=bool)
    for mask in masks:
        g = counts.size
        code = code.astype(np.min_scalar_type(2 * g - 1), copy=False)
        add = np.empty(min(size, _CHUNK), dtype=code.dtype)
        hit = counts if mask is None else np.zeros(g, dtype=np.int64)
        for lo in range(0, size, _CHUNK):
            part = code[lo:lo + _CHUNK]
            if mask is None:
                part += code.dtype.type(g)
                continue
            rows = mask[lo:lo + _CHUNK]
            hit += (np.bincount(part[rows], minlength=g) if g > 1
                    else np.count_nonzero(rows))
            part += np.multiply(rows.view(np.uint8), code.dtype.type(g),
                                out=add[:part.size])
        counts = np.concatenate([counts - hit, hit])
        victim = np.vstack([np.hstack([victim, victim]),
                            np.arange(2 * g) >= g])
        present = counts > 0
        if not present.all():  # renumber densely, in place
            dense = (np.cumsum(present) - 1).astype(code.dtype)
            for lo in range(0, size, _CHUNK):
                part = code[lo:lo + _CHUNK]
                np.take(dense, part, out=part)
            counts, victim = counts[present], victim[:, present]
    return code, counts, victim


def _tally(columns, n: int) -> np.ndarray:
    """Rows per combination of codes over ``columns``, ``(codes, size)``
    pairs (``codes`` ``None``: every row has code 0), as an array of
    shape ``sizes``: 2^16 rows at a time, one ``count_nonzero`` pass
    per combination but the last, which takes the remainder."""
    sizes = [size for _codes, size in columns]
    total = int(np.prod(sizes))
    counts = np.zeros(total, dtype=np.int64)
    if total > 1:
        key = np.empty(min(n, _CHUNK), dtype=np.min_scalar_type(total - 1))
        hit = np.empty(key.size, dtype=bool)
        for lo in range(0, n, _CHUNK):
            part = key[:min(_CHUNK, n - lo)]
            part[...] = 0
            for codes, size in columns:
                if size > 1:
                    part *= size
                if codes is not None:
                    np.add(part, codes[lo:lo + part.size], out=part,
                           casting="unsafe")
            for k in range(total - 1):
                counts[k] += np.count_nonzero(
                    np.equal(part, k, out=hit[:part.size]))
    counts[-1] = n - counts.sum()
    return counts.reshape(sizes)


def _distinct(ready, d, windows, patterns=None):
    """``(ready, d, windows, weights)``: rows equal in ready time,
    duration and victimhood have equal terms at every ``t``, so when
    that at least halves the rows (carousel wakeups tie ready times)
    keep one row per kind, weighted by its multiplicity, in victim
    pattern then ascending (ready, duration) order.  The weighted terms
    are integer-valued floats, so every capacity sum is exact below
    2^53 (and reads >= 2^53 > n above), as over the full rows.

    ``ready`` and a per-row ``d`` are float or :class:`Coded` columns;
    ``patterns`` is :func:`victim_patterns` of the windows' masks, if
    the caller has it."""
    def rows():
        return _column(ready), _column(d), windows, None

    n = ready.codes.size if isinstance(ready, Coded) else ready.size
    # One count pass per kind: past 16 windows, patterns or kinds, or
    # with mostly distinct values in a strided sample, it would not pay
    # for the probes it saves.
    if len(windows) > _TALLY_MAX:
        return rows()
    columns = []
    for x in (ready, d):
        if isinstance(x, Coded):
            columns.append(x)
        elif np.ndim(x) == 0:
            columns.append(Coded(np.array([float(x)]), None))
        else:
            columns.append(_coded(x))
            if columns[-1] is None:
                return rows()
    (r_values, r_codes), (d_values, d_codes) = columns
    if r_values.size * d_values.size > _TALLY_MAX:
        return rows()
    code, counts, victim = patterns or victim_patterns(
        [m for _s, _e, m in windows], n)
    if counts.size > _TALLY_MAX:
        return rows()
    r_order, d_order = np.argsort(r_values), np.argsort(d_values)
    table = _tally([(r_codes, r_values.size), (d_codes, d_values.size),
                    (code if counts.size > 1 else None, counts.size)], n)
    table = table[r_order][:, d_order].transpose(2, 0, 1)
    pattern, r, c = np.nonzero(table)  # in pattern, ready, d order
    if 2 * pattern.size > n:
        return rows()
    return (r_values[r_order][r],
            d if d_codes is None else d_values[d_order][c],
            [(s, e, m if m is None else victim[w][pattern])
             for w, (s, e, m) in enumerate(windows)],
            table[pattern, r, c].astype(float))


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


def _ready_rows(ready_times):
    """Validated ready times (a :class:`Coded` column stays one) and
    their row count."""
    ready = (ready_times if isinstance(ready_times, Coded)
             else np.asarray(ready_times, dtype=float))
    rows = ready.codes if isinstance(ready, Coded) else ready
    if rows.ndim != 1 or rows.size == 0:
        raise AnalysisError("ready_times must be a non-empty 1-D array")
    return ready, rows.size


def _first_values(ready: Coded, among: np.ndarray, count: int):
    """The values of the first ``count`` rows, in row order, whose
    value is one of ``among``."""
    wanted = np.flatnonzero(np.isin(ready.values, among))
    held = []
    for lo in range(0, ready.codes.size, _CHUNK):
        part = ready.codes[lo:lo + _CHUNK]
        held.append(part[np.isin(part, wanted)][:count])
        count -= held[-1].size
        if not count:
            break
    return ready.values[np.unique(np.concatenate(held))]


def makespan_waterfill(
    ready_times,
    n_tasks: int,
    task_wall_seconds: float,
) -> ExecutionOutcome:
    """Exact greedy-pull finish time for identical tasks.

    Each node starts pulling at its ready time (a float or
    :class:`Coded` column) and executes tasks back to back, each taking
    ``task_wall_seconds``.  Greedy pull (always the earliest-free node
    takes the next task) finishes the bag at the smallest T with
    ``sum_i floor((T - ready_i)^+ / d) >= n``; we then snap T to an
    exact task-completion instant.
    """
    ready, n_nodes = _ready_rows(ready_times)
    if n_tasks <= 0:
        raise AnalysisError(f"n_tasks must be > 0, got {n_tasks}")
    if task_wall_seconds <= 0:
        raise AnalysisError("task_wall_seconds must be > 0")

    d = float(task_wall_seconds)
    coded = ready if isinstance(ready, Coded) else _coded(ready)
    fleet = (ready, d, [], None) if coded is None else _distinct(coded, d, [])
    eps = min(1e-9, d * 1e-6)
    first, last = _bounds(ready)
    lo = first + d
    hi = first + d * float(n_tasks)  # one node does it all
    if _capacity(hi, fleet) < n_tasks:  # numeric safety
        hi = last + d * float(n_tasks)
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
        at = n_nodes - surplus
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
            # a partial tie across different k asks which rows keep k:
            # the first ``spare`` tie rows, read off the ready codes
            kept = _first_values(coded, vals[tie], spare)
            k[tie & ~np.isin(vals, kept)] -= 1
    active = k > 0
    finish = float((vals[active] + k[active] * d).max())
    return ExecutionOutcome(
        finish_time=finish,
        n_tasks=int(n_tasks),
        n_nodes=n_nodes,
        tasks_per_node_max=int(k.max()),
        groups=fleet,
    )


def makespan_under_outages(
    ready_times,
    n_tasks: int,
    task_wall_seconds,
    outages: Sequence = (),
    *,
    patterns=None,
) -> ExecutionOutcome:
    """Greedy-pull finish time with heterogeneous nodes and downtime.

    Generalises :func:`makespan_waterfill` along two axes at once:

    * ``task_wall_seconds`` may be a scalar (homogeneous fleet) or a
      per-node float or :class:`Coded` column aligned with
      ``ready_times``;
    * ``outages`` is a sequence of ``(start, end, mask)`` triples — a
      victim (``mask`` is a boolean array over nodes, or ``None`` for
      everyone) contributes no capacity while ``start <= t < end``;
      ``patterns``, if given, is :func:`victim_patterns` of their masks.

    Node *i*'s active time by T is ``(T - ready_i)^+`` minus the summed
    overlap of its outage windows with ``[ready_i, T)``; capacity is
    ``sum_i floor(active_i / d_i)`` and the finish time is found by
    binary search, snapped to within one task duration of the exact
    greedy completion (adequate at vector scale, and exact — via
    :func:`makespan_waterfill` — in the homogeneous fault-free case).
    Overlapping windows hitting the same node sum their downtime, a
    conservative (never optimistic) capacity estimate.
    """
    ready, n_nodes = _ready_rows(ready_times)
    if n_tasks <= 0:
        raise AnalysisError(f"n_tasks must be > 0, got {n_tasks}")
    d = task_wall_seconds
    if isinstance(d, Coded) or np.ndim(d):
        if not isinstance(d, Coded):
            d = np.asarray(d, dtype=float)
        if (d.codes if isinstance(d, Coded) else d).shape != (n_nodes,):
            raise AnalysisError(
                "per-node task_wall_seconds must align with ready_times")
        if _bounds(d)[0] <= 0:
            raise AnalysisError("task durations must be > 0")
    else:
        d = float(d)
        if d <= 0:
            raise AnalysisError("task_wall_seconds must be > 0")
        if not outages:
            return makespan_waterfill(ready, n_tasks, d)

    windows, kept = [], []
    for w, (start, end, mask) in enumerate(outages):
        if end <= start:
            raise AnalysisError(
                f"outage window must have end > start, got [{start}, {end})")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (n_nodes,):
                raise AnalysisError(
                    "outage mask must align with ready_times")
            if not mask.any():
                continue
        windows.append((float(start), float(end), mask))
        kept.append(w)
    if patterns is not None:  # a dropped window's mask split no pattern
        patterns = patterns[:2] + (patterns[2][kept],)

    fleet = _distinct(ready, d, windows, patterns)
    # One node doing the whole bag plus sitting out every (finite)
    # window bounds the finish from above; permanent windows contribute
    # through the mask (a fully masked-forever fleet cannot finish).
    horizon_pad = sum(end - start for start, end, _m in windows
                      if end < float("inf"))
    lo = _bounds(ready)[0]
    hi = lo + _bounds(d)[1] * float(n_tasks) + horizon_pad
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
        n_nodes=n_nodes,
        tasks_per_node_max=int(k.max()) if k.size else 0,
        groups=fleet,
    )
