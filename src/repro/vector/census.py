"""Columnar census for the vector tier.

The event tier's Controller keeps a :class:`ColumnarCensusStore` keyed
by interned PNA ids; at 10⁷+ nodes the population indices *are* the
dense ids, so the vector census keeps its rows directly over population
rows, with the same state codes (:data:`STATE_NONE` and the ``-inf``
never-seen sentinel from :mod:`repro.core.census`), metric names
(``census.*``) and grace-window liveness convention (a node is alive
when seen within ``grace`` of now).  Self-healing works like the event
tier's controller-crash recovery: :meth:`clear` wipes the census (it
reads zero, so availability accounting sees downtime) and the next
heartbeat epoch repopulates it from the live fleet.

Every write sets one (state, last-seen, instance) triple on a whole row
mask, so the rows take a handful of distinct values.  Each row holds
one unsigned *epoch code* (1 B/row) into a small table of those
triples, with a row count per code; code 0 is never seen.  A write
takes a free code (one whose count is 0) and blends it into the masked
rows 2¹⁶ at a time; the column widens only when every code is live.
The gauges are sums of the counts over the table.

While a job runs, its cohort is held as groups keyed by victim pattern,
each with one last-seen instant (registered while it is finite), so
heartbeat epochs and consolidations cost one step per group.  The rows
outside the cohort change only on a :meth:`clear`, so their counts per
code are taken once, when the cohort opens, and the closing write
needs no further pass.  The ``state`` / ``seen`` / ``instance`` columns
are read through the table with the groups laid over them; a read
writes nothing.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Optional

import numpy as np

from repro.core.census import (
    NO_INSTANCE,
    STATE_BUSY,
    STATE_IDLE,
    STATE_NONE,
    _NEVER,
)
from repro.errors import ConfigurationError
from repro.telemetry import trace as telemetry
from repro.vector.executor import _CHUNK, victim_patterns

__all__ = ["VectorCensus"]


class VectorCensus:
    """Epoch-coded census over ``n`` population rows.

    Parameters
    ----------
    n:
        Population size (row *index* is the node id).
    grace_s:
        Liveness horizon: a node counts as alive when its last heartbeat
        is within ``grace_s`` of the consolidation instant (the event
        tier uses 3x the heartbeat interval; callers pass the same).
    """

    def __init__(self, n: int, *, grace_s: float) -> None:
        if n <= 0:
            raise ConfigurationError(f"n must be > 0, got {n}")
        if grace_s <= 0:
            raise ConfigurationError(f"grace_s must be > 0, got {grace_s}")
        self.n = int(n)
        self.grace_s = float(grace_s)
        #: Epoch code by row, into the table below (0: never seen).
        self._code = np.zeros(self.n, dtype=np.uint8)
        #: The epoch table, by code: state, last-seen, instance, rows.
        self._states = np.full(256, STATE_NONE, dtype=np.int8)
        self._seens = np.full(256, _NEVER)
        self._instances = np.full(256, NO_INSTANCE, dtype=np.int64)
        self._count = np.zeros(256, dtype=np.int64)
        self._count[0] = self.n
        #: The open cohort (``None`` between jobs).
        self._cohort: Optional[SimpleNamespace] = None
        #: Last reductions computed by :meth:`consolidate`.
        self.gauges: Dict[str, int] = {
            "registry_size": 0, "idle": 0, "alive": 0}
        metrics = telemetry.metrics_registry()
        if metrics is None:
            self._m_heartbeats = None
            self._m_registry = self._m_idle = self._m_alive = None
        else:
            self._m_heartbeats = metrics.counter("census.heartbeats")
            self._m_registry = metrics.gauge("census.registry_size")
            self._m_idle = metrics.gauge("census.idle")
            self._m_alive = metrics.gauge("census.alive")

    state = property(lambda self: self._read(
        self._states, lambda c: STATE_BUSY))
    seen = property(lambda self: self._read(self._seens, lambda c: c.last))
    instance = property(lambda self: self._read(
        self._instances, lambda c: c.instance))

    def _read(self, table: np.ndarray, group_value) -> np.ndarray:
        """A read-only column: ``table`` by row code, with
        ``group_value(cohort)`` (one value, or one per group) on the open
        cohort's registered groups."""
        out = table[self._code]
        c = self._cohort
        if c is not None:
            on = (c.last > _NEVER)[c.code]
            out[np.flatnonzero(c.mask)[on]] = np.broadcast_to(
                group_value(c), c.sizes.shape)[c.code[on]]
        out.flags.writeable = False
        return out

    def _new_code(self, state: int, seen: float, instance: int,
                  rows: int) -> int:
        """A free code for ``rows`` rows of this triple; the table (and
        the column's dtype) doubles when every code is live."""
        free = np.flatnonzero(self._count[1:] == 0)
        if free.size == 0:
            size = self._count.size
            self._states, self._seens, self._instances, self._count = (
                np.concatenate([t, np.full(size, fill, dtype=t.dtype)])
                for t, fill in ((self._states, STATE_NONE),
                                (self._seens, _NEVER),
                                (self._instances, NO_INSTANCE),
                                (self._count, 0)))
            self._code = self._code.astype(
                np.min_scalar_type(2 * size - 1), copy=False)
            free = np.array([size - 1])
        k = int(free[0]) + 1
        self._states[k], self._seens[k], self._instances[k] = (
            state, seen, instance)
        self._count[k] = rows
        return k

    def _outside(self, mask: np.ndarray) -> np.ndarray:
        """Rows outside ``mask`` per code, in one chunked pass (one
        compare per live code but one, which takes the remainder)."""
        inside = np.zeros_like(self._count)
        live = np.flatnonzero(self._count).tolist()
        total, buf = 0, np.empty(min(self.n, _CHUNK), dtype=bool)
        for lo in range(0, self.n, _CHUNK):
            part, m = self._code[lo:lo + _CHUNK], mask[lo:lo + _CHUNK]
            hit = buf[:part.size]
            total += np.count_nonzero(m)
            for k in live[1:]:
                np.equal(part, k, out=hit)
                hit &= m
                inside[k] += np.count_nonzero(hit)
        inside[live[0]] = total - inside.sum()
        return self._count - inside

    def _write(self, mask: np.ndarray, k: int) -> None:
        """Set the rows of ``mask`` to code ``k``, 2¹⁶ rows at a time
        (``code += (k - code) * mask``, modular, beats a scatter)."""
        buf = np.empty(min(self.n, _CHUNK), dtype=self._code.dtype)
        for lo in range(0, self.n, _CHUNK):
            part = self._code[lo:lo + _CHUNK]
            step = np.subtract(k, part, out=buf[:part.size])
            step *= mask[lo:lo + _CHUNK]
            part += step

    def _settle(self) -> None:
        """Close the open cohort into the column: each registered group
        takes the code of its instant, the others code 0."""
        c = self._cohort
        self._count = c.outside
        group = np.zeros(c.sizes.size, dtype=np.int64)
        self._count[0] += c.sizes[c.last == _NEVER].sum()
        for last in np.unique(c.last[c.last > _NEVER]):
            groups = c.last == last
            group[groups] = self._new_code(
                STATE_BUSY, last, c.instance, c.sizes[groups].sum())
        self._code[np.flatnonzero(c.mask)] = group[c.code]

    # -- writes ------------------------------------------------------------
    def observe(self, mask: np.ndarray, state: int,
                instance: int, now: float, *, patterns=None) -> None:
        """Record a state transition for the rows of the boolean row
        ``mask`` (vector analogue of the per-payload ``touch``), closing
        an open cohort.  BUSY opens ``mask`` as the cohort, grouped by
        its rows' ``patterns``
        (:func:`~repro.vector.executor.victim_patterns`)."""
        if state not in (STATE_NONE, STATE_IDLE, STATE_BUSY):
            raise ConfigurationError(f"unknown census state {state}")
        c = self._cohort
        if c is not None and mask is not c.mask:
            self._settle()
            c = None
        self._cohort = None
        if state == STATE_BUSY:
            outside = self._outside(mask)
            code, sizes, victim = patterns or victim_patterns(
                (), self.n - int(outside.sum()))
            self._cohort = SimpleNamespace(
                mask=mask, instance=instance, code=code, sizes=sizes,
                victim=victim, last=np.full(sizes.size, float(now)),
                outside=outside)
            return
        self._count = self._outside(mask) if c is None else c.outside
        self._write(mask, self._new_code(
            state, now, NO_INSTANCE, self.n - self._count.sum()))

    def heartbeat(self, down, now: float) -> None:
        """One heartbeat epoch of the open cohort: the groups outside
        the victims of the windows numbered ``down`` refresh last-seen
        (and re-register after a :meth:`clear`)."""
        c = self._cohort
        up = ~c.victim[list(down)].any(axis=0)
        c.last[up] = now
        m = self._m_heartbeats
        if m is not None:
            m.value += int(c.sizes[up].sum())

    def clear(self) -> None:
        """Controller-crash semantics: the census restarts empty and the
        next heartbeat epoch repopulates it."""
        self._code[:] = 0
        self._count[:] = 0
        self._count[0] = self.n
        c = self._cohort
        if c is not None:
            c.last[:] = _NEVER
            c.outside = np.zeros_like(self._count)
            c.outside[0] = self.n - c.sizes.sum()

    # -- reads -------------------------------------------------------------
    def consolidate(self, now: float) -> Dict[str, int]:
        """Gauges at ``now`` (and push them to the ambient metrics
        registry, like a Controller maintenance round)."""
        horizon = now - self.grace_s
        c = self._cohort
        count = self._count if c is None else c.outside
        alive = self._seens >= horizon
        out = {
            "registry_size": int(count[self._states != STATE_NONE].sum()),
            "idle": int(count[alive & (self._states == STATE_IDLE)].sum()),
            "alive": int(count[alive].sum()),
        }
        if c is not None:
            out["registry_size"] += int(c.sizes[c.last > _NEVER].sum())
            out["alive"] += int(c.sizes[c.last >= horizon].sum())
        self.gauges = out
        if self._m_registry is not None:
            self._m_registry.set(out["registry_size"])
            self._m_idle.set(out["idle"])
            self._m_alive.set(out["alive"])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<VectorCensus n={self.n} "
                f"registry={self.gauges['registry_size']}>")
