"""Columnar census for the vector tier.

The event tier's Controller keeps a :class:`ColumnarCensusStore` keyed
by interned PNA ids; at 10⁷+ nodes the population indices *are* the
dense ids, so the vector census holds the same struct-of-arrays layout
(state / last-seen / instance columns, :data:`STATE_NONE` and the
``-inf`` never-seen sentinel from :mod:`repro.core.census`) directly
over population rows, with the same metric names (``census.*``) and
grace-window liveness convention (a node is alive when seen within
``grace`` of now).  Self-healing works like the event tier's
controller-crash recovery: :meth:`clear` wipes the census (it reads
zero, so availability accounting sees downtime) and the next heartbeat
epoch repopulates it from the live fleet.

While a job runs, its cohort is held as groups keyed by victim pattern,
each with one last-seen instant (registered while it is finite, as in
the columns), so heartbeat epochs and consolidations cost one step per
group.  The rows outside the cohort change only on a :meth:`clear`, so
their gauge contribution is counted once, when the cohort opens.  The
columns are written when they are read and when the cohort closes.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Optional

import numpy as np

from repro.core.census import (
    STATE_BUSY,
    STATE_IDLE,
    STATE_NONE,
    _NEVER,
    registry_reductions,
)
from repro.errors import ConfigurationError
from repro.telemetry import trace as telemetry
from repro.vector.executor import victim_patterns
from repro.vector.population import _CHUNK

__all__ = ["VectorCensus"]

_NO_INSTANCE = -1


class VectorCensus:
    """Struct-of-arrays census over ``n`` population rows.

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
        self._state = np.full(self.n, STATE_NONE, dtype=np.int8)
        self._seen = np.full(self.n, _NEVER, dtype=float)
        #: Instance ids by row; ``None`` until a row is first tagged.
        self._instance: Optional[np.ndarray] = None
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

    state = property(lambda self: self._synced()._state)
    seen = property(lambda self: self._synced()._seen)
    instance = property(lambda self: self._synced()._instances())

    def _instances(self) -> np.ndarray:
        """The instance column, allocated on first use."""
        if self._instance is None:
            self._instance = np.full(self.n, _NO_INSTANCE, dtype=np.int64)
        return self._instance

    def _synced(self) -> "VectorCensus":
        """Write the open cohort's registered groups into its rows."""
        c = self._cohort
        if c is not None:
            rows = np.flatnonzero(c.mask)
            for g in np.flatnonzero(c.last > _NEVER):
                group = rows[c.code == g]
                self._state[group] = STATE_BUSY
                self._seen[group] = c.last[g]
                self._instances()[group] = c.instance
        return self

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
        if self._cohort is not None and mask is not self._cohort.mask:
            self._synced()
        self._cohort = None
        if state != STATE_BUSY:
            for lo in range(0, self.n, _CHUNK):  # a bool setitem is slower
                part = slice(lo, lo + _CHUNK)
                rows = np.flatnonzero(mask[part])
                self._state[part][rows], self._seen[part][rows] = state, now
                if self._instance is not None:
                    self._instance[part][rows] = _NO_INSTANCE
            return
        outside = ~mask
        registered = np.count_nonzero(outside & (self._state != STATE_NONE))
        outside = np.flatnonzero(outside & (self._seen > _NEVER))
        seen = self._seen[outside]
        idle = np.sort(seen[self._state[outside] == STATE_IDLE])
        code, sizes, victim = patterns or victim_patterns((), mask.sum())
        self._cohort = SimpleNamespace(
            mask=mask, instance=instance, code=code, sizes=sizes,
            victim=victim, last=np.full(sizes.size, float(now)),
            outside=(int(registered), np.sort(seen), idle))

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
        self._state[:] = STATE_NONE
        self._seen[:] = _NEVER
        self._instance = None
        c = self._cohort
        if c is not None:
            c.last[:] = _NEVER
            c.outside = (0, c.outside[1][:0], c.outside[2][:0])

    # -- reads -------------------------------------------------------------
    def consolidate(self, now: float) -> Dict[str, int]:
        """Gauges at ``now`` (and push them to the ambient metrics
        registry, like a Controller maintenance round)."""
        horizon = now - self.grace_s
        c = self._cohort
        if c is None:
            out = registry_reductions(self._state, self._seen,
                                      horizon=horizon)
        else:
            registered, seen, idle = c.outside
            out = {
                "registry_size": registered
                + int(c.sizes[c.last > _NEVER].sum()),
                "idle": idle.size - int(np.searchsorted(idle, horizon)),
                "alive": seen.size - int(np.searchsorted(seen, horizon))
                + int(c.sizes[c.last >= horizon].sum()),
            }
        self.gauges = out
        if self._m_registry is not None:
            self._m_registry.set(out["registry_size"])
            self._m_idle.set(out["idle"])
            self._m_alive.set(out["alive"])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<VectorCensus n={self.n} "
                f"registry={self.gauges['registry_size']}>")
