"""Vectorised receiver populations.

A :class:`VectorPopulation` holds the state of up to hundreds of
millions of receivers as NumPy arrays (power mode, idle/busy,
requirement match; a device factor follows from the power mode) and
implements the wakeup semantics in bulk: requirement filtering and the
probability gate.  A column that its build fraction decides (0 or 1
for every row) is held as that one value, and the passes that read it
skip it.  Link faults reach this tier as compute-outage windows
(:func:`repro.faults.masks.storm_victims`), not as a column.

Randomness follows the event tier's named-stream contract: every
stochastic component draws from its own SeedSequence-derived stream of
``seed`` (``"vector.population"`` for the initial state,
``"vector.recruit"`` for the probability gate, ``"vector.wakeup"`` for
carousel phases, ``"vector.churn"`` for availability sampling,
``"vector.faults"`` for fault-plan jitter and victim selection).

Jobs run on a population through
:class:`~repro.vector.system.VectorOddCISystem`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import derive_generator
from repro.vector.executor import _CHUNK, Coded
from repro.workloads.devices import (
    REFERENCE_STB,
    DeviceProfile,
    PowerMode,
)

__all__ = ["STREAM_NAMES", "VectorPopulation"]

# Mode codes in the state arrays.
_OFF, _STANDBY, _IN_USE = 0, 1, 2

#: Named RNG streams a seeded population owns (sim/rng.py derivation:
#: ``derive_generator(seed, "vector.<name>")``).
STREAM_NAMES = ("population", "recruit", "wakeup", "churn", "faults")


class VectorPopulation:
    """Array-backed population of receivers.

    Parameters
    ----------
    n:
        Population size (tested to 10⁷; 10⁸ smoke).
    seed:
        Master seed for the named streams (the event-tier contract;
        required for ``--jobs`` byte-parity of vector scenarios).
    in_use_fraction:
        Fraction of powered receivers watching TV.
    powered_fraction:
        Fraction of the population that is switched on at all.
    requirement_match_fraction:
        Fraction of receivers satisfying the wakeup requirements
        (heterogeneity abstracted to a rate at this scale).
    """

    def __init__(
        self,
        n: int,
        *,
        seed: Optional[int] = None,
        in_use_fraction: float = 1.0,
        powered_fraction: float = 1.0,
        requirement_match_fraction: float = 1.0,
        profile: DeviceProfile = REFERENCE_STB,
    ) -> None:
        if n <= 0:
            raise ConfigurationError(f"n must be > 0, got {n}")
        for name, frac in (("in_use_fraction", in_use_fraction),
                           ("powered_fraction", powered_fraction),
                           ("requirement_match_fraction",
                            requirement_match_fraction)):
            if not 0.0 <= frac <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        self.n = int(n)
        self.seed = seed
        self.streams: Dict[str, np.random.Generator] = {
            name: derive_generator(seed, f"vector.{name}")
            for name in STREAM_NAMES}
        self.profile = profile
        init = self.streams["population"]
        mode = self._column(init, powered_fraction, np.int8)
        if np.ndim(mode) == 0 and (mode == _OFF
                                   or in_use_fraction in (0.0, 1.0)):
            init.bit_generator.advance(self.n)  # the in-use draw
            mode <<= np.int8(in_use_fraction >= 1.0)
        else:
            mode = np.array(np.broadcast_to(mode, self.n))
            for rows, in_use in self._gate(init, in_use_fraction):
                mode[rows] <<= in_use  # standby 1 -> in use 2
        #: Power mode and requirement match, by row or as the one value
        #: a decided fraction gives every row.
        self._mode = mode
        self._matches = self._column(init, requirement_match_fraction,
                                     np.bool_)
        self.busy = np.zeros(self.n, dtype=bool)
        self._in_use_factor = profile.factor(PowerMode.IN_USE)
        self._standby_factor = profile.factor(PowerMode.STANDBY)

    def _column(self, draw: np.random.Generator, fraction: float, dtype):
        """``draw.random(n) < fraction`` as a ``dtype`` column, or as one
        ``dtype`` value when the fraction decides every row."""
        if fraction in (0.0, 1.0):
            draw.bit_generator.advance(self.n)
            return dtype(fraction >= 1.0)
        column = np.empty(self.n, dtype=dtype)
        for rows, gate in self._gate(draw, fraction):
            column[rows] = gate
        return column

    # Read-only full-length views of the columns (for external readers).
    mode = property(lambda self: np.broadcast_to(self._mode, self.n))
    matches = property(lambda self: np.broadcast_to(self._matches, self.n))

    def _gate(self, draw: np.random.Generator, fraction: float):
        """``draw.random(n) < fraction`` in chunks of rows: yields
        ``(rows, mask)``, drawing the same stream as one call would.

        A fraction of 0 or 1 decides every row: its chunks advance the
        stream by one uint64 per row (PCG64's ``random()`` takes one)
        and yield the constant.  ``advance`` also drops PCG64's buffered
        32-bit half, so ``draw`` must serve nothing but ``random()``.
        The masks share one buffer: each is valid until the next.
        """
        drawn = 0.0 < fraction < 1.0
        buf = np.empty(min(self.n, _CHUNK) if drawn else 0)
        hit = np.empty(buf.size, dtype=bool)
        for lo in range(0, self.n, _CHUNK):
            rows = slice(lo, min(lo + _CHUNK, self.n))
            if drawn:
                part = draw.random(out=buf[:rows.stop - lo])
                yield rows, np.less(part, fraction, out=hit[:part.size])
            else:
                draw.bit_generator.advance(rows.stop - lo)
                yield rows, fraction >= 1.0

    def device_factors(self, accepted: np.ndarray):
        """The masked rows' device factors, from their power modes: one
        float for one device class, else a
        :class:`~repro.vector.executor.Coded` column over the
        (standby, in use) factors."""
        f_use, f_stb = self._in_use_factor, self._standby_factor
        if np.ndim(self._mode) == 0:
            return f_stb if self._mode == _STANDBY else f_use
        in_use = self._mode == _IN_USE  # whole-row passes: no gather
        if f_use == f_stb or not (accepted & ~in_use).any():
            return f_use
        if not (accepted & in_use).any():
            return f_stb
        return Coded(np.array([f_stb, f_use]),
                     in_use[accepted].view(np.uint8))

    # -- census -----------------------------------------------------------
    @property
    def powered_count(self) -> int:
        if np.ndim(self._mode) == 0:
            return self.n if self._mode != _OFF else 0
        return int(np.count_nonzero(self._mode != _OFF))

    @property
    def idle_count(self) -> int:
        if np.ndim(self._mode) == 0:
            return self.n - self.busy_count if self._mode != _OFF else 0
        return int(np.count_nonzero((self._mode != _OFF) & ~self.busy))

    @property
    def busy_count(self) -> int:
        return int(np.count_nonzero(self.busy))

    def eligible_mask(self, rows=slice(None), out=None) -> np.ndarray:
        """Powered, idle and requirement-matching (into ``out``); a
        decided column adds no pass."""
        out = np.logical_not(self.busy[rows], out=out)
        if np.ndim(self._mode):
            out &= self._mode[rows] != _OFF
        elif self._mode == _OFF:
            out[...] = False
        if np.ndim(self._matches):
            out &= self._matches[rows]
        elif not self._matches:
            out[...] = False
        return out

    # -- wakeup ------------------------------------------------------------
    def recruit(self, probability: float) -> np.ndarray:
        """Apply the wakeup gate; returns the accepting nodes' mask (one
        bool per population row).

        Eligible = powered, idle, requirement-matching; each accepts
        independently with ``probability`` and flips to busy.  Draws
        come from the ``"vector.recruit"`` stream.
        """
        if not 0.0 < probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in (0, 1], got {probability}")
        accept = np.empty(self.n, dtype=bool)
        for rows, gate in self._gate(self.streams["recruit"], probability):
            part = self.eligible_mask(rows, accept[rows])
            if gate is not True:
                part &= gate
        self.busy |= accept
        return accept

    def release(self, mask: Optional[np.ndarray] = None) -> None:
        """Reset the masked rows to idle (``None`` = everyone)."""
        if mask is None:
            self.busy[:] = False
        else:
            self.busy &= ~mask
