"""Vectorised receiver populations.

A :class:`VectorPopulation` holds the state of up to hundreds of
millions of receivers as NumPy arrays (power mode, idle/busy, link
state; a device factor follows from the power mode) and implements the
wakeup semantics in bulk: requirement filtering and the probability
gate.

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
from repro.workloads.devices import (
    REFERENCE_STB,
    DeviceProfile,
    PowerMode,
)

__all__ = ["STREAM_NAMES", "VectorPopulation"]

# Mode codes in the state arrays.
_OFF, _STANDBY, _IN_USE = 0, 1, 2
#: Rows per chunk of a column build or gate, and per wakeup leaf (>= 128).
_CHUNK = 1 << 16

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
        self.mode = np.empty(self.n, dtype=np.int8)
        for rows, powered in self._gate(init, powered_fraction):
            self.mode[rows] = powered
        for rows, in_use in self._gate(init, in_use_fraction):
            self.mode[rows] <<= in_use  # standby 1 -> in use 2
        self.busy = np.zeros(self.n, dtype=bool)
        self.matches = np.empty(self.n, dtype=bool)
        for rows, match in self._gate(init, requirement_match_fraction):
            self.matches[rows] = match
        #: Link state column — fault plans partition links by flipping
        #: these; a node with a down link cannot be recruited.
        self.link_up = np.ones(self.n, dtype=bool)
        self._in_use_factor = profile.factor(PowerMode.IN_USE)
        self._standby_factor = profile.factor(PowerMode.STANDBY)

    def _gate(self, draw: np.random.Generator, fraction: float):
        """``draw.random(n) < fraction`` in chunks of rows: yields
        ``(rows, mask)``, drawing the same stream as one call would.

        A fraction of 0 or 1 decides every row: its chunks advance the
        stream by one uint64 per row (PCG64's ``random()`` takes one)
        and yield the constant.  ``advance`` also drops PCG64's buffered
        32-bit half, so ``draw`` must serve nothing but ``random()``.
        """
        for lo in range(0, self.n, _CHUNK):
            rows = slice(lo, min(lo + _CHUNK, self.n))
            if 0.0 < fraction < 1.0:
                yield rows, draw.random(rows.stop - lo) < fraction
            else:
                draw.bit_generator.advance(rows.stop - lo)
                yield rows, fraction >= 1.0

    def device_factors(self, accepted: np.ndarray):
        """Mode-derived factors of the masked rows; one float if equal."""
        in_use = self.mode == _IN_USE  # whole-row passes: no gather
        f_use, f_stb = self._in_use_factor, self._standby_factor
        if f_use == f_stb or not (accepted & ~in_use).any():
            return f_use
        if not (accepted & in_use).any():
            return f_stb
        return np.where(in_use[accepted], f_use, f_stb)

    # -- census -----------------------------------------------------------
    @property
    def powered_count(self) -> int:
        return int(np.count_nonzero(self.mode != _OFF))

    @property
    def idle_count(self) -> int:
        return int(np.count_nonzero((self.mode != _OFF) & ~self.busy))

    @property
    def busy_count(self) -> int:
        return int(np.count_nonzero(self.busy))

    def eligible_mask(self, rows=slice(None)) -> np.ndarray:
        """Powered, idle, requirement-matching, link up."""
        return ((self.mode[rows] != _OFF) & ~self.busy[rows]
                & self.matches[rows] & self.link_up[rows])

    # -- wakeup ------------------------------------------------------------
    def recruit(self, probability: float) -> np.ndarray:
        """Apply the wakeup gate; returns the accepting nodes' mask (one
        bool per population row).

        Eligible = powered, idle, requirement-matching, link up; each
        accepts independently with ``probability`` and flips to busy.
        Draws come from the ``"vector.recruit"`` stream.
        """
        if not 0.0 < probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in (0, 1], got {probability}")
        accept = np.empty(self.n, dtype=bool)
        for rows, gate in self._gate(self.streams["recruit"], probability):
            accept[rows] = gate & self.eligible_mask(rows)
        self.busy |= accept
        return accept

    def release(self, mask: Optional[np.ndarray] = None) -> None:
        """Reset the masked rows to idle (``None`` = everyone)."""
        if mask is None:
            self.busy[:] = False
        else:
            self.busy &= ~mask
