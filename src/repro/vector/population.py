"""Vectorised receiver populations.

A :class:`VectorPopulation` holds the state of up to hundreds of
millions of receivers as NumPy arrays (power mode, idle/busy, link
state, device factor) and implements the wakeup semantics in bulk:
requirement filtering and the probability gate.

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
        powered = init.random(self.n) < powered_fraction
        in_use = init.random(self.n) < in_use_fraction
        self.mode = np.where(
            powered, np.where(in_use, _IN_USE, _STANDBY), _OFF
        ).astype(np.int8)
        self.busy = np.zeros(self.n, dtype=bool)
        self.matches = init.random(self.n) < requirement_match_fraction
        #: Link state column — fault plans partition links by flipping
        #: these; a node with a down link cannot be recruited.
        self.link_up = np.ones(self.n, dtype=bool)
        self._in_use_factor = profile.factor(PowerMode.IN_USE)
        self._standby_factor = profile.factor(PowerMode.STANDBY)
        self.device_factor = np.where(
            self.mode == _IN_USE, self._in_use_factor, self._standby_factor
        ).astype(float)

    # -- census -----------------------------------------------------------
    @property
    def powered_count(self) -> int:
        return int((self.mode != _OFF).sum())

    @property
    def idle_count(self) -> int:
        return int(((self.mode != _OFF) & ~self.busy).sum())

    @property
    def busy_count(self) -> int:
        return int(self.busy.sum())

    def eligible_mask(self) -> np.ndarray:
        """Powered, idle, requirement-matching, link up."""
        return ((self.mode != _OFF) & ~self.busy & self.matches
                & self.link_up)

    # -- wakeup ------------------------------------------------------------
    def recruit(self, probability: float) -> np.ndarray:
        """Apply the wakeup gate; returns the indices of accepting nodes.

        Eligible = powered, idle, requirement-matching, link up; each
        accepts independently with ``probability`` and flips to busy.
        Draws come from the ``"vector.recruit"`` stream.
        """
        if not 0.0 < probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in (0, 1], got {probability}")
        draw = self.streams["recruit"]
        accept = self.eligible_mask() & (draw.random(self.n) < probability)
        self.busy |= accept
        return np.nonzero(accept)[0]

    def release(self, indices: Optional[np.ndarray] = None) -> None:
        """Reset recruited nodes to idle (``None`` = everyone)."""
        if indices is None:
            self.busy[:] = False
        else:
            self.busy[indices] = False

    # -- churn / fault state ops -------------------------------------------
    def power_off(self, indices: np.ndarray) -> None:
        """Correlated power-off (churn-storm victims): any running work
        is dropped with the power."""
        self.mode[indices] = _OFF
        self.busy[indices] = False

    def power_on(self, indices: np.ndarray, *, in_use: bool = False) -> None:
        """Return nodes to the powered pool (standby unless ``in_use``)."""
        mode = _IN_USE if in_use else _STANDBY
        self.mode[indices] = mode
        self.device_factor[indices] = (
            self._in_use_factor if in_use else self._standby_factor)

    def set_link(self, indices: np.ndarray, up: bool) -> None:
        """Partition (or heal) the direct links of ``indices``."""
        self.link_up[indices] = up

    def validate(self) -> None:
        """Shape/dtype/invariant assertions (mirrors the census stores'
        numpy-boundary self-checks)."""
        n = self.n
        for name, column, dtype in (
                ("mode", self.mode, np.int8),
                ("busy", self.busy, np.bool_),
                ("matches", self.matches, np.bool_),
                ("link_up", self.link_up, np.bool_),
                ("device_factor", self.device_factor, np.float64)):
            assert column.shape == (n,), f"{name} shape {column.shape}"
            assert column.dtype == dtype, f"{name} dtype {column.dtype}"
        assert not (self.busy & (self.mode == _OFF)).any(), \
            "powered-off nodes cannot be busy"
        assert np.isin(self.mode, (_OFF, _STANDBY, _IN_USE)).all(), \
            "unknown mode code"
        assert (self.device_factor > 0).all(), "non-positive device factor"
