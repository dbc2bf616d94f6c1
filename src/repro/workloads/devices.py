"""Device timing models — the paper's reference PC and DTV receiver.

The proof-of-concept (Section 4.4) ports BLAST to a set-top box based on
an STMicroelectronics ST7109 (32 MB flash / 256 MB RAM) and compares it
against a reference PC (Pentium Dual Core 1.6 GHz, 1 GB RAM, Debian).
The headline calibration results are *ratios*:

* STB in normal use is on average **20.6× slower** than the PC
  (max error 10% at 90% confidence);
* STB in use is on average **1.65× slower** than the same STB in
  standby (middleware inactive; max error 17%).

We encode devices as :class:`DeviceProfile`: a base slowdown relative to
the reference PC plus per-power-mode multipliers.  A compute task that
takes ``p`` seconds on the reference PC takes
``p * slowdown * mode_factor[mode]`` on the device.  The profiles below
are calibrated so that standby×1.65 = in-use and in-use/PC = 20.6,
matching the paper's Table II structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError

__all__ = [
    "PowerMode",
    "DeviceProfile",
    "REFERENCE_PC",
    "REFERENCE_STB",
    "STB_IN_USE_OVER_PC",
    "STB_IN_USE_OVER_STANDBY",
]

#: Paper calibration constants (Section 4.4).
STB_IN_USE_OVER_PC = 20.6
STB_IN_USE_OVER_STANDBY = 1.65


class PowerMode(enum.Enum):
    """Power / usage state of a receiver."""

    OFF = "off"            # no execution, not listening to broadcast
    STANDBY = "standby"    # middleware inactive; apps get the full CPU
    IN_USE = "in_use"      # a TV channel is tuned; apps share the CPU


@dataclass(frozen=True)
class DeviceProfile:
    """Relative compute performance of a device class.

    Attributes
    ----------
    name:
        Device class label.
    slowdown:
        Base execution-time multiplier vs the reference PC (>= any
        mode adjustments).  The reference PC has slowdown 1.0.
    mode_factors:
        Extra multiplier per :class:`PowerMode`.  ``OFF`` maps to
        ``inf`` conceptually (no execution) and must not appear here.
    """

    name: str
    slowdown: float
    mode_factors: Mapping[PowerMode, float] = field(
        default_factory=lambda: {PowerMode.STANDBY: 1.0,
                                 PowerMode.IN_USE: 1.0})

    def __post_init__(self) -> None:
        if self.slowdown <= 0:
            raise ConfigurationError(
                f"slowdown must be > 0, got {self.slowdown}")
        if PowerMode.OFF in self.mode_factors:
            raise ConfigurationError("OFF cannot have a compute factor")
        for mode, factor in self.mode_factors.items():
            if factor <= 0:
                raise ConfigurationError(
                    f"mode factor for {mode} must be > 0, got {factor}")

    def factor(self, mode: PowerMode) -> float:
        """Total execution-time multiplier vs the reference PC."""
        if mode is PowerMode.OFF:
            raise ConfigurationError(
                f"device {self.name!r} cannot compute while OFF")
        try:
            return self.slowdown * self.mode_factors[mode]
        except KeyError:
            raise ConfigurationError(
                f"device {self.name!r} has no factor for mode {mode}") from None

    def execution_time(self, reference_seconds: float,
                       mode: PowerMode = PowerMode.STANDBY) -> float:
        """Wall time on this device for work taking ``reference_seconds``
        on the reference PC."""
        if reference_seconds < 0:
            raise ConfigurationError(
                f"reference_seconds must be >= 0, got {reference_seconds}")
        return reference_seconds * self.factor(mode)


#: The paper's reference PC: Pentium Dual Core 1.6 GHz, 1 GB RAM, Debian.
REFERENCE_PC = DeviceProfile(
    name="reference-pc",
    slowdown=1.0,
    mode_factors={PowerMode.STANDBY: 1.0, PowerMode.IN_USE: 1.0},
)

#: The paper's DTV receiver: ST7109-based STB, calibrated so that
#: in-use/PC = 20.6 and in-use/standby = 1.65.
REFERENCE_STB = DeviceProfile(
    name="st7109-stb",
    slowdown=STB_IN_USE_OVER_PC / STB_IN_USE_OVER_STANDBY,  # standby ≈ 12.48×
    mode_factors={
        PowerMode.STANDBY: 1.0,
        PowerMode.IN_USE: STB_IN_USE_OVER_STANDBY,
    },
)
