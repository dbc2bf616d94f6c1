"""The set-top box: tuner + CPU + middleware + direct channel.

A :class:`SetTopBox` is the processing node of OddCI-DTV.  It can be
OFF (invisible to the system), in STANDBY (middleware inactive, full CPU
available to applications) or IN_USE (a TV channel tuned; applications
share the CPU with the viewing workload).  While powered it stays tuned
to a service and its application manager reacts to AIT snapshots, which
is how the PNA Xlet arrives.

Compute costs are expressed in *reference-PC seconds* and converted to
simulated durations through the receiver's
:class:`~repro.workloads.devices.DeviceProfile` and current power mode —
the calibration reproducing the paper's Table II ratios.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError, TuningError
from repro.carousel.carousel import ObjectCarousel
from repro.dtv.middleware import ApplicationManager
from repro.dtv.transport import Service
from repro.net.link import DuplexChannel
from repro.sim.core import Event, Simulator
from repro.workloads.devices import REFERENCE_STB, DeviceProfile, PowerMode

__all__ = ["SetTopBox"]


class SetTopBox:
    """One DTV receiver.

    Parameters
    ----------
    direct_channel:
        The full-duplex point-to-point channel (capacity δ) linking this
        receiver to the Controller/Backend (a home broadband uplink).
    profile:
        Device timing model; defaults to the paper's ST7109 STB.
    mode:
        Initial power mode.
    """

    def __init__(
        self,
        sim: Simulator,
        stb_id: str,
        *,
        direct_channel: Optional[DuplexChannel] = None,
        profile: DeviceProfile = REFERENCE_STB,
        mode: PowerMode = PowerMode.IN_USE,
    ) -> None:
        self.sim = sim
        self.stb_id = stb_id
        self.profile = profile
        self._mode = mode
        self.direct_channel = direct_channel
        self.app_manager = ApplicationManager(sim, self)
        self._service: Optional[Service] = None
        self._ait_token: Optional[int] = None
        if direct_channel is not None:
            direct_channel.set_up(mode is not PowerMode.OFF)

    # -- power --------------------------------------------------------------
    @property
    def mode(self) -> PowerMode:
        return self._mode

    @property
    def powered(self) -> bool:
        return self._mode is not PowerMode.OFF

    def set_mode(self, mode: PowerMode) -> None:
        """Change power mode.

        Powering OFF destroys running applications, detaches from the
        service and brings the direct channel down; powering back on
        re-attaches to the previously tuned service (the tuner remembers
        the channel), at which point the current AIT is re-delivered.
        """
        if mode is self._mode:
            return
        was_powered = self.powered
        self._mode = mode
        if self.direct_channel is not None:
            self.direct_channel.set_up(mode is not PowerMode.OFF)
        if mode is PowerMode.OFF:
            self.app_manager.destroy_all()
            if self._service is not None and self._ait_token is not None:
                self._service.detach(self._ait_token)
                self._ait_token = None
        elif not was_powered and self._service is not None:
            # woke up: re-attach to the remembered service
            self._ait_token = self._service.attach(
                self.app_manager.on_ait, self.app_manager.destroy_all)

    # -- tuner --------------------------------------------------------------
    @property
    def service(self) -> Optional[Service]:
        return self._service

    def tune(self, service: Service) -> None:
        """Tune to ``service``; running applications are killed first."""
        if not self.powered:
            raise TuningError(f"{self.stb_id}: cannot tune while OFF")
        if service is self._service:
            return
        self.untune()
        self._service = service
        self._ait_token = service.attach(self.app_manager.on_ait,
                                         self.app_manager.destroy_all)

    def untune(self) -> None:
        """Drop the current service (applications are killed)."""
        if self._service is None:
            return
        self.app_manager.destroy_all()
        if self._ait_token is not None:
            self._service.detach(self._ait_token)
        self._service = None
        self._ait_token = None

    def tuned_carousel(self) -> Optional[ObjectCarousel]:
        """The carousel of the tuned service, if any (used by middleware)."""
        if self._service is None or not self.powered:
            return None
        return self._service.carousel

    # -- compute ---------------------------------------------------------------
    def execution_time(self, reference_seconds: float) -> float:
        """Simulated duration of work costing ``reference_seconds`` on the
        reference PC, under the current power mode."""
        if not self.powered:
            raise ConfigurationError(
                f"{self.stb_id}: cannot compute while OFF")
        return self.profile.execution_time(reference_seconds, self._mode)

    def compute(self, reference_seconds: float) -> Event:
        """Event that succeeds when the computation finishes.

        The duration is fixed at call time from the current mode; mode
        changes mid-computation are a second-order effect the paper's
        model also ignores (it uses average per-mode times).
        """
        return self.sim.timeout(self.execution_time(reference_seconds))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        svc = self._service.name if self._service else None
        return (f"<SetTopBox {self.stb_id} {self._mode.value} "
                f"service={svc!r}>")
