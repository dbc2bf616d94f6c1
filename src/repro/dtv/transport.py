"""Transport-stream multiplex and DTV services.

A :class:`Multiplex` models one physical transport stream of fixed
capacity carrying several :class:`Service` instances (TV channels).
Each service splits its share between audio/video programming and a
*data* portion — the spare capacity β that OddCI-DTV exploits.  The data
portion feeds a broadcast channel on which a DSM-CC object carousel and
AIT signalling run.

Receivers tune to a service; while tuned they receive AIT snapshots and
can read carousel files.  The simultaneity of broadcast delivery comes
from the underlying :class:`~repro.net.broadcast.BroadcastChannel`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.errors import ConfigurationError, DTVError, TuningError
from repro.carousel.carousel import ObjectCarousel
from repro.carousel.dsmcc import DEFAULT_SECTION_FORMAT, SectionFormat
from repro.carousel.objects import CarouselFile
from repro.dtv.ait import ApplicationInformationTable
from repro.net.broadcast import BroadcastChannel
from repro.sim.core import Simulator

__all__ = ["Service", "Multiplex"]

AITListener = Callable[[ApplicationInformationTable], None]


class Service:
    """One DTV service (channel) within a multiplex.

    Parameters
    ----------
    av_rate_bps:
        Bandwidth consumed by audio/video programming (opaque here).
    data_rate_bps:
        Spare capacity β available to the data carousel.
    """

    def __init__(
        self,
        sim: Simulator,
        service_id: int,
        name: str,
        *,
        av_rate_bps: float,
        data_rate_bps: float,
        section_format: SectionFormat = DEFAULT_SECTION_FORMAT,
    ) -> None:
        if service_id < 0:
            raise DTVError(f"service_id must be >= 0, got {service_id}")
        if av_rate_bps < 0:
            raise ConfigurationError("av_rate_bps must be >= 0")
        if data_rate_bps <= 0:
            raise ConfigurationError("data_rate_bps (beta) must be > 0")
        self.sim = sim
        self.service_id = service_id
        self.name = name
        self.av_rate_bps = float(av_rate_bps)
        self.data_rate_bps = float(data_rate_bps)
        self.section_format = section_format
        self.data_channel = BroadcastChannel(
            sim, beta_bps=data_rate_bps, name=f"svc{service_id}.data")
        self.carousel: Optional[ObjectCarousel] = None
        self._ait = ApplicationInformationTable()
        self._ait_listeners: Dict[int, AITListener] = {}
        #: token -> destroys that receiver's applications
        self._teardowns: Dict[int, Callable[[], None]] = {}
        self._next_token = 0

    @property
    def total_rate_bps(self) -> float:
        return self.av_rate_bps + self.data_rate_bps

    # -- carousel ----------------------------------------------------------
    def mount_carousel(self, files: Iterable[CarouselFile],
                       *, fast_forward: bool = False) -> ObjectCarousel:
        """Start a DSM-CC carousel on this service's data channel.

        ``fast_forward=True`` lets the carousel park while no read is
        outstanding (see :class:`~repro.carousel.carousel.ObjectCarousel`)
        — recommended for large-scale simulations where the staging
        channel idles between instance creations.
        """
        if self.carousel is not None:
            raise DTVError(
                f"service {self.name!r} already has a carousel mounted")
        self.carousel = ObjectCarousel(
            self.sim, self.data_channel, files,
            section_format=self.section_format,
            name=f"svc{self.service_id}.carousel",
            fast_forward=fast_forward)
        return self.carousel

    def unmount_carousel(self) -> None:
        """Stop the carousel, first destroying the applications it
        launched on the attached receivers, as re-tuning would."""
        if self.carousel is None:
            raise DTVError(f"service {self.name!r} has no carousel")
        for teardown in list(self._teardowns.values()):
            teardown()
        self.carousel.stop()
        self.carousel = None

    # -- AIT signalling -------------------------------------------------------
    @property
    def ait(self) -> ApplicationInformationTable:
        """Current AIT snapshot (what a newly tuned receiver sees)."""
        return self._ait

    def publish_ait(self, ait: ApplicationInformationTable) -> None:
        """Broadcast a new AIT snapshot to every tuned receiver.

        AIT sections are tiny next to carousel content; signalling is
        modelled as immediate delivery to current listeners.
        """
        if ait.table_version <= self._ait.table_version and self._ait.entries:
            raise DTVError(
                f"AIT version must advance "
                f"({ait.table_version} <= {self._ait.table_version})")
        self._ait = ait
        for listener in list(self._ait_listeners.values()):
            listener(ait)

    def attach(self, listener: AITListener,
               teardown: Optional[Callable[[], None]] = None) -> int:
        """Subscribe to AIT snapshots; the current AIT is delivered
        immediately (a tuner scan).  ``teardown`` runs on unmount.
        Returns a detach token."""
        token = self._next_token
        self._next_token += 1
        self._ait_listeners[token] = listener
        if teardown is not None:
            self._teardowns[token] = teardown
        listener(self._ait)
        return token

    def detach(self, token: int) -> None:
        self._ait_listeners.pop(token, None)
        self._teardowns.pop(token, None)

    @property
    def tuned_count(self) -> int:
        return len(self._ait_listeners)


class Multiplex:
    """A transport stream hosting multiple services under a rate budget."""

    def __init__(self, sim: Simulator, total_rate_bps: float,
                 name: str = "mux") -> None:
        if total_rate_bps <= 0:
            raise ConfigurationError("total_rate_bps must be > 0")
        self.sim = sim
        self.name = name
        self.total_rate_bps = float(total_rate_bps)
        self._services: Dict[int, Service] = {}

    @property
    def services(self) -> Tuple[Service, ...]:
        return tuple(self._services.values())

    @property
    def allocated_rate_bps(self) -> float:
        return sum(s.total_rate_bps for s in self._services.values())

    def add_service(
        self,
        name: str,
        *,
        av_rate_bps: float,
        data_rate_bps: float,
        section_format: SectionFormat = DEFAULT_SECTION_FORMAT,
    ) -> Service:
        """Create a service; rejects allocations beyond the mux capacity."""
        new_total = self.allocated_rate_bps + av_rate_bps + data_rate_bps
        if new_total > self.total_rate_bps + 1e-9:
            raise ConfigurationError(
                f"multiplex {self.name!r} over capacity: "
                f"{new_total:.0f} > {self.total_rate_bps:.0f} bps")
        service_id = len(self._services)
        svc = Service(self.sim, service_id, name,
                      av_rate_bps=av_rate_bps, data_rate_bps=data_rate_bps,
                      section_format=section_format)
        self._services[service_id] = svc
        return svc

    def service(self, service_id: int) -> Service:
        try:
            return self._services[service_id]
        except KeyError:
            raise TuningError(
                f"no service {service_id} in multiplex {self.name!r}") from None
