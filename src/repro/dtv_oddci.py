"""OddCI-DTV: the paper's Section 4 binding of OddCI onto a DTV network.

The generic components (Controller, Provider, Backend, PNA core) are
reused unchanged; what changes is the broadcast control plane:

* the PNA is packaged as an AUTOSTART Xlet (:class:`PNAXlet`) carried in
  the service's DSM-CC object carousel and signalled through the AIT, so
  every tuned receiver loads and starts it without user intervention;
* control messages travel as a small ``oddci.config`` carousel file the
  PNA Xlet re-reads every carousel repetition (the paper's "infinite
  loop that ... possibly executes some action based on the message
  received");
* the application image is a separate (large) carousel file the Xlet
  fetches when it accepts a wakeup — paying the real 1.5-cycle average
  carousel latency that the paper's W = 1.5·I/β models.

:class:`OddCIDTVSystem` is the generic
:class:`~repro.core.system.OddCISystem` (router, Controller, Provider,
fault injector) with this control plane swapped in: one multiplex,
service and carousel plane per TV channel (Section 4.3 puts the PNA
Xlet on several channels; a single-channel deployment is
``channels=1``) under one fan-out, and set-top-box fleets — split over
the channels, optionally churning — whose PNA cores are one
:class:`~repro.core.pna.PNABlock` per build, each view executing task
compute on its box's calibrated STB device model.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, OddCIError
from repro.carousel.objects import CarouselFile
from repro.core.controller import ControlPlane
from repro.core.messages import ResetPayload, WakeupPayload
from repro.core.pna import PNA, PNABlock
from repro.core.policies import ProbabilityPolicy
from repro.core.provider import NetworkDescriptor
from repro.core.system import OddCISystem
from repro.dtv.ait import AITEntry, ApplicationControlCode
from repro.dtv.receiver import SetTopBox
from repro.dtv.transport import Multiplex, Service
from repro.dtv.xlet import Xlet, XletState
from repro.net.message import bits_from_bytes
from repro.sim.core import Simulator
from repro.telemetry.trace import channel as _telemetry_channel
from repro.workloads.devices import REFERENCE_STB, DeviceProfile, PowerMode
from repro.workloads.traces import ChurnModel

__all__ = ["PNA_XLET_FILE", "CONFIG_FILE", "CarouselControlPlane",
           "PNAXlet", "OddCIDTVSystem", "FanoutControlPlane"]

#: Carousel path of the PNA Xlet code (the trigger application).
PNA_XLET_FILE = "pna.bin"
#: Carousel path of the control/configuration file.
CONFIG_FILE = "oddci.config"
#: AIT application id reserved for the PNA Xlet.
PNA_APP_ID = 777
#: Transport-stream rate of each channel's multiplex (one TV channel).
MUX_RATE_BPS = 19_000_000.0
_DESTROYED = XletState.DESTROYED


class CarouselControlPlane(ControlPlane):
    """Control plane that publishes through a DSM-CC carousel + AIT.

    Mounts the service's carousel with the PNA Xlet and an (initially
    empty) config file, signals the Xlet AUTOSTART in the AIT, and maps
    ``publish_wakeup`` / ``publish_reset`` onto versioned carousel file
    updates.  One control message is current at a time — the config file
    carries the latest; the Controller's periodic recomposition makes
    this eventually reach every instance (a real single-carousel
    limitation, noted in DESIGN.md).
    """

    def __init__(
        self,
        sim: Simulator,
        service: Service,
        *,
        xlet_factory,
        pna_xlet_bits: float = bits_from_bytes(256 * 1024),
        config_bits: float = bits_from_bytes(4 * 1024),
        fast_forward: bool = True,
    ) -> None:
        if pna_xlet_bits <= 0 or config_bits <= 0:
            raise ConfigurationError("carousel file sizes must be > 0")
        self.sim = sim
        self.service = service
        self._config_version = 1
        self._config_bits = float(config_bits)
        self._instance_images: Dict[str, str] = {}
        files = [
            CarouselFile(name=PNA_XLET_FILE, size_bits=float(pna_xlet_bits),
                         metadata={"xlet_factory": xlet_factory}),
            CarouselFile(name=CONFIG_FILE, size_bits=float(config_bits),
                         metadata={"control": None}),
        ]
        self.carousel = service.mount_carousel(files,
                                               fast_forward=fast_forward)
        ait = service.ait.with_entry(AITEntry(
            app_id=PNA_APP_ID, name="oddci-pna",
            control_code=ApplicationControlCode.AUTOSTART,
            carousel_path=PNA_XLET_FILE))
        service.publish_ait(ait)

    # -- ControlPlane API -----------------------------------------------------
    def publish_wakeup(self, payload: WakeupPayload,
                       signature: bytes) -> None:
        image_name = payload.image_name
        if image_name in (PNA_XLET_FILE, CONFIG_FILE):
            raise OddCIError(
                f"image name {image_name!r} collides with a control file")
        known = (image_name in self.carousel.file_names
                 or image_name in self._instance_images.values())
        if not known:
            self.carousel.add_file(CarouselFile(
                name=image_name, size_bits=payload.image_bits))
        self._instance_images[payload.instance_id] = image_name
        self._publish_control(payload, signature)

    def publish_reset(self, payload: ResetPayload,
                      signature: bytes) -> None:
        self._publish_control(payload, signature)
        # Retire the dismantled instance's image from the carousel.
        if payload.instance_id in (None, "*"):
            for name in set(self._instance_images.values()):
                if name in self.carousel.file_names:
                    self.carousel.remove_file(name)
            self._instance_images.clear()
        else:
            name = self._instance_images.pop(payload.instance_id, None)
            still_used = name in self._instance_images.values()
            if name and not still_used and name in self.carousel.file_names:
                self.carousel.remove_file(name)

    def _publish_control(self, payload, signature: bytes) -> None:
        self._config_version += 1
        trace = _telemetry_channel("control")
        if trace is not None:
            trace.emit(self.sim.now, "carousel_publish",
                       kind=type(payload).__name__,
                       config_version=self._config_version)
        self.carousel.replace_file(CarouselFile(
            name=CONFIG_FILE, size_bits=self._config_bits,
            version=self._config_version,
            metadata={"control": (payload, signature)}))


class PNAXlet(Xlet):
    """The PNA packaged as a trigger application.

    Created by the receiver's application manager after the Xlet code is
    read from the carousel.  While Started it keeps the bound PNA core
    online and polls the carousel's config file once per repetition
    (:class:`_ConfigListener`), forwarding fresh control messages;
    wakeups stage their image through a carousel read (the 1.5-cycle
    latency).  Destruction takes the PNA offline silently.
    """

    def __init__(self, sim: Simulator, stb: SetTopBox, pna: PNA):
        super().__init__(sim, name=f"pna-xlet@{stb.stb_id}")
        self.stb = stb
        self.pna = pna
        self._last_config_version = 0
        self._loop = None

    def on_start(self) -> None:
        trace = self.pna._trace
        if trace is not None:
            trace.emit(self.sim.now, "xlet_start", pna=self.pna.pna_id)
        self.pna.restart(manage_channel=False)
        self._loop = _ConfigListener(self)

    def on_pause(self) -> None:
        self._stop_loop()

    def on_destroy(self, unconditional: bool) -> None:
        trace = self.pna._trace
        if trace is not None:
            trace.emit(self.sim.now, "xlet_destroy", pna=self.pna.pna_id)
        self._stop_loop()
        self.pna.shutdown(manage_channel=False)

    def _stop_loop(self) -> None:
        if self._loop is not None and self._loop.alive:
            self._loop.interrupt()
        self._loop = None

    def _image_fetcher(self, image_name: str):
        def fetch():
            carousel = self.stb.tuned_carousel()
            if carousel is None:
                failed = self.sim.event("image-fetch-failed")
                failed.fail(OddCIError("receiver lost the carousel"))
                return failed
            return carousel.read(image_name)

        return fetch


class _ConfigListener:
    """One Started spell of the Xlet's config poll loop, as carousel
    listener callbacks with the calendar entries of a process looping on
    ``carousel.read``: start is one normal entry at ``now``, each settled
    read one urgent entry (:meth:`_poll`), :meth:`interrupt` one normal
    entry that halts; a halted listener's entries fire as no-ops.  An
    error in a poll propagates out of ``sim.run``.

    The carousel is the one tuned at start: power-off, untuning and
    re-tuning destroy the Xlet synchronously, so a poll of a live Xlet
    always finds the box still on it, and a destroyed Xlet alone halts."""

    __slots__ = ("xlet", "alive", "_carousel", "_callback")

    def __init__(self, xlet: PNAXlet) -> None:
        self.xlet = xlet
        self.alive = True
        self._carousel = xlet.stb.tuned_carousel()
        self._callback = self._poll
        xlet.sim.schedule_fast(0.0, self._callback, None, xlet.sim.now)

    def interrupt(self) -> None:
        self.xlet.sim.schedule_fast(0.0, self._halt)

    def _halt(self) -> None:
        self.alive = False

    def _poll(self, config: Optional[CarouselFile], now: float) -> None:
        if not self.alive:
            return
        xlet = self.xlet
        if config is not None and config.version > xlet._last_config_version:
            control = config.metadata.get("control")
            if control is None:
                xlet._last_config_version = config.version
            else:
                payload, signature = control
                fetch = (xlet._image_fetcher(payload.image_name)
                         if isinstance(payload, WakeupPayload) else None)
                # A refused message (tampered signature, node offline)
                # leaves the version unconsumed: the same config file
                # comes around next repetition and is retried — a
                # corruption window must not permanently eat a wakeup.
                if xlet.pna.deliver_control(payload, signature,
                                            fetch_image=fetch):
                    xlet._last_config_version = config.version
        if xlet._state is _DESTROYED:
            self.alive = False
        else:
            self._carousel.listen(CONFIG_FILE, self._callback, now)


class OddCIDTVSystem(OddCISystem):
    """A complete OddCI-DTV deployment (``channels`` multiplexes → STB fleet).

    One :class:`~repro.core.system.OddCISystem` network whose broadcast
    side is the DTV one: each channel is one multiplex carrying one
    OddCI service, with its own carousel and
    :class:`CarouselControlPlane`, and the network's one Controller
    drives them all through a :class:`FanoutControlPlane` (Section
    4.3's scale-out: the reachable population is the sum of the
    channels' audiences).  Receivers are split over the channels by
    audience share (:meth:`add_receivers`).

    Parameters
    ----------
    channels:
        Number of TV services carrying the PNA Xlet.
    beta_bps:
        Spare data capacity β of each OddCI service.
    delta_bps / delta_latency_s:
        Per-receiver direct channel (home broadband).
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        *,
        channels: int = 1,
        beta_bps: float = 1_000_000.0,
        av_rate_bps: float = 12_000_000.0,
        delta_bps: float = 150_000.0,
        delta_latency_s: float = 0.05,
        probability_policy: Optional[ProbabilityPolicy] = None,
        maintenance_interval_s: float = 60.0,
        pna_xlet_bits: float = bits_from_bytes(256 * 1024),
        carousel_fast_forward: bool = True,
        seed: Optional[int] = 0,
    ) -> None:
        if channels <= 0:
            raise ConfigurationError(f"channels must be > 0, got {channels}")
        #: what :meth:`_broadcast_plane` builds each channel's plane of
        self._channel_args = (channels, av_rate_bps, pna_xlet_bits,
                              carousel_fast_forward)
        self.services: List[Service] = []
        self.planes: List[CarouselControlPlane] = []
        self.boxes: List[SetTopBox] = []
        self._pna_of_stb: Dict[str, PNA] = {}
        super().__init__(sim, beta_bps=beta_bps, delta_bps=delta_bps,
                         delta_latency_s=delta_latency_s,
                         probability_policy=probability_policy,
                         maintenance_interval_s=maintenance_interval_s,
                         seed=seed)

    def _broadcast_plane(self, descriptor: NetworkDescriptor,
                         controller_id: str):
        """One multiplex, service and carousel plane per channel under
        one fan-out; channel 0's carousel channel is the network's
        broadcast (what broadcast faults and a departure take down)."""
        channels, av_rate_bps, pna_xlet_bits, fast_forward = \
            self._channel_args
        for i in range(channels):
            suffix = f"-{i}" if i else ""  # channel 0: the plain names
            mux = Multiplex(self.sim, total_rate_bps=MUX_RATE_BPS,
                            name="mux" + suffix)
            service = mux.add_service("oddci-dtv" + suffix,
                                      av_rate_bps=av_rate_bps,
                                      data_rate_bps=descriptor.beta_bps)
            self.services.append(service)
            self.planes.append(CarouselControlPlane(
                self.sim, service,
                xlet_factory=self._make_xlet,
                pna_xlet_bits=pna_xlet_bits,
                fast_forward=fast_forward))
        plane = FanoutControlPlane(self.planes)
        return plane.carousel.channel, plane

    # -- xlet factory (metadata of pna.bin) -------------------------------------
    def _make_xlet(self, sim: Simulator, stb: SetTopBox) -> PNAXlet:
        pna = self._pna_of_stb.get(stb.stb_id)
        if pna is None:
            raise OddCIError(
                f"receiver {stb.stb_id!r} has no registered PNA core")
        return PNAXlet(sim, stb, pna)

    # -- fleet construction -------------------------------------------------------
    def add_pnas(self, *args: Any, **kwargs: Any) -> PNABlock:
        """Refused up front: a DTV fleet is built by :meth:`add_receivers`."""
        raise ConfigurationError(
            "an OddCI-DTV fleet is built by add_receivers")

    build_fleets = add_pnas

    def add_receivers(
        self,
        n: int,
        *,
        channel_weights: Optional[Sequence[float]] = None,
        in_use_fraction: float = 1.0,
        profile: DeviceProfile = REFERENCE_STB,
        heartbeat_interval_s: float = 60.0,
        dve_poll_interval_s: float = 15.0,
        churn: Optional[ChurnModel] = None,
    ) -> List[SetTopBox]:
        """Build ``n`` set-top boxes tuned to the OddCI services.

        The boxes are split over the channels in proportion to
        ``channel_weights`` (default: evenly), channel by channel in
        largest-remainder counts — no random draw.  Their PNA cores are
        one :class:`~repro.core.pna.PNABlock` (``stb-<k>`` on direct
        channel ``stb<k>.direct``, offline until its Xlet starts, each
        view computing on its box's device model); each box then —
        because the AIT already signals the PNA Xlet as AUTOSTART —
        immediately begins loading the Xlet from the carousel.  With
        ``churn`` each box flips between OFF and its nominal mode.
        """
        if n <= 0:
            raise ConfigurationError(f"n must be > 0, got {n}")
        if not 0.0 <= in_use_fraction <= 1.0:
            raise ConfigurationError("in_use_fraction must be in [0, 1]")
        tuning = self._tuning_plan(n, channel_weights)
        rng = self.sim.rng("dtv-system.population")
        controller = self.controller
        block = PNABlock(
            self.sim, self.router, "stb-", len(self.boxes), n,
            controller_key=controller.key,
            controller_id=controller.controller_id,
            rate_bps=self.delta_bps, latency_s=self.delta_latency_s,
            loss=self.delta_loss, channel_name="stb{}.direct",
            capabilities={"memory_mb": 256, "middleware": "ginga",
                          "device": profile.name},
            heartbeat_interval_s=heartbeat_interval_s,
            dve_poll_interval_s=dve_poll_interval_s)
        self.router.store("pna_online", slice(block.lo, block.hi), 0)
        self.shards[0].adopt(block)
        self.pnas.extend(block)
        created: List[SetTopBox] = []
        for pna, service in zip(block, tuning):
            mode = (PowerMode.IN_USE if rng.random() < in_use_fraction
                    else PowerMode.STANDBY)
            stb = SetTopBox(self.sim, stb_id=pna.pna_id,
                            direct_channel=pna.channel, profile=profile,
                            mode=mode)
            pna.executor = stb.execution_time
            self._pna_of_stb[stb.stb_id] = pna
            stb.tune(service)
            self.boxes.append(stb)
            created.append(stb)
            if churn is not None:
                self.sim.process(self._churn_proc(stb, churn))
        return created

    def _tuning_plan(self, n: int,
                     weights: Optional[Sequence[float]]) -> List[Service]:
        """The service each of ``n`` new boxes tunes to: channel by
        channel, the largest-remainder shares of ``weights`` (ties go
        to the lower channel)."""
        if weights is None:
            weights = [1.0] * len(self.services)
        if len(weights) != len(self.services) or min(weights) < 0 \
                or sum(weights) <= 0:
            raise ConfigurationError(
                f"channel_weights must be {len(self.services)} "
                f"non-negative numbers with a positive sum, got {weights}")
        total = float(sum(weights))
        quotas = [n * w / total for w in weights]
        counts = [int(q) for q in quotas]
        by_remainder = sorted(range(len(quotas)),
                              key=lambda i: counts[i] - quotas[i])
        for i in by_remainder[:n - sum(counts)]:
            counts[i] += 1
        return [service for service, count in zip(self.services, counts)
                for _ in range(count)]

    def _churn_proc(self, stb: SetTopBox, model: ChurnModel):
        """Flip one receiver between OFF and its nominal powered mode."""
        rng = self.sim.rng("dtv-system.churn")
        nominal = stb.mode if stb.powered else PowerMode.IN_USE
        if rng.random() >= model.start_on_probability():
            stb.set_mode(PowerMode.OFF)
        while True:
            if stb.powered:
                yield model.sample_on(rng)
                stb.set_mode(PowerMode.OFF)
            else:
                yield model.sample_off(rng)
                stb.set_mode(nominal)


class FanoutControlPlane(ControlPlane):
    """Publishes every control message through several per-service planes.

    Section 4.3: "multiple channels to distribute the trigger
    application (PNA Xlet) increases the potential number of receivers
    connected, with a direct impact on the maximum size of the
    OddCI-DTV systems that can be instantiated."  One Controller drives
    k carousels; each receiver only listens to the channel it is tuned
    to, but the wakeup reaches the union of the audiences.
    """

    def __init__(self, planes):
        if not planes:
            raise ConfigurationError("fan-out needs at least one plane")
        self.planes = list(planes)
        self.carousel = self.planes[0].carousel  # channel 0's

    @property
    def available(self) -> bool:
        return any(plane.available for plane in self.planes)

    def publish_wakeup(self, payload: WakeupPayload,
                       signature: bytes) -> None:
        for plane in self.planes:
            plane.publish_wakeup(payload, signature)

    def publish_reset(self, payload: ResetPayload,
                      signature: bytes) -> None:
        for plane in self.planes:
            plane.publish_reset(payload, signature)
