"""DTV middleware: the application manager.

The application manager is the middleware component that reacts to AIT
snapshots: it loads AUTOSTART applications from the carousel, drives
their Xlet lifecycle (``initXlet`` → ``startXlet``), and destroys them
when the AIT says so or when the receiver re-tunes / powers down.

Code delivery is simulated: the carousel file named by the AIT entry
carries an ``xlet_factory`` callable in its metadata; "loading the
application" costs the real carousel read latency, after which the
factory instantiates the Xlet on this receiver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.errors import DTVError
from repro.dtv.ait import (
    AITEntry,
    ApplicationControlCode,
    ApplicationInformationTable,
)
from repro.dtv.xlet import Xlet
from repro.sim.core import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dtv.receiver import SetTopBox

__all__ = ["ApplicationManager", "XletFactory"]

#: Signature of the factory stored in carousel file metadata:
#: ``factory(sim, stb) -> Xlet``
XletFactory = Callable[[Simulator, "SetTopBox"], Xlet]


class ApplicationManager:
    """Per-receiver middleware component managing Xlet lifecycles."""

    def __init__(self, sim: Simulator, stb: "SetTopBox") -> None:
        self.sim = sim
        self.stb = stb
        #: app_id -> (entry version running, xlet instance)
        self._running: Dict[int, Tuple[int, Xlet]] = {}
        #: app_id -> True while a carousel load is in flight
        self._loading: Dict[int, int] = {}
        self.apps_launched = 0
        self.apps_destroyed = 0

    # -- AIT handling ------------------------------------------------------
    def on_ait(self, ait: ApplicationInformationTable) -> None:
        """React to an AIT snapshot (called by the tuned service)."""
        seen = set()
        for entry in ait.entries:
            seen.add(entry.app_id)
            if entry.control_code is ApplicationControlCode.AUTOSTART:
                self._ensure_running(entry)
            elif entry.control_code in (ApplicationControlCode.DESTROY,
                                        ApplicationControlCode.KILL):
                self._destroy(entry.app_id,
                              unconditional=entry.control_code
                              is ApplicationControlCode.KILL)
        # Apps no longer signalled at all are killed (channel semantics).
        for app_id in list(self._running):
            if app_id not in seen:
                self._destroy(app_id, unconditional=True)

    def _ensure_running(self, entry: AITEntry) -> None:
        current = self._running.get(entry.app_id)
        if current is not None and current[0] >= entry.version:
            return  # already running this (or a newer) version
        if self._loading.get(entry.app_id, 0) >= entry.version:
            return  # load already in flight
        carousel = self.stb.tuned_carousel()
        if carousel is None:
            return  # no carousel — cannot load application code
        if entry.carousel_path not in carousel.file_names:
            return  # signalled before the code reached the carousel
        self._loading[entry.app_id] = entry.version
        read = carousel.read(entry.carousel_path)
        read.add_callback(lambda ev, entry=entry: self._on_loaded(entry, ev))

    def _on_loaded(self, entry: AITEntry, read_event) -> None:
        self._loading.pop(entry.app_id, None)
        if not read_event.ok:
            return
        if not self.stb.powered:
            return  # receiver switched off during the load
        file = read_event.value
        factory: Optional[XletFactory] = file.metadata.get("xlet_factory")
        if factory is None:
            raise DTVError(
                f"carousel file {file.name!r} carries no xlet_factory")
        old = self._running.pop(entry.app_id, None)
        if old is not None and not old[1].destroyed:
            old[1].destroy_xlet(unconditional=True)
            self.apps_destroyed += 1
        xlet = factory(self.sim, self.stb)
        xlet.init_xlet(context={"app_id": entry.app_id,
                                "stb": self.stb,
                                "entry": entry})
        xlet.start_xlet()
        self._running[entry.app_id] = (entry.version, xlet)
        self.apps_launched += 1

    # -- teardown -----------------------------------------------------------
    def _destroy(self, app_id: int, *, unconditional: bool) -> None:
        self._loading.pop(app_id, None)
        current = self._running.pop(app_id, None)
        if current is None:
            return
        _, xlet = current
        if not xlet.destroyed:
            xlet.destroy_xlet(unconditional=unconditional)
        self.apps_destroyed += 1

    def destroy_all(self) -> None:
        """Kill every running application (re-tune / power-down)."""
        for app_id in list(self._running):
            self._destroy(app_id, unconditional=True)
        self._loading.clear()

    # -- inspection ---------------------------------------------------------
    def running_xlet(self, app_id: int) -> Optional[Xlet]:
        current = self._running.get(app_id)
        return current[1] if current else None

    @property
    def running_count(self) -> int:
        return len(self._running)
