"""Application Information Table (AIT) signalling.

The AIT tells a receiver which interactive applications a service
carries and what to do with them (DVB-MHP / Ginga semantics).  The field
that matters for OddCI-DTV is ``application_control_code``: AUTOSTART
applications — *trigger applications* — are launched by the receiver's
application manager without user intervention, which is how the PNA Xlet
wakes up every tuned set-top box at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.errors import DTVError

__all__ = ["ApplicationControlCode", "AITEntry", "ApplicationInformationTable"]


class ApplicationControlCode(enum.Enum):
    """Lifecycle directives a broadcaster can attach to an application."""

    AUTOSTART = "autostart"   # start immediately, no user intervention
    PRESENT = "present"       # available; user may start it
    DESTROY = "destroy"       # stop gracefully
    KILL = "kill"             # stop immediately


@dataclass(frozen=True)
class AITEntry:
    """One application row of the AIT.

    Attributes
    ----------
    app_id:
        Unique application identifier within the service.
    name:
        Human-readable application name.
    control_code:
        What the receiver must do with the application.
    carousel_path:
        Name of the carousel file carrying the application code.
    version:
        Bumped whenever the entry changes; receivers re-evaluate entries
        whose version advanced.
    """

    app_id: int
    name: str
    control_code: ApplicationControlCode
    carousel_path: str
    version: int = 1

    def __post_init__(self) -> None:
        if self.app_id < 0:
            raise DTVError(f"app_id must be >= 0, got {self.app_id}")
        if not self.name:
            raise DTVError("AIT entry needs a name")
        if not self.carousel_path:
            raise DTVError(f"AIT entry {self.name!r} needs a carousel_path")
        if self.version < 1:
            raise DTVError("AIT entry version must be >= 1")


@dataclass(frozen=True)
class ApplicationInformationTable:
    """Immutable AIT snapshot broadcast to receivers.

    A broadcaster publishes successive snapshots; receivers compare
    versions to detect changes.
    """

    entries: Tuple[AITEntry, ...] = ()
    table_version: int = 1

    def __post_init__(self) -> None:
        ids = [e.app_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise DTVError(f"duplicate app_ids in AIT: {ids}")
        if self.table_version < 1:
            raise DTVError("table_version must be >= 1")

    def entry(self, app_id: int) -> AITEntry:
        for e in self.entries:
            if e.app_id == app_id:
                return e
        raise DTVError(f"app_id {app_id} not in AIT")

    def autostart_entries(self) -> Tuple[AITEntry, ...]:
        """Trigger applications — launched without user intervention."""
        return tuple(e for e in self.entries
                     if e.control_code is ApplicationControlCode.AUTOSTART)

    def with_entry(self, entry: AITEntry) -> "ApplicationInformationTable":
        """New snapshot with ``entry`` added or replaced (version bumped)."""
        rest = tuple(e for e in self.entries if e.app_id != entry.app_id)
        return ApplicationInformationTable(
            entries=rest + (entry,), table_version=self.table_version + 1)

