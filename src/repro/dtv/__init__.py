"""Digital-TV substrate: transport stream, AIT, Xlets, receivers.

* :class:`~repro.dtv.transport.Multiplex` / ``Service`` — the broadcast
  chain with spare data capacity β per service.
* :class:`~repro.dtv.ait.ApplicationInformationTable` — AUTOSTART
  signalling that triggers the PNA Xlet.
* :class:`~repro.dtv.xlet.Xlet` — JavaTV lifecycle state machine.
* :class:`~repro.dtv.middleware.ApplicationManager` — per-receiver
  middleware launching/destroying Xlets from AIT + carousel.
* :class:`~repro.dtv.receiver.SetTopBox` — tuner, power modes, CPU model.

Fleets of set-top boxes — tuned, split over channels, churning — are
built by :meth:`repro.dtv_oddci.OddCIDTVSystem.add_receivers`.
"""

from repro.dtv.ait import (
    AITEntry,
    ApplicationControlCode,
    ApplicationInformationTable,
)
from repro.dtv.middleware import ApplicationManager, XletFactory
from repro.dtv.receiver import SetTopBox
from repro.dtv.transport import Multiplex, Service
from repro.dtv.xlet import Xlet, XletState

__all__ = [
    "ApplicationControlCode",
    "AITEntry",
    "ApplicationInformationTable",
    "Xlet",
    "XletState",
    "ApplicationManager",
    "XletFactory",
    "SetTopBox",
    "Multiplex",
    "Service",
]
