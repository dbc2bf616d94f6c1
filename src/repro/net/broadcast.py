"""Broadcast channel — the one-to-many medium of the OddCI architecture.

A :class:`BroadcastChannel` has a *spare capacity* ``beta_bps`` (the
paper's β: the bandwidth left over by audio/video programming that data
services may use).  Any number of listeners subscribe; a transmission of
``S`` bits completes for **all** tuned listeners ``S/β`` seconds after it
starts — that simultaneity is exactly what distinguishes broadcast from
the point-to-point world and is the architectural lever of the paper.

The channel serializes transmissions FIFO (a single multiplex).  Higher
layers (the DSM-CC carousel) schedule *cyclic* content on top of this
primitive.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.sim.core import Event, Simulator
from repro.telemetry import trace as telemetry

__all__ = ["BroadcastChannel", "Listener"]

Listener = Callable[[Message], None]


class BroadcastChannel:
    """One-to-many channel with spare capacity ``beta_bps``.

    Listeners subscribe with a callback; :meth:`transmit` delivers the
    message to every listener subscribed *at delivery time* (a receiver
    that tunes in mid-transmission misses it — carousel cycling exists
    precisely to repair that, and is modelled in
    :mod:`repro.carousel`).
    """

    def __init__(
        self,
        sim: Simulator,
        beta_bps: float,
        *,
        name: str = "broadcast",
    ) -> None:
        if beta_bps <= 0:
            raise ConfigurationError(f"beta_bps must be > 0, got {beta_bps}")
        self.sim = sim
        self.beta_bps = float(beta_bps)
        self.name = name
        self._listeners: dict[int, Listener] = {}
        self._next_token = 0
        self._ev_name = name + ".tx"
        self._busy_until = sim.now
        self._transmissions = 0
        self._bits_sent = 0.0
        self._up = True
        self._dropped_transmissions = 0
        self._trace = telemetry.channel("net")
        registry = telemetry.metrics_registry()
        self._m_dropped = registry.counter("broadcast.dropped") \
            if registry is not None else None

    # -- state -----------------------------------------------------------
    @property
    def up(self) -> bool:
        return self._up

    def set_up(self, up: bool) -> None:
        """Administratively enable/disable the multiplex (fault model).

        A down channel keeps accepting transmissions — the head-end does
        not know receivers lost the signal — but nothing reaches the
        listeners: deliveries while down are counted in
        :attr:`dropped_transmissions` and the transmission events still
        settle (senders never wedge on an outage)."""
        self._up = bool(up)

    @property
    def dropped_transmissions(self) -> int:
        """Transmissions whose delivery fell inside an outage window."""
        return self._dropped_transmissions

    # -- subscription ----------------------------------------------------
    def subscribe(self, listener: Listener) -> int:
        """Register a delivery callback; returns an unsubscribe token."""
        token = self._next_token
        self._next_token += 1
        self._listeners[token] = listener
        return token

    def unsubscribe(self, token: int) -> None:
        """Remove a listener (idempotent)."""
        self._listeners.pop(token, None)

    @property
    def listener_count(self) -> int:
        return len(self._listeners)

    @property
    def transmissions(self) -> int:
        return self._transmissions

    @property
    def bits_sent(self) -> float:
        return self._bits_sent

    @property
    def busy_until(self) -> float:
        """Time at which the multiplex becomes free."""
        return max(self._busy_until, self.sim.now)

    # -- transmission ------------------------------------------------------
    def airtime(self, size_bits: float) -> float:
        """Seconds of channel time needed for ``size_bits``."""
        if size_bits < 0:
            raise ConfigurationError(f"negative size {size_bits!r}")
        return size_bits / self.beta_bps

    def transmit(self, message: Message) -> Event:
        """Broadcast ``message``; event succeeds at delivery time.

        Delivery is simultaneous at all currently subscribed listeners.
        """
        start = max(self._busy_until, self.sim.now)
        done = start + self.airtime(message.size_bits)
        self._busy_until = done
        self._bits_sent += message.size_bits
        ev = Event(self.sim, self._ev_name)
        self.sim.call_at(done, self._deliver, message, ev)
        return ev

    def transmit_at(self, message: Message, start_time: float) -> Event:
        """Broadcast ``message`` starting at the caller's ``start_time``.

        Unlike :meth:`transmit`, the start comes from the caller's own
        timetable rather than the channel's accumulated busy time, so a
        periodic sender (the DSM-CC carousel) produces bit-identical
        delivery instants whether it transmits every cycle or
        reconstructs one after a fast-forward park.  The caller owns the
        channel's timetable; ``start_time`` may lag ``sim.now`` by a
        float ulp, but delivery is never scheduled in the past.
        """
        done = start_time + self.airtime(message.size_bits)
        if done > self._busy_until:
            self._busy_until = done
        self._bits_sent += message.size_bits
        ev = Event(self.sim, self._ev_name)
        self.sim.call_at(max(done, self.sim.now), self._deliver, message, ev)
        return ev

    def _deliver(self, message: Message, ev: Event) -> None:
        self._transmissions += 1
        if not self._up:
            self._dropped_transmissions += 1
            t = self._trace
            if t is not None:
                t.emit(self.sim.now, "dropped", channel=self.name,
                       reason="outage")
            if self._m_dropped is not None:
                self._m_dropped.inc()
            ev.succeed(message)
            return
        # Snapshot so subscription changes from callbacks don't mutate
        # the iteration.
        for listener in list(self._listeners.values()):
            listener(message)
        ev.succeed(message)
