"""Unit tests for the broadcast channel."""

import pytest

from repro.errors import ConfigurationError
from repro.net import DEFAULT_HEADER_BITS, BroadcastChannel, Message
from repro.sim import Simulator


def make_msg(bits: float) -> Message:
    return Message(sender="controller", payload_bits=bits)


def test_airtime():
    sim = Simulator()
    ch = BroadcastChannel(sim, beta_bps=1e6)
    assert ch.airtime(1e6) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        ch.airtime(-1)


def test_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        BroadcastChannel(sim, beta_bps=0)


def test_delivery_simultaneous_to_all_listeners():
    sim = Simulator()
    ch = BroadcastChannel(sim, beta_bps=1000.0)
    arrivals = []
    for tag in range(5):
        ch.subscribe(lambda msg, tag=tag: arrivals.append((tag, sim.now)))
    msg = make_msg(1000.0 - DEFAULT_HEADER_BITS)
    sim.run_until_event(ch.transmit(msg))
    assert arrivals == [(t, 1.0) for t in range(5)]


def test_fifo_multiplexing():
    sim = Simulator()
    ch = BroadcastChannel(sim, beta_bps=1000.0)
    times = []
    ch.subscribe(lambda msg: times.append(sim.now))
    ch.transmit(make_msg(1000.0 - DEFAULT_HEADER_BITS))
    ch.transmit(make_msg(2000.0 - DEFAULT_HEADER_BITS))
    sim.run()
    assert times == [1.0, 3.0]
    assert ch.transmissions == 2


def test_subscriber_joining_after_delivery_misses_message():
    sim = Simulator()
    ch = BroadcastChannel(sim, beta_bps=1e6)
    late_arrivals = []
    ch.transmit(make_msg(1e6))  # delivered ~t=1
    sim.schedule_at(sim.now + 2.0, lambda: ch.subscribe(
        lambda msg: late_arrivals.append(sim.now)))
    sim.run()
    assert late_arrivals == []


def test_unsubscribe_stops_delivery():
    sim = Simulator()
    ch = BroadcastChannel(sim, beta_bps=1e6)
    seen = []
    token = ch.subscribe(lambda msg: seen.append(msg))
    ch.unsubscribe(token)
    ch.unsubscribe(token)  # idempotent
    sim.run_until_event(ch.transmit(make_msg(10)))
    assert seen == []
    assert not ch._listeners


def test_listener_can_unsubscribe_during_delivery():
    sim = Simulator()
    ch = BroadcastChannel(sim, beta_bps=1e6)
    seen = []
    token_holder = {}

    def listener(msg):
        seen.append(msg)
        ch.unsubscribe(token_holder["t"])

    token_holder["t"] = ch.subscribe(listener)
    sim.run_until_event(ch.transmit(make_msg(10)))
    sim.run_until_event(ch.transmit(make_msg(10)))
    assert len(seen) == 1


def test_bits_sent_and_busy_until():
    sim = Simulator()
    ch = BroadcastChannel(sim, beta_bps=1e6)
    msg = make_msg(1_000_000 - DEFAULT_HEADER_BITS)
    ch.transmit(msg)
    assert ch.busy_until == pytest.approx(1.0)
    assert ch.bits_sent == msg.size_bits
    sim.run()
