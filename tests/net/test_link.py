"""Unit tests for point-to-point links (direct channels)."""

import pytest

from repro.errors import ConfigurationError, LinkDownError
from repro.net import DEFAULT_HEADER_BITS, DuplexChannel, Link, Message
from repro.sim import Simulator


def make_msg(bits: float) -> Message:
    return Message(sender="a", recipient="b", payload_bits=bits)


def test_transfer_completes_after_serialization_plus_latency():
    sim = Simulator()
    link = Link(sim, rate_bps=1000.0, latency_s=0.5)
    msg = make_msg(1000.0 - DEFAULT_HEADER_BITS)  # total wire size 1000 bits
    ev = link.send(msg)
    sim.run_until_event(ev)
    assert sim.now == pytest.approx(1.0 + 0.5)


def test_fifo_serialization_queues_messages():
    sim = Simulator()
    link = Link(sim, rate_bps=1000.0)
    m1 = make_msg(1000.0 - DEFAULT_HEADER_BITS)
    m2 = make_msg(1000.0 - DEFAULT_HEADER_BITS)
    e1 = link.send(m1)
    e2 = link.send(m2)
    sim.run_until_event(e2)
    assert e1.triggered
    assert sim.now == pytest.approx(2.0)  # serialized back to back


def test_receiver_callback_invoked_on_delivery():
    sim = Simulator()
    link = Link(sim, rate_bps=1e6)
    seen = []
    link.attach(seen.append)
    msg = make_msg(100)
    sim.run_until_event(link.send(msg))
    assert seen == [msg]
    assert link.delivered == 1


def test_down_link_fails_send():
    sim = Simulator()
    link = Link(sim, rate_bps=1e6)
    link.set_up(False)
    ev = link.send(make_msg(10))
    with pytest.raises(LinkDownError):
        sim.run_until_event(ev)
    link.set_up(True)
    sim.run_until_event(link.send(make_msg(10)))  # works again


def test_loss_drops_silently_by_default():
    sim = Simulator(seed=42)
    link = Link(sim, rate_bps=1e6, loss=0.999999)
    ev = link.send(make_msg(10))
    sim.run()
    assert not ev.triggered
    assert link.dropped == 1
    assert link.delivered == 0


def test_loss_fails_event_when_requested():
    sim = Simulator(seed=42)
    link = Link(sim, rate_bps=1e6, loss=0.999999)
    ev = link.send(make_msg(10), fail_on_loss=True)
    with pytest.raises(LinkDownError):
        sim.run_until_event(ev)


def test_loss_rate_statistics():
    sim = Simulator(seed=7)
    link = Link(sim, rate_bps=1e9, loss=0.3)
    n = 2000
    for _ in range(n):
        link.send(make_msg(8))
    sim.run()
    observed = link.dropped / n
    assert 0.25 < observed < 0.35


def test_bits_sent_accounting():
    sim = Simulator()
    link = Link(sim, rate_bps=1e6)
    msg = make_msg(1000)
    sim.run_until_event(link.send(msg))
    assert link.bits_sent == msg.size_bits


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        Link(sim, rate_bps=0)
    with pytest.raises(ConfigurationError):
        Link(sim, rate_bps=1e6, latency_s=-1)
    with pytest.raises(ConfigurationError):
        Link(sim, rate_bps=1e6, loss=1.0)


def test_duplex_channel_independent_directions():
    sim = Simulator()
    ch = DuplexChannel(sim, rate_bps=1000.0)
    up_done = ch.uplink.send(make_msg(1000.0 - DEFAULT_HEADER_BITS))
    down_done = ch.downlink.send(make_msg(1000.0 - DEFAULT_HEADER_BITS))
    for done in (up_done, down_done):
        sim.run_until_event(done)
    # Full duplex: both directions complete at t=1, not t=2.
    assert sim.now == pytest.approx(1.0)


def test_duplex_set_up_affects_both():
    sim = Simulator()
    ch = DuplexChannel(sim, rate_bps=1e6)
    assert ch.up
    ch.set_up(False)
    assert not ch.uplink.up and not ch.downlink.up and not ch.up
