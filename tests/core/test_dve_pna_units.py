"""Focused unit tests for DVE and PNA internals and edge cases."""

import pytest

from repro.core import (
    OddCISystem,
    PNAState,
    ResetPayload,
    WakeupPayload,
    sign_control,
)
from repro.errors import OddCIError
from tests.core.per_pna_dve import DVE


def make_system(n=1, **kwargs):
    system = OddCISystem(seed=17, maintenance_interval_s=1e6, **kwargs)
    system.add_pnas(n, heartbeat_interval_s=1e5, dve_poll_interval_s=5.0)
    return system


def wakeup_for(system, instance_id="i-test", probability=1.0,
               image_bits=1e5, **kwargs):
    payload = WakeupPayload(instance_id=instance_id, image_name="img",
                            image_bits=image_bits, probability=probability,
                            **kwargs)
    return payload, sign_control(system.controller.key, payload)


# -- DVE ----------------------------------------------------------------------

def test_dve_validation():
    system = make_system()
    pna = system.pnas[0]
    with pytest.raises(OddCIError):
        DVE(system.sim, pna, "i", "backend", poll_interval_s=0)
    dve = DVE(system.sim, pna, "i", "backend")
    with pytest.raises(OddCIError):
        DVE(system.sim, pna, "i", "backend", request_timeout_s=-1)
    dve.destroy()


def test_dve_destroy_is_idempotent_and_stops_loop():
    system = make_system()
    pna = system.pnas[0]
    dve = DVE(system.sim, pna, "i", "backend")
    system.sim.run(until=1.0)
    dve.destroy()
    dve.destroy()
    assert dve.destroyed
    # No further messages after destruction: the loop is dead.
    before = system.sim.events_executed
    system.sim.run(until=500.0)
    # only residual timers may fire; the DVE sends nothing new
    assert dve.tasks_completed == 0


def test_dve_ignores_late_backend_message_after_destroy():
    system = make_system()
    pna = system.pnas[0]
    dve = DVE(system.sim, pna, "i", "backend")
    dve.destroy()
    dve.on_backend_message("anything")  # must not raise


def test_dve_request_timeout_retries_without_backend():
    """No backend registered: requests vanish; the DVE must keep
    retrying rather than wedge."""
    system = make_system()
    pna = system.pnas[0]
    dve = DVE(system.sim, pna, "ghost-instance", "ghost-backend",
              poll_interval_s=5.0, request_timeout_s=10.0)
    system.sim.run(until=100.0)
    assert dve.retransmissions >= 5
    dve.destroy()


# -- PNA ----------------------------------------------------------------------

def test_offline_pna_drops_control():
    system = make_system()
    pna = system.pnas[0]
    pna.shutdown()
    payload, tag = wakeup_for(system)
    pna.deliver_control(payload, tag)
    assert pna.state is PNAState.IDLE
    assert pna.wakeups_seen == 0  # dropped before accounting


def test_unknown_control_payload_raises():
    system = make_system()
    pna = system.pnas[0]
    from repro.net import crypto

    tag = crypto.sign(system.controller.key, {"type": "garbage"})

    class Garbage:
        def signable_fields(self):
            return {"type": "garbage"}

    with pytest.raises(OddCIError):
        pna.deliver_control(Garbage(), tag)


def test_idle_pna_drops_reset_silently():
    system = make_system()
    pna = system.pnas[0]
    payload = ResetPayload(instance_id=None)
    tag = sign_control(system.controller.key, payload)
    pna.deliver_control(payload, tag)
    assert pna.resets_handled == 0
    assert pna.state is PNAState.IDLE


def test_reset_for_other_instance_ignored():
    system = make_system()
    pna = system.pnas[0]
    w_payload, w_tag = wakeup_for(system, instance_id="mine")
    pna.deliver_control(w_payload, w_tag)
    assert pna.state is PNAState.BUSY
    r_payload = ResetPayload(instance_id="theirs")
    r_tag = sign_control(system.controller.key, r_payload)
    pna.deliver_control(r_payload, r_tag)
    assert pna.state is PNAState.BUSY
    assert pna.instance_id == "mine"


def test_wildcard_reset_destroys_any_instance():
    system = make_system()
    pna = system.pnas[0]
    w_payload, w_tag = wakeup_for(system, instance_id="mine")
    pna.deliver_control(w_payload, w_tag)
    r_payload = ResetPayload(instance_id=None)
    r_tag = sign_control(system.controller.key, r_payload)
    pna.deliver_control(r_payload, r_tag)
    assert pna.state is PNAState.IDLE
    assert pna.dve is None


def test_wakeup_adopts_heartbeat_interval():
    system = make_system()
    pna = system.pnas[0]
    payload, tag = wakeup_for(system, heartbeat_interval_s=7.0)
    pna.deliver_control(payload, tag)
    assert pna.heartbeat_interval_s == 7.0


def test_probability_drop_accounting():
    system = make_system(n=200)
    payload, tag = wakeup_for(system, probability=0.3)
    for pna in system.pnas:
        pna.deliver_control(payload, tag)
    accepted = sum(p.wakeups_accepted for p in system.pnas)
    dropped = sum(p.dropped_probability for p in system.pnas)
    assert accepted + dropped == 200
    assert 35 < accepted < 85  # Binomial(200, 0.3)


def test_shutdown_restart_channel_management_flag():
    system = make_system()
    pna = system.pnas[0]
    pna.shutdown(manage_channel=False)
    assert not pna.online
    assert pna.channel.up  # untouched
    pna.restart(manage_channel=False)
    assert pna.online
    pna.shutdown()  # default manages the channel
    assert not pna.channel.up
    pna.restart()
    assert pna.channel.up
    # double restart/shutdown are no-ops
    pna.restart()
    pna.shutdown()
    pna.shutdown()


def test_pna_constructor_validation():
    from repro.core.pna import PNA
    from repro.net import DuplexChannel

    system = make_system()
    ch = DuplexChannel(system.sim, rate_bps=1e6)
    with pytest.raises(OddCIError):
        PNA(system.sim, "", router=system.router, channel=ch,
            controller_key=b"k")
    with pytest.raises(OddCIError):
        PNA(system.sim, "x", router=system.router, channel=ch,
            controller_key=b"k", heartbeat_interval_s=0)


def test_busy_heartbeats_carry_instance_id():
    from repro.core import InstanceSpec

    system = make_system()
    pna = system.pnas[0]
    spec = InstanceSpec(target_size=1, image_name="img", image_bits=1e5,
                        heartbeat_interval_s=30.0)
    system.controller.create_instance(spec, instance_id="i-hb")
    system.sim.run(until=100.0)
    seen, state, instance = dict(
        system.controller.census.registry_items())[pna.pna_id]
    assert state is PNAState.BUSY
    assert instance == "i-hb"


def test_controller_resets_busy_pna_of_unknown_instance():
    """A PNA claiming membership of an instance the Controller never
    created (or has destroyed) is ordered back to idle."""
    system = make_system()
    pna = system.pnas[0]
    payload, tag = wakeup_for(system, instance_id="rogue-instance")
    pna.deliver_control(payload, tag)
    assert pna.state is PNAState.BUSY
    system.sim.run(until=2e5)  # heartbeat -> controller -> reset reply
    assert pna.state is PNAState.IDLE
    assert pna.resets_handled >= 1
