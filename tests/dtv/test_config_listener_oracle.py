"""The PNA Xlet's config listener against the generator loop it replaced.

:class:`_ProcessXlet` keeps the earlier ``PNAXlet._control_loop``: a
generator process that yields one ``carousel.read(CONFIG_FILE)`` per
repetition.  Every scenario runs twice, once on the listener Xlet and
once on the process Xlet, and both runs must agree on

* the kernel's dispatch sequence, ``(time, callback name)`` per
  executed entry — the listener's callbacks compared under the names
  of the process callbacks they stand in for;
* ``events_executed``;
* certified tasks, copies, quarantines, escapes, carousel cycles and
  every Xlet's ``_last_config_version``, in creation order.

The listener resolves its carousel once, at start; power-off, untuning
and re-tuning must destroy the Xlet before the box leaves that carousel,
which :func:`_assert_polls_tuned_carousel` checks at every live poll.
"""

import pytest

from repro import dtv_oddci
from repro.core.instance import reset_instance_sequence
from repro.core.messages import WakeupPayload
from repro.dtv.xlet import Xlet
from repro.dtv_oddci import CONFIG_FILE, PNA_APP_ID, OddCIDTVSystem, PNAXlet
from repro.net.crypto import reset_key_sequence
from repro.net.message import (MEGABYTE, bits_from_bytes,
                               reset_message_sequence)
from repro.sim.core import Simulator
from repro.sim.process import Interrupt
from repro.workloads import uniform_bag
from repro.workloads.devices import PowerMode
from repro.workloads.job import reset_job_sequence
from tests.dtv.test_calendar_pin import run_pinned_deployment

#: listener callback -> the process callback it replaces, entry for entry
_AS_PROCESS = {"_ConfigListener._poll": "Process._resume",
               "_ConfigListener._halt": "Process._do_interrupt"}


class _RecordingXlet(PNAXlet):
    """``PNAXlet`` that records every instance, in creation order."""

    created = None

    def __init__(self, sim, stb, pna):
        super().__init__(sim, stb, pna)
        type(self).created.append(self)


class _ProcessXlet(_RecordingXlet):
    """The oracle: config polling as a generator process."""

    def on_start(self) -> None:
        trace = self.pna._trace
        if trace is not None:
            trace.emit(self.sim.now, "xlet_start", pna=self.pna.pna_id)
        self.pna.restart(manage_channel=False)
        self._loop = self.sim.process(self._control_loop())

    def _control_loop(self):
        try:
            while not self.destroyed:
                carousel = self.stb.tuned_carousel()
                if carousel is None:
                    return  # untuned/off: the Xlet is about to be killed
                config = yield carousel.read(CONFIG_FILE)
                if config.version <= self._last_config_version:
                    continue
                control = config.metadata.get("control")
                if control is None:
                    self._last_config_version = config.version
                    continue
                payload, signature = control
                fetch = None
                if isinstance(payload, WakeupPayload):
                    fetch = self._image_fetcher(payload.image_name)
                if self.pna.deliver_control(payload, signature,
                                            fetch_image=fetch):
                    self._last_config_version = config.version
        except Interrupt:
            pass


def _callback_name(callback) -> str:
    name = getattr(callback, "__qualname__", None) or type(callback).__name__
    return _AS_PROCESS.get(name, name)


def _run_both(monkeypatch, scenario):
    """Run ``scenario(sim, on_dispatch)`` on each Xlet, each from fresh
    process-global id sequences; return the two ``(trace, outputs)``
    pairs (listener first)."""
    results = []
    for xlet_class in (_RecordingXlet, _ProcessXlet):
        for reset in (reset_instance_sequence, reset_job_sequence,
                      reset_message_sequence, reset_key_sequence):
            reset()
        xlet_class.created = []
        monkeypatch.setattr(dtv_oddci, "PNAXlet", xlet_class)
        trace, hooks = [], []

        def dispatch(time, callback, args, trace=trace, hooks=hooks):
            trace.append((time, _callback_name(callback)))
            for hook in hooks:
                hook(time, callback, args)

        sim = Simulator(seed=7, trace=dispatch)
        outputs = scenario(sim, hooks.append)
        outputs["events_executed"] = sim.events_executed
        outputs["config_versions"] = [
            x._last_config_version for x in xlet_class.created]
        results.append((trace, outputs))
    return results


def _assert_same(results):
    (trace_l, out_l), (trace_p, out_p) = results
    assert len(trace_l) == len(trace_p)
    assert trace_l == trace_p
    assert out_l == out_p
    assert out_l["config_versions"]  # Xlets really ran
    return out_l


def _assert_polls_tuned_carousel(polls):
    """Dispatch hook: a live listener of a live Xlet is about to poll
    only while its box is still tuned to the carousel it listens on
    (``polls`` counts the checked polls)."""

    def check(time, callback, args):
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, dtv_oddci._ConfigListener) and owner.alive \
                and not owner.xlet.destroyed:
            assert owner.xlet.stb.tuned_carousel() is owner._carousel
            polls.append(time)

    return check


def _job_outputs(system, submission):
    backend = submission.backend
    return {"completed": backend.completed_count,
            "requeues": backend.requeues,
            "online": system.online_count()}


@pytest.mark.parametrize("fast_forward", [True, False],
                         ids=["fast_forward", "live"])
def test_small_dtv_churn_matches_process_loop(monkeypatch, fast_forward):
    """The pinned 30-box dtv_churn deployment: churn, the benchmark
    workload's fault plan, saboteurs and adaptive certification."""
    out = _assert_same(_run_both(monkeypatch, lambda sim, _: (
        run_pinned_deployment(sim, fast_forward=fast_forward))))
    assert out["certified"] > 0 and out["escaped"] == 0


def test_signature_corruption_retry_matches_process_loop(monkeypatch):
    """The refused-delivery retry of
    tests/faults/test_signature_corruption.py: a tampered wakeup is
    retried every repetition until a clean republish lands."""

    def scenario(sim, _on_dispatch):
        system = OddCIDTVSystem(sim, beta_bps=1_000_000.0,
                                maintenance_interval_s=100.0,
                                pna_xlet_bits=bits_from_bytes(64 * 1024))
        system.add_receivers(1, heartbeat_interval_s=50.0,
                             dve_poll_interval_s=10.0)
        sim.run(until=60.0)
        system.controller.corrupt_signatures(True)
        job = uniform_bag(10, image_bits=1 * MEGABYTE, ref_seconds=100.0)
        submission = system.provider.submit_job(
            job, target_size=1, heartbeat_interval_s=50.0)
        sim.run(until=260.0)
        record = system.controller.instance(submission.instance_id)
        refused_size = record.size
        system.controller.corrupt_signatures(False)
        sim.run(until=600.0)
        pna = system.pnas[0]
        return {"refused_size": refused_size, "size": record.size,
                "dropped": pna.dropped_bad_signature}

    out = _assert_same(_run_both(monkeypatch, scenario))
    assert out["refused_size"] == 0 and out["size"] == 1
    assert out["dropped"] > 1


@pytest.mark.parametrize("fast_forward", [True, False],
                         ids=["fast_forward", "live"])
def test_pause_restart_destroy_mid_wait_match_process_loop(monkeypatch,
                                                           fast_forward):
    """Lifecycle calls while a poll is queued on the carousel, and right
    before a settled poll runs: the halted loop's pending entry must fire
    as a no-op, and an overlapping restarted loop must poll as before."""

    def scenario(sim, on_dispatch):
        system = OddCIDTVSystem(sim, maintenance_interval_s=100.0,
                                pna_xlet_bits=bits_from_bytes(64 * 1024),
                                carousel_fast_forward=fast_forward)
        system.add_receivers(4, heartbeat_interval_s=50.0,
                             dve_poll_interval_s=10.0)
        sim.run(until=60.0)
        xlets = [box.app_manager.running_xlet(777) for box in system.boxes]
        job = uniform_bag(40, image_bits=MEGABYTE, ref_seconds=30.0)
        submission = system.provider.submit_job(
            job, target_size=3, heartbeat_interval_s=50.0)
        sim.run(until=61.3)  # mid-wait: every loop is queued
        xlets[0].pause_xlet()
        sim.run(until=75.0)
        xlets[0].start_xlet()
        xlets[1].pause_xlet()
        xlets[1].start_xlet()  # overlaps the halting loop
        sim.run(until=90.0)
        xlets[2].destroy_xlet()

        def restart(xlet):
            xlet.pause_xlet()
            xlet.start_xlet()

        # Right before a settled poll runs (its entry already queued):
        # after t, (box, lifecycle call).
        armed = [(120.0, 3, restart), (150.0, 1, Xlet.destroy_xlet)]

        def before_poll(time, callback, args):
            owner = getattr(callback, "__self__", None)
            for step in armed:
                after, box, action = step
                if time > after and args and args[0] is not None \
                        and owner is xlets[box]._loop:
                    armed.remove(step)
                    action(xlets[box])
                    return

        on_dispatch(before_poll)
        sim.run(until=400.0)
        assert not armed
        out = _job_outputs(system, submission)
        out["carousel_cycles"] = \
            system.control_plane.carousel.cycles_completed
        out["states"] = [x.state.value for x in xlets]
        return out

    out = _assert_same(_run_both(monkeypatch, scenario))
    assert out["states"] == ["started", "destroyed", "destroyed", "started"]


def test_multichannel_matches_process_loop(monkeypatch):
    def scenario(sim, _on_dispatch):
        system = OddCIDTVSystem(
            sim, channels=3, maintenance_interval_s=60.0,
            pna_xlet_bits=bits_from_bytes(64 * 1024))
        system.add_receivers(12, heartbeat_interval_s=30.0,
                             dve_poll_interval_s=10.0)
        sim.run(until=60.0)
        job = uniform_bag(48, image_bits=MEGABYTE, ref_seconds=5.0)
        submission = system.provider.submit_job(
            job, target_size=12, heartbeat_interval_s=30.0)
        report = system.provider.run_job_to_completion(submission,
                                                       limit_s=1e6)
        out = _job_outputs(system, submission)
        out["makespan"] = report.makespan
        out["carousel_cycles"] = [p.carousel.cycles_completed
                                  for p in system.planes]
        return out

    out = _assert_same(_run_both(monkeypatch, scenario))
    assert out["completed"] == 48


@pytest.mark.parametrize("fast_forward", [True, False],
                         ids=["fast_forward", "live"])
def test_power_off_untune_and_retune_match_process_loop(monkeypatch,
                                                         fast_forward):
    """Power-off, untuning and re-tuning to the other channel of a
    2-channel deployment, while every poll is queued on a carousel and
    right before a settled poll runs; then power-on and tuning back,
    which relaunch the Xlet."""
    polls = []

    def scenario(sim, on_dispatch):
        system = OddCIDTVSystem(sim, channels=2, maintenance_interval_s=100.0,
                                pna_xlet_bits=bits_from_bytes(64 * 1024),
                                carousel_fast_forward=fast_forward)
        boxes = system.add_receivers(6, heartbeat_interval_s=50.0,
                                     dve_poll_interval_s=10.0)
        other = {system.services[0]: system.services[1],
                 system.services[1]: system.services[0]}
        on_dispatch(_assert_polls_tuned_carousel(polls))
        sim.run(until=60.0)
        job = uniform_bag(60, image_bits=MEGABYTE, ref_seconds=30.0)
        submission = system.provider.submit_job(
            job, target_size=4, heartbeat_interval_s=50.0)
        sim.run(until=61.3)  # mid-wait: every loop is queued
        boxes[0].set_mode(PowerMode.OFF)
        boxes[1].untune()
        boxes[3].tune(other[boxes[3].service])
        sim.run(until=120.0)
        boxes[0].set_mode(PowerMode.IN_USE)
        boxes[1].tune(system.services[1])

        def power_cycle(box):
            box.set_mode(PowerMode.OFF)
            box.set_mode(PowerMode.IN_USE)

        # Right before a settled poll runs (its entry already queued):
        # after t, (box, action).
        armed = [(150.0, 2, lambda box: box.tune(other[box.service])),
                 (180.0, 4, lambda box: box.set_mode(PowerMode.OFF)),
                 (210.0, 5, lambda box: box.untune()),
                 (240.0, 3, power_cycle)]

        def before_poll(time, callback, args):
            owner = getattr(callback, "__self__", None)
            for step in armed:
                after, box, action = step
                xlet = boxes[box].app_manager.running_xlet(PNA_APP_ID)
                if time > after and args and args[0] is not None \
                        and xlet is not None and owner is xlet._loop:
                    armed.remove(step)
                    action(boxes[box])
                    return

        on_dispatch(before_poll)
        sim.run(until=400.0)
        assert not armed
        out = _job_outputs(system, submission)
        out["carousel_cycles"] = [p.carousel.cycles_completed
                                  for p in system.planes]
        out["services"] = [system.services.index(box.service)
                           if box.service is not None else None
                           for box in boxes]
        out["running"] = [box.app_manager.running_xlet(PNA_APP_ID)
                          is not None for box in boxes]
        return out

    out = _assert_same(_run_both(monkeypatch, scenario))
    assert polls  # the listener run checked its live polls
    assert out["services"] == [0, 1, 1, 0, 1, None]
    assert out["running"] == [True, True, True, True, False, False]
