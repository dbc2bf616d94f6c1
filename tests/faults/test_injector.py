"""Injector wiring: target checks, jitter determinism, empty plans."""

import pytest

from repro.core.system import OddCISystem
from repro.errors import FaultPlanError
from repro.faults import (
    FaultInjector,
    FaultTargets,
    active_plan,
    parse_fault_plan,
)
from repro.sim.core import Simulator


def test_missing_target_fails_fast():
    sim = Simulator(seed=0)
    plan = parse_fault_plan("controller_crash@10,dur=5")
    with pytest.raises(FaultPlanError, match="controller"):
        FaultInjector(sim, plan, FaultTargets())


def test_carousel_interrupt_accepts_broadcast_fallback_target():
    sim = Simulator(seed=0)
    plan = parse_fault_plan("carousel_interrupt@10,mag=2")

    class FakeBroadcast:
        up = True

        def set_up(self, up):
            self.up = up

    FaultInjector(sim, plan, FaultTargets(broadcasts=[FakeBroadcast()]))


def test_past_fire_time_rejected():
    sim = Simulator(seed=0)
    sim.run(until=50.0)
    plan = parse_fault_plan("broadcast_outage@10,dur=5")

    class FakeBroadcast:
        up = True

        def set_up(self, up):
            self.up = up

    with pytest.raises(FaultPlanError, match="before"):
        FaultInjector(sim, plan, FaultTargets(broadcasts=[FakeBroadcast()]))


def test_jittered_times_are_seed_deterministic():
    def jitter_times(seed):
        sim = Simulator(seed=seed)
        plan = parse_fault_plan(
            "broadcast_outage@10,dur=5,jitter=20;"
            "broadcast_outage@100,dur=5,jitter=20")

        class FakeBroadcast:
            up = True

            def set_up(self, up):
                self.up = up

        injector = FaultInjector(sim, plan, FaultTargets(
            broadcasts=[FakeBroadcast()]))
        sim.run(until=200.0)
        return tuple(t for t, _ in injector.fired)

    assert jitter_times(7) == jitter_times(7)
    assert jitter_times(7) != jitter_times(8)


def test_empty_plan_never_wires_an_injector():
    plan = parse_fault_plan("none")
    with active_plan(plan if plan.events else None):
        system = OddCISystem(seed=0)
    assert system.fault_injector is None


def test_ambient_plan_wires_system_injector():
    with active_plan(parse_fault_plan("broadcast_outage@10,dur=5")):
        system = OddCISystem(seed=0)
    assert system.fault_injector is not None
    system.sim.run(until=8.0)
    assert system.broadcast.up
    system.sim.run(until=12.0)
    assert not system.broadcast.up
    system.sim.run(until=20.0)
    assert system.broadcast.up
    assert system.fault_injector.fired == [(10.0, "broadcast_outage")]


def test_fault_metrics_count_on_a_registry_still_empty():
    """An installed registry counts injections even when no metric was
    registered before the injector: emptiness is not absence."""
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.trace import Tracer, active

    class FakeBroadcast:
        up = True

        def set_up(self, up):
            self.up = up

    registry = MetricsRegistry()
    with active(Tracer("fault", metrics=registry)) as tracer:
        assert tracer.metrics is registry and len(registry) == 0
        sim = Simulator(seed=0)
        FaultInjector(sim, parse_fault_plan("broadcast_outage@10,dur=5"),
                      FaultTargets(broadcasts=[FakeBroadcast()]))
        sim.run(until=20.0)
    assert registry.counter("fault.injected").value == 1
    assert registry.counter("fault.restored").value == 1
