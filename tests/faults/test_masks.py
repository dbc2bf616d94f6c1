"""Fault-plan compilation to vector-tier windows (repro.faults.masks)."""

import math

import numpy as np
import pytest

from repro.errors import FaultPlanError
from repro.faults import (
    CompiledFaultPlan,
    FaultEvent,
    FaultPlan,
    FaultWindow,
    compile_fault_plan,
    deferred_start,
    storm_victims,
)
from repro.faults.masks import (
    CENSUS_OUTAGE_KINDS,
    COMPUTE_OUTAGE_KINDS,
    RECRUITMENT_BLACKOUT_KINDS,
)


def rng():
    return np.random.default_rng(7)


# -- compilation semantics ----------------------------------------------------

def test_every_plan_kind_lands_in_exactly_one_effect_group():
    plan = FaultPlan((
        FaultEvent("churn_storm", 100.0, duration_s=50.0, magnitude=0.2),
        FaultEvent("link_down", 200.0, duration_s=10.0, magnitude=0.5),
        FaultEvent("backend_crash", 300.0, duration_s=30.0),
        FaultEvent("broadcast_outage", 400.0, duration_s=20.0),
        FaultEvent("signature_corruption", 500.0, duration_s=25.0),
        FaultEvent("controller_crash", 600.0, duration_s=40.0),
    ), name="all-kinds")
    compiled = compile_fault_plan(plan, rng())
    assert len(compiled) == 6
    assert {w.kind for w in compiled.compute_outages()} == set(
        COMPUTE_OUTAGE_KINDS)
    assert {w.kind for w in compiled.recruitment_blackouts()} <= set(
        RECRUITMENT_BLACKOUT_KINDS)
    assert {w.kind for w in compiled.census_outages()} == set(
        CENSUS_OUTAGE_KINDS)
    # Windows come out sorted by start regardless of plan order.
    starts = [w.start for w in compiled.windows]
    assert starts == sorted(starts)


def test_magnitude_resolution_per_kind():
    plan = FaultPlan((
        FaultEvent("churn_storm", 10.0, duration_s=5.0, magnitude=0.35),
        FaultEvent("link_down", 20.0, duration_s=5.0),          # mag 0 = all
        FaultEvent("backend_crash", 30.0, duration_s=5.0),
    ), name="fractions")
    compiled = compile_fault_plan(plan, rng())
    by_kind = {w.kind: w for w in compiled.windows}
    assert by_kind["churn_storm"].fraction == pytest.approx(0.35)
    assert by_kind["link_down"].fraction == 1.0
    assert by_kind["backend_crash"].fraction == 1.0


def test_permanent_fault_compiles_to_open_window():
    plan = FaultPlan((FaultEvent("controller_crash", 50.0),), name="perm")
    (window,) = compile_fault_plan(plan, rng()).windows
    assert window.start == 50.0
    assert math.isinf(window.end)


def test_link_flap_expands_into_down_phases():
    plan = FaultPlan((FaultEvent("link_flap", 100.0, duration_s=10.0,
                                 magnitude=3.0),), name="flap")
    compiled = compile_fault_plan(plan, rng())
    downs = compiled.compute_outages()
    assert [w.kind for w in downs] == ["link_down"] * 3
    # Alternating down/up: phases at 100, 120, 140, each 10 s long.
    assert [(w.start, w.end) for w in downs] == [
        (100.0, 110.0), (120.0, 130.0), (140.0, 150.0)]


def test_carousel_interrupt_degrades_to_broadcast_outage():
    plan = FaultPlan((FaultEvent("carousel_interrupt", 60.0,
                                 duration_s=30.0, magnitude=2.0),),
                     name="carousel")
    (window,) = compile_fault_plan(plan, rng()).windows
    assert window.kind == "broadcast_outage"
    assert (window.start, window.end) == (60.0, 90.0)


def test_jitter_resolved_in_declaration_order_deterministically():
    plan = FaultPlan((
        FaultEvent("churn_storm", 100.0, duration_s=10.0, magnitude=0.1,
                   jitter_s=20.0),
        FaultEvent("broadcast_outage", 200.0, duration_s=10.0,
                   jitter_s=20.0),
    ), name="jitter")
    a = compile_fault_plan(plan, np.random.default_rng(3))
    b = compile_fault_plan(plan, np.random.default_rng(3))
    assert [(w.start, w.end) for w in a.windows] == \
           [(w.start, w.end) for w in b.windows]
    for w, event in zip(a.windows, plan.events):
        assert event.time <= w.start <= event.time + 20.0


def test_adversary_kinds_are_rejected_not_dropped():
    plan = FaultPlan((FaultEvent("saboteur", 0.0, magnitude=0.1),),
                     name="bad")
    with pytest.raises(FaultPlanError, match="event tier"):
        compile_fault_plan(plan, rng())


def test_window_validation_rejects_empty_interval():
    with pytest.raises(FaultPlanError):
        FaultWindow(kind="link_down", start=10.0, end=10.0)


# -- storm victims ------------------------------------------------------------

def test_storm_victims_follow_injector_count_rule():
    mask = storm_victims(rng(), 1000, 0.3)
    assert mask.sum() == max(1, round(0.3 * 1000))
    # Tiny fractions still claim one victim, like the injector.
    assert storm_victims(rng(), 1000, 1e-6).sum() == 1
    # Full-fleet outage: everyone, no RNG draw consumed.
    g = rng()
    state_before = g.bit_generator.state["state"]["state"]
    assert storm_victims(g, 50, 1.0).all()
    assert g.bit_generator.state["state"]["state"] == state_before
    assert storm_victims(rng(), 0, 0.5).size == 0


# -- deferred start -----------------------------------------------------------

def test_deferred_start_chains_through_abutting_windows():
    blackouts = [
        FaultWindow(kind="broadcast_outage", start=10.0, end=20.0),
        FaultWindow(kind="signature_corruption", start=20.0, end=35.0),
    ]
    assert deferred_start(5.0, blackouts) == 5.0
    assert deferred_start(12.0, blackouts) == 35.0
    assert deferred_start(20.0, blackouts) == 35.0
    assert deferred_start(35.0, blackouts) == 35.0


def test_deferred_start_rejects_permanent_blackout():
    forever = [FaultWindow(kind="broadcast_outage", start=10.0,
                           end=math.inf)]
    with pytest.raises(FaultPlanError, match="forever"):
        deferred_start(10.0, forever)


def test_empty_compiled_plan_is_inert():
    compiled = CompiledFaultPlan((), name="")
    assert len(compiled) == 0
    assert compiled.compute_outages() == []
    assert compiled.recruitment_blackouts() == []
    assert compiled.census_outages() == []
