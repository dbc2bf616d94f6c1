"""Tests for the ablation and scalability experiments, on the registry
records that ``python -m repro {a1,a2,a3,scalability}`` renders."""

import pytest

from repro.experiments import (
    point_probability_policy,
    render_ablation,
    render_scalability,
)
from repro.runner import Runner


# -- A1: carousel composition ---------------------------------------------------

@pytest.fixture(scope="module")
def composition_records():
    return Runner(seed=0).run("a1").records


def test_composition_filler_inflates_wakeup(composition_records):
    ws = [r["w_wait_for_start_s"] for r in composition_records]
    assert ws == sorted(ws)  # more filler, slower wakeup
    # With filler = 2x the image, the carousel carries 3 images' worth of
    # content: W -> (0.5*3 + 1)*I/beta ~ 1.67x the ideal 1.5*I/beta.
    assert composition_records[-1]["w_over_ideal"] > 1.5


def test_composition_image_dominated_matches_paper_model(
        composition_records):
    none = composition_records[0]
    # With no filler W is within ~6% of 1.5 I/beta (Xlet+DSM-CC overhead).
    assert 1.0 <= none["w_over_ideal"] < 1.1


def test_composition_resume_never_worse(composition_records):
    for r in composition_records:
        assert r["w_resume_s"] <= r["w_wait_for_start_s"] + 1e-9
        assert r["resume_speedup"] >= 1.0
    # With heavy filler, resume's advantage shrinks (mid-window requests
    # are rarer), so the biggest win is in the image-dominated case.
    assert composition_records[0]["resume_speedup"] >= \
        composition_records[-1]["resume_speedup"]


def test_composition_render(composition_records):
    out = render_ablation(composition_records, "A1")
    assert "A1" in out and "filler_fraction" in out


# -- A2: probability policies ------------------------------------------------------

@pytest.fixture(scope="module")
def policy_records():
    return Runner(seed=0).run("a2").records


def test_policies_all_converge(policy_records):
    for r in policy_records:
        assert r["recruited"] >= 0.95 * r["target"], r["policy"]


def test_fixed_one_overshoots_massively(policy_records):
    fixed = next(r for r in policy_records if r["policy"] == "fixed-1.0")
    # probability 1 recruits the whole idle population in one round
    assert fixed["rounds"] == 1
    assert fixed["overshoot"] > 5.0


def test_deficit_policy_converges_tightly(policy_records):
    deficit = next(r for r in policy_records if r["policy"] == "deficit-1.1")
    assert deficit["overshoot"] < 0.15
    assert deficit["rounds"] <= 5


def test_deficit_beats_fixed_on_overshoot(policy_records):
    by_name = {r["policy"]: r for r in policy_records}
    assert by_name["deficit-1.1"]["overshoot"] < \
        by_name["fixed-0.5"]["overshoot"]


def test_biased_idle_estimate_still_converges():
    # The scenario does not register a biased idle estimate: one point.
    deficit = point_probability_policy(
        "deficit-1.1", population=50_000, target=5_000,
        idle_estimate_error=0.5, seed=1)
    assert deficit["recruited"] >= 0.95 * deficit["target"]


# -- A3: heartbeat intervals ---------------------------------------------------------

@pytest.fixture(scope="module")
def heartbeat_records():
    return Runner(seed=0).run("a3").records


def test_heartbeat_all_recover(heartbeat_records):
    assert all(r["recovered"] for r in heartbeat_records)


def test_shorter_heartbeat_faster_recovery(heartbeat_records):
    recs = sorted(heartbeat_records, key=lambda r: r["heartbeat_interval_s"])
    assert recs[0]["recovery_s"] < recs[-1]["recovery_s"]


def test_shorter_heartbeat_higher_controller_load(heartbeat_records):
    recs = sorted(heartbeat_records, key=lambda r: r["heartbeat_interval_s"])
    assert recs[0]["heartbeats_per_min"] > recs[-1]["heartbeats_per_min"]


# -- scalability --------------------------------------------------------------------

@pytest.fixture(scope="module")
def scalability_records():
    return Runner(seed=0).run("scalability").records


def test_scalability_wakeup_independent_of_fleet(scalability_records):
    ws = [r["wakeup_mean_s"] for r in scalability_records]
    assert max(ws) - min(ws) < 0.05 * max(ws)


def test_scalability_efficiency_stable(scalability_records):
    es = [r["efficiency"] for r in scalability_records]
    assert max(es) - min(es) < 0.15


def test_scalability_render(scalability_records):
    out = render_scalability(scalability_records)
    assert "Scalability" in out
    assert "requirement I" in out
