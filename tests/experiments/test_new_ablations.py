"""Tests for the extension ablations A4 (aggregation) and A5
(tail replication)."""

import pytest

from repro.experiments import point_aggregation, point_plane_comparison
from repro.runner import Runner


@pytest.fixture(scope="module")
def aggregation_records():
    # A fleet smaller than the registered a4 grid: points called directly.
    return [{"aggregators": fanout,
             **point_aggregation(fanout, n_pnas=12, heartbeat_s=5.0,
                                 aggregation_s=20.0, horizon_s=300.0,
                                 seed=0)}
            for fanout in (0, 2, 4)]


def test_aggregation_reduces_controller_messages(aggregation_records):
    baseline = next(r for r in aggregation_records if r["aggregators"] == 0)
    for r in aggregation_records:
        if r["aggregators"] > 0:
            assert r["controller_msgs"] * 5 < baseline["controller_msgs"]


def test_aggregation_preserves_idle_census(aggregation_records):
    assert all(r["census_correct"] for r in aggregation_records)


def test_more_aggregators_more_digests(aggregation_records):
    with_agg = [r for r in aggregation_records if r["aggregators"] > 0]
    msgs = [r["controller_msgs"] for r in
            sorted(with_agg, key=lambda r: r["aggregators"])]
    assert msgs == sorted(msgs)  # linear in fan-out, period fixed


@pytest.fixture(scope="module")
def replication_records():
    return Runner(seed=0).run("a5").records


def test_replication_cuts_straggler_makespan(replication_records):
    base = next(r for r in replication_records if not r["replicate_tail"])
    repl = next(r for r in replication_records if r["replicate_tail"])
    assert repl["makespan_s"] < base["makespan_s"]
    assert repl["speedup_vs_base"] > 1.5
    assert repl["replicas_issued"] >= 1
    assert base["replicas_issued"] == 0


@pytest.fixture(scope="module")
def plane_records():
    # A fleet smaller than the registered a6 grid: points called directly.
    return [{"image_mb": image_mb,
             **point_plane_comparison(image_mb, n_nodes=4, seed=0)}
            for image_mb in (1.0, 4.0)]


def test_plane_comparison_generic_is_one_shot(plane_records):
    """Generic plane: the image rides one broadcast message, so the
    fleet is staged in ~I/beta (simultaneously), below 1.5 I/beta."""
    for r in plane_records:
        assert r["generic_plane_s"] < r["w_model_s"]


def test_plane_comparison_carousel_close_for_aligned_listeners(
        plane_records):
    """Xlets already polling the config file are phase-aligned to the
    cycle, so they stage faster than the uniform-phase 1.5 I/beta
    average — a nuance the analytic model's steady-state assumption
    hides."""
    for r in plane_records:
        assert r["carousel_plane_s"] < 1.5 * r["w_model_s"]
        assert r["carousel_penalty"] < 1.6


def test_plane_comparison_scales_with_image(plane_records):
    small, large = plane_records
    assert large["generic_plane_s"] > small["generic_plane_s"]
    assert large["carousel_plane_s"] > small["carousel_plane_s"]
