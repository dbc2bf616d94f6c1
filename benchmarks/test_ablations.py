"""Benches A1–A6 — the design-choice ablations from DESIGN.md §5."""

from repro.experiments import render_ablation
from repro.runner import Runner


def test_a1_carousel_composition(benchmark, save_artifact):
    records = benchmark.pedantic(
        Runner(seed=0).run, args=("a1",), rounds=1, iterations=1).records
    ws = [r["w_wait_for_start_s"] for r in records]
    assert ws == sorted(ws)
    assert records[0]["w_over_ideal"] < 1.1      # image-dominated: paper model
    assert records[-1]["w_over_ideal"] > 1.5     # filler breaks the 1.5 factor
    save_artifact("ablation_a1_carousel_composition", render_ablation(
        records, "A1 — wakeup vs carousel composition "
                 "(wait_for_start vs block-level resume)"))


def test_a2_probability_policies(benchmark, save_artifact):
    records = benchmark.pedantic(
        Runner(seed=0).run, args=("a2",), rounds=1, iterations=1).records
    by_name = {r["policy"]: r for r in records}
    assert by_name["fixed-1.0"]["overshoot"] > 5.0
    assert by_name["deficit-1.1"]["overshoot"] < 0.15
    save_artifact("ablation_a2_probability_policies", render_ablation(
        records, "A2 — recruitment accuracy of wakeup-probability "
                 "policies"))


def test_a3_heartbeat_intervals(benchmark, save_artifact):
    records = benchmark.pedantic(
        Runner(seed=0).run, args=("a3",), rounds=1, iterations=1).records
    assert all(r["recovered"] for r in records)
    recs = sorted(records, key=lambda r: r["heartbeat_interval_s"])
    assert recs[0]["recovery_s"] < recs[-1]["recovery_s"]
    assert recs[0]["heartbeats_per_min"] > recs[-1]["heartbeats_per_min"]
    save_artifact("ablation_a3_heartbeat_intervals", render_ablation(
        records, "A3 — heartbeat interval vs recomposition latency and "
                 "controller load"))


def test_a4_heartbeat_aggregation(benchmark, save_artifact):
    records = benchmark.pedantic(
        Runner(seed=0).run, args=("a4",), rounds=1, iterations=1).records
    baseline = next(r for r in records if r["aggregators"] == 0)
    aggregated = [r for r in records if r["aggregators"] > 0]
    assert all(r["controller_msgs"] * 5 < baseline["controller_msgs"]
               for r in aggregated)
    assert all(r["census_correct"] for r in records)
    save_artifact("ablation_a4_heartbeat_aggregation", render_ablation(
        records, "A4 — controller load vs heartbeat-aggregation fan-out "
                 "(paper footnote 3 extension)"))


def test_a5_tail_replication(benchmark, save_artifact):
    records = benchmark.pedantic(
        Runner(seed=0).run, args=("a5",), rounds=1, iterations=1).records
    base = next(r for r in records if not r["replicate_tail"])
    repl = next(r for r in records if r["replicate_tail"])
    assert repl["speedup_vs_base"] > 1.5
    save_artifact("ablation_a5_tail_replication", render_ablation(
        records, "A5 — straggler mitigation via speculative tail "
                 "replication"))


def test_a6_control_plane_comparison(benchmark, save_artifact):
    records = benchmark.pedantic(
        Runner(seed=0).run, args=("a6",), rounds=1, iterations=1).records
    for r in records:
        # generic plane: one-shot broadcast = I/beta, simultaneous
        assert r["generic_plane_s"] < r["w_model_s"]
        # carousel plane: phase-aligned listeners land close to the
        # generic plane, well under the 1.5 I/beta worst-average
        assert r["carousel_plane_s"] < 1.5 * r["w_model_s"]
        assert 0.9 < r["carousel_penalty"] < 1.6
    save_artifact("ablation_a6_control_planes", render_ablation(
        records, "A6 — generic one-shot broadcast (Sec. 3) vs DSM-CC "
                 "carousel (Sec. 4): time to a staged fleet"))
