"""Trace artifacts obey the same ``--jobs`` contract as records.

A traced run persists ``trace.jsonl`` and ``metrics.json``; both must
be byte-identical for any worker count.  This is stricter than record
parity: every traced id (instances, jobs, messages) and every event
timestamp must be independent of which pool worker ran which point —
the runner resets the process-global id sequences per point to make it
hold.  fig6 exercises the vector tier (runner markers dominate), a3 the
event tier with ``all`` categories (kernel/control/pna/backend events).
"""

import json

import pytest

from repro.runner import ArtifactStore, Runner

SCENARIOS = ("fig6", "a3")


def _traced_artifacts(tmp_path, name, jobs):
    root = tmp_path / f"jobs{jobs}"
    runner = Runner(jobs=jobs, seed=7, smoke=True, trace="all",
                    store=ArtifactStore(root))
    result = runner.run(name)
    directory = root / name
    return (result,
            (directory / "trace.jsonl").read_bytes(),
            (directory / "metrics.json").read_bytes())


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("jobs", (2, 4))
def test_trace_parallel_matches_serial_byte_for_byte(tmp_path, name, jobs):
    serial, serial_trace, serial_metrics = _traced_artifacts(
        tmp_path, name, 1)
    par, par_trace, par_metrics = _traced_artifacts(tmp_path, name, jobs)
    assert par_trace == serial_trace
    assert par_metrics == serial_metrics
    # Records stay byte-identical under tracing too.
    assert par.records == serial.records
    assert serial.trace_events is not None
    assert serial.meta["trace_categories"] == [
        "kernel", "net", "carousel", "control", "pna", "backend",
        "certify", "fault", "serve", "vector", "runner"]


def test_traced_run_has_runner_markers_and_metrics(tmp_path):
    result, trace_bytes, metrics_bytes = _traced_artifacts(
        tmp_path, "a3", 1)
    events = result.trace_events
    names = [(ev[1], ev[2]) for ev in events]
    assert names[0] == ("runner", "run_start")
    assert names[-1] == ("runner", "run_end")
    assert names.count(("runner", "point_start")) == \
        result.meta["n_points"] > 0
    # The event tier really traced: kernel + control activity present.
    categories = {ev[1] for ev in events}
    assert {"kernel", "control", "runner"} <= categories
    metrics = json.loads(metrics_bytes)
    assert metrics["counters"]["census.heartbeats"] > 0
    assert result.meta["trace_events"] == len(events)
    # Per-point wall times ride in the (per-jobs) metadata, not the trace.
    assert len(result.meta["point_wall_s"]) == result.meta["n_points"]
    assert b"wall" not in trace_bytes


def test_untraced_runner_writes_no_trace_artifacts(tmp_path):
    runner = Runner(jobs=1, seed=7, smoke=True,
                    store=ArtifactStore(tmp_path))
    result = runner.run("fig6")
    assert result.trace_events is None and result.metrics is None
    directory = tmp_path / "fig6"
    assert not (directory / "trace.jsonl").exists()
    assert not (directory / "metrics.json").exists()
    assert (directory / "records-smoke.json").exists()


def test_trace_category_subset(tmp_path):
    runner = Runner(jobs=1, seed=7, smoke=True, trace="control,runner",
                    store=ArtifactStore(tmp_path))
    result = runner.run("a3")
    categories = {ev[1] for ev in result.trace_events}
    assert categories <= {"control", "runner"}
    assert result.meta["trace_categories"] == ["control", "runner"]


def test_certify_category_records_with_jobs_parity(tmp_path):
    """Result certification traces on its own ``certify`` category, and
    the events stay byte-identical for any worker count."""

    def traced(jobs):
        root = tmp_path / f"certify-jobs{jobs}"
        result = Runner(jobs=jobs, seed=7, smoke=True, trace="certify",
                        store=ArtifactStore(root)).run("sabotage_sweep")
        return result, (root / "sabotage_sweep" / "trace.jsonl").read_bytes()

    serial, serial_trace = traced(1)
    par, par_trace = traced(2)
    names = {(ev[1], ev[2]) for ev in serial.trace_events}
    assert {("certify", "dispatch"), ("certify", "probe"),
            ("certify", "quarantine")} <= names
    assert {category for category, _ in names} == {"certify"}
    assert par_trace == serial_trace
    assert par.records == serial.records
