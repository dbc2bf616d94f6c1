"""Tier-1 determinism contract: ``--jobs N`` output is byte-identical
to serial execution.

Runs fig6, the a3 heartbeat ablation, the service sweep and the
vector_scale multi-job scenario at smoke scale with 1, 2 and 4 workers
and compares the persisted artifacts byte for byte.  The
parallel path really crosses the process boundary (ProcessPoolExecutor
workers re-import the registry), so this also guards the picklability
of the scenario call protocol.
"""

import os

import pytest

from repro.runner import ArtifactStore, Runner

SCENARIOS = ("fig6", "a3", "service_sweep", "vector_scale")


def _artifact_bytes(tmp_path, name, jobs, trace=None):
    root = tmp_path / f"jobs{jobs}"
    runner = Runner(jobs=jobs, seed=7, smoke=True, trace=trace,
                    store=ArtifactStore(root))
    result = runner.run(name)
    directory = root / name
    records = (directory / "records-smoke.json").read_bytes()
    rendered = (directory / "rendered-smoke.txt").read_bytes()
    return result, records, rendered


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("jobs", (2, 4))
def test_parallel_matches_serial_byte_for_byte(tmp_path, name, jobs):
    serial, serial_records, serial_rendered = _artifact_bytes(
        tmp_path, name, 1)
    par, par_records, par_rendered = _artifact_bytes(tmp_path, name, jobs)
    assert serial.records == par.records
    assert par_records == serial_records
    assert par_rendered == serial_rendered
    assert par.meta["jobs"] == jobs
    assert par.meta["n_records"] == serial.meta["n_records"] > 0


@pytest.mark.parametrize("name", SCENARIOS)
def test_task_paths_agree_byte_for_byte(tmp_path, name, dve):
    """The cohort task engine and the per-PNA reference path must
    persist byte-identical artifacts, including under ``--jobs``
    (forked workers inherit the pinned path)."""
    with dve.per_pna():
        _res, ref_records, ref_rendered = _artifact_bytes(
            tmp_path / "process", name, 1)
    with dve.cohort():
        _res, coh_records, coh_rendered = _artifact_bytes(
            tmp_path / "cohort", name, 1)
        _res, par_records, par_rendered = _artifact_bytes(
            tmp_path / "cohort-jobs", name, 2)
    assert coh_records == ref_records
    assert coh_rendered == ref_rendered
    assert par_records == ref_records
    assert par_rendered == ref_rendered


@pytest.mark.parametrize("jobs", (2, 4))
def test_service_sweep_trace_and_metrics_are_jobs_invariant(
        tmp_path, jobs):
    """A traced service_sweep run persists byte-identical trace.jsonl
    and metrics.json for any ``--jobs`` — the ``serve`` category's
    request-lifecycle events ride the same per-point reset contract as
    records."""
    def traced_bytes(n_jobs):
        _res, records, _rendered = _artifact_bytes(
            tmp_path, "service_sweep", n_jobs, trace=True)
        directory = tmp_path / f"jobs{n_jobs}" / "service_sweep"
        return (records,
                (directory / "trace.jsonl").read_bytes(),
                (directory / "metrics.json").read_bytes())

    serial_records, serial_trace, serial_metrics = traced_bytes(1)
    par_records, par_trace, par_metrics = traced_bytes(jobs)
    assert b'"serve"' in serial_trace  # the new category really fires
    assert par_records == serial_records
    assert par_trace == serial_trace
    assert par_metrics == serial_metrics


@pytest.mark.experiments
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="wall-time speedup needs >= 4 cores; the "
                           "artifact metadata records cpu_count so "
                           "single-core runs stay honest")
def test_full_grid_parallel_speedup():
    # The fig6 full grid (44 independent event+vector simulations) must
    # cut wall time at least 2x with 4 workers on a multicore host.
    serial = Runner(jobs=1, seed=0).run("fig6")
    parallel = Runner(jobs=4, seed=0).run("fig6")
    assert serial.records == parallel.records
    assert parallel.meta["wall_time_s"] <= serial.meta["wall_time_s"] / 2
