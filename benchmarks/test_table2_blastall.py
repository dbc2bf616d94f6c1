"""Bench T2 — regenerates Table II (BLASTALL: STB vs PC).

Paper expectation: STB-in-use ≈ 20.6× the PC (max error ≤ 10% @ 90%),
in-use ≈ 1.65× standby (≤ 17%), largest workload ≈ 11 h on the in-use
STB.  Our mini-BLAST provides the genuine per-query work; the device
profiles provide the calibrated ratios.
"""

import pytest

from repro.experiments import render_table2, summarize_table2
from repro.runner import Runner


def test_table2_blastall(benchmark, save_artifact):
    records = benchmark.pedantic(
        Runner(seed=0).run, args=("table2",), rounds=1, iterations=1).records
    summary = summarize_table2(records)
    assert summary["stb_in_use_over_pc_mean"] == pytest.approx(20.6,
                                                               rel=0.10)
    assert summary["stb_in_use_over_pc_max_error"] < 0.10
    assert summary["in_use_over_standby_mean"] == pytest.approx(1.65,
                                                                rel=0.10)
    assert 8 * 3600 < summary["largest_in_use_s"] < 15 * 3600
    save_artifact("table2_blastall", render_table2(records))
