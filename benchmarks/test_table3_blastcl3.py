"""Bench T3 — regenerates Table III (BLASTCL3 remote; reconstructed).

Paper expectation: with processing server-side, the STB/PC gap nearly
vanishes (ratios near 1 instead of ~20).
"""

from repro.experiments import render_table3
from repro.runner import Runner


def test_table3_blastcl3(benchmark, save_artifact):
    records = benchmark(Runner(seed=0).run, "table3").records
    assert len(records) == 3
    for r in records:
        assert 0.8 < r["in_use_over_pc"] < 1.5
    save_artifact("table3_blastcl3", render_table3(records))
