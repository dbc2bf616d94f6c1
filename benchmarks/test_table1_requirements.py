"""Bench T1 — regenerates Table I (requirements × technologies).

Paper expectation: each requirement is met by at least one incumbent,
but only OddCI meets all three.
"""

from repro.experiments import render_table1
from repro.runner import Runner


def test_table1_requirements(benchmark, save_artifact):
    result = benchmark(Runner(seed=0).run, "table1").records[0]
    matrix = result["matrix"]
    assert all(matrix["oddci"].values())
    assert not all(matrix["iaas"].values())
    assert not all(matrix["desktop-grid"].values())
    assert not all(matrix["voluntary-computing"].values())
    save_artifact("table1_requirements", render_table1(result))
