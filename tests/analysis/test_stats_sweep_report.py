"""Tests for statistics, sweep and report helpers."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import (
    format_seconds,
    format_si,
    grid_points,
    mean_confidence_interval,
    ratio_with_error,
    render_records,
    render_series,
    render_table,
)
from repro.errors import AnalysisError


# -- stats ----------------------------------------------------------------

def test_ci_known_sample():
    # symmetric sample: mean exactly 5
    ci = mean_confidence_interval([4.0, 5.0, 6.0, 5.0], confidence=0.90)
    assert ci.mean == pytest.approx(5.0)
    assert ci.low < 5.0 < ci.high
    assert ci.contains(5.0)
    assert not ci.contains(100.0)
    assert ci.n == 4


def test_ci_tightens_with_samples():
    rng = np.random.default_rng(0)
    small = mean_confidence_interval(rng.normal(10, 2, 10))
    large = mean_confidence_interval(rng.normal(10, 2, 1000))
    assert large.half_width < small.half_width


def test_ci_coverage_simulation():
    """90% CI should contain the true mean ~90% of the time."""
    rng = np.random.default_rng(1)
    hits = sum(
        mean_confidence_interval(rng.normal(3.0, 1.0, 20), 0.90).contains(3.0)
        for _ in range(400))
    assert 0.85 < hits / 400 < 0.95


def test_ci_validation():
    with pytest.raises(AnalysisError):
        mean_confidence_interval([1.0])
    with pytest.raises(AnalysisError):
        mean_confidence_interval([1.0, 2.0], confidence=1.5)


def test_max_error_fraction():
    ci = mean_confidence_interval([9.0, 10.0, 11.0])
    assert ci.max_error == pytest.approx(ci.half_width / 10.0)


def test_ratio_with_error():
    stb = [20.0, 21.0, 19.5, 20.5]
    pc = [1.0, 1.0, 1.0, 1.0]
    ci = ratio_with_error(stb, pc)
    assert ci.mean == pytest.approx(20.25)
    with pytest.raises(AnalysisError):
        ratio_with_error([1.0], [1.0, 2.0])
    with pytest.raises(AnalysisError):
        ratio_with_error([1.0, 2.0], [0.0, 1.0])


def test_experiments_import_leaves_scipy_out():
    """scipy (~70 MB, ~1 s to import) loads on the first confidence
    interval, not with the experiments package: a vector run that
    imports a scenario's fault plan does not pay for it."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    code = ("import sys, repro.experiments\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] "
            "== 'scipy'))\n")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


# -- grid -------------------------------------------------------------------

def test_grid_points_cartesian_order():
    pts = grid_points({"a": [1, 2], "b": ["x", "y"]})
    assert pts == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                   {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]


def test_grid_validation():
    with pytest.raises(AnalysisError):
        grid_points({})
    with pytest.raises(AnalysisError):
        grid_points({"a": []})
    with pytest.raises(AnalysisError):
        grid_points({"a": 5})


# -- report ----------------------------------------------------------------

def test_render_table_alignment():
    out = render_table(["name", "value"],
                       [["alpha", 1.5], ["b", 123456.0]],
                       title="demo")
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5
    # all data lines same width
    assert len(set(len(l) for l in lines[1:])) == 1


def test_render_table_width_mismatch():
    with pytest.raises(AnalysisError):
        render_table(["a"], [[1, 2]])


def test_render_records():
    recs = [{"x": 1, "y": 2.0}, {"x": 3, "y": 4.0}]
    out = render_records(recs)
    assert "x" in out and "y" in out and "3" in out
    out2 = render_records(recs, columns=["y"])
    assert "x" not in out2.splitlines()[0]
    with pytest.raises(AnalysisError):
        render_records([])


def test_render_series():
    out = render_series([1, 10, 100], {"eff": [0.1, 0.5, 0.9]},
                        x_label="phi", title="fig6", log_y=False)
    assert "fig6" in out
    assert "eff" in out
    assert "|" in out.splitlines()[-1]  # sparkline row


def test_render_series_log_y_handles_positive_values():
    out = render_series([1, 2], {"m": [10.0, 100000.0]}, log_y=True)
    assert "m" in out


def test_render_series_length_mismatch():
    with pytest.raises(AnalysisError):
        render_series([1, 2], {"y": [1.0]})


def test_format_seconds():
    assert format_seconds(0.0531) == "53.1 ms"
    assert format_seconds(64.0) == "64.00 s"
    assert format_seconds(600.0) == "10.0 min"
    assert format_seconds(39600.0) == "11.00 h"
    with pytest.raises(AnalysisError):
        format_seconds(-1)


def test_format_si():
    assert format_si(0) == "0"
    assert format_si(1_230_000, "bps") == "1.23 Mbps"
    assert format_si(1500) == "1.50 k"
    assert format_si(42) == "42"
