"""Analytical models, statistics, sweeps and report rendering.

* :mod:`~repro.analysis.models` — W, M̄, E, Φ (Section 5 equations,
  with the Φ erratum correction documented in DESIGN.md).
* :mod:`~repro.analysis.stats` — Student-t confidence intervals (the
  paper's 20.6× ± 10% @ 90% methodology).
* :mod:`~repro.analysis.sweep` — parameter-grid expansion and execution.
* :mod:`~repro.analysis.report` — ASCII tables/series for benchmarks.
"""

from repro.analysis.models import (
    OddCIParameters,
    efficiency_model,
    makespan_model,
    p_from_phi,
    wakeup_time,
)
from repro.analysis.report import (
    format_seconds,
    format_si,
    render_records,
    render_series,
    render_table,
)
from repro.analysis.stats import (
    ConfidenceInterval,
    mean_confidence_interval,
    ratio_with_error,
)
from repro.analysis.sweep import grid_points

__all__ = [
    "OddCIParameters",
    "wakeup_time",
    "makespan_model",
    "efficiency_model",
    "p_from_phi",
    "ConfidenceInterval",
    "mean_confidence_interval",
    "ratio_with_error",
    "grid_points",
    "render_table",
    "render_records",
    "render_series",
    "format_seconds",
    "format_si",
]
