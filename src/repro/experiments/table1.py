"""Experiment T1 — Table I: requirements × technologies matrix.

Derives the ✓/✗ matrix from the comparator models (not hard-coded):
each technology is asked to provision fleets at three scales and the
thresholds in :class:`~repro.baselines.base.RequirementThresholds`
convert the outcomes into the paper's three requirement columns.  A
second table reports the underlying provisioning measurements.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import format_seconds, render_table
from repro.baselines import (
    DCIModel,
    DesktopGrid,
    IaaSProvider,
    OddCIModel,
    REQUIREMENTS,
    RequirementThresholds,
    VoluntaryComputing,
    evaluate_requirements,
)
from repro.runner.scenario import Scenario, register

__all__ = ["default_models", "point_table1", "render_table1"]

#: Scales probed for the provisioning-detail table.
PROBE_SCALES = (100, 10_000, 1_000_000)


def default_models() -> List[DCIModel]:
    """The four technologies of Table I, with default calibrations."""
    return [VoluntaryComputing(), DesktopGrid(), IaaSProvider(),
            OddCIModel()]


def point_table1(*, seed: int = 0) -> Dict[str, object]:
    """Compute the requirement matrix and provisioning details.

    Returns ``{"matrix": {name: {req: bool}}, "details": [records]}``.
    Table I is derived analytically from the comparator models, so
    ``seed`` is accepted (uniform runner plumbing) but has no effect.
    """
    models = default_models()
    thresholds = RequirementThresholds()
    matrix = {m.name: evaluate_requirements(m, thresholds) for m in models}
    details = []
    for m in models:
        for scale in PROBE_SCALES:
            res = m.provision(scale)
            details.append({
                "technology": m.name,
                "requested": scale,
                "acquired": res.acquired,
                "ready_time_s": res.ready_time_s,
                "manual_effort": res.per_node_manual_effort,
                "notes": res.notes,
            })
    return {"matrix": matrix, "details": details}


def render_table1(result: Dict[str, object]) -> str:
    """ASCII rendering: the ✓/✗ matrix followed by the measurements."""
    matrix: Dict[str, Dict[str, bool]] = result["matrix"]  # type: ignore
    headers = ["requirement"] + list(matrix)
    pretty = {
        "extremely_high_scalability": "Extremely High Scalability",
        "on_demand_instantiation": "On-demand Instantiation",
        "efficient_setup": "Efficient Setup",
    }
    rows = []
    for req in REQUIREMENTS:
        rows.append([pretty[req]] + [
            "Y" if matrix[name][req] else "-" for name in matrix])
    out = [render_table(headers, rows,
                        title="Table I — requirements x technologies")]
    detail_rows = [
        [d["technology"], d["requested"], d["acquired"],
         format_seconds(d["ready_time_s"])
         if d["ready_time_s"] != float("inf") else "never",
         "yes" if d["manual_effort"] else "no", d["notes"]]
        for d in result["details"]]  # type: ignore
    out.append("")
    out.append(render_table(
        ["technology", "requested", "acquired", "ready in",
         "manual effort", "notes"],
        detail_rows, title="Provisioning measurements behind the matrix"))
    return "\n".join(out)


def render_table1_records(records) -> str:
    """Registry renderer: Table I is a single gridless point whose one
    record holds the whole matrix + details structure."""
    return render_table1(records[0])


register(Scenario(
    name="table1",
    description="Table I — requirements x technologies",
    point=point_table1,
    renderer=render_table1_records,
))
