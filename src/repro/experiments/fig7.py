"""Experiment F7 — Figure 7: makespan for the Figure 6 scenario.

Same sweep as Figure 6 (Φ ∈ 10⁰..10⁵, n/N ∈ {1, 10, 100, 1000}), but
reporting the Equation 1 makespan (log-scale in the paper's plot) plus
the vector-simulated makespan for selected ratios.

Expected shape: makespan grows linearly in Φ once compute dominates,
and high efficiency (large n/N · large Φ) is paid for with a long
makespan — the efficiency/performance trade-off of Section 5.2.2.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.models import makespan_model, p_from_phi
from repro.analysis.report import format_seconds, render_series
from repro.experiments.fig6 import (
    IMAGE_BITS,
    IO_BITS,
    PARAMS,
    PHI_GRID,
    RATIOS,
    simulate_point,
)
from repro.runner.scenario import Scenario, register

__all__ = ["point_fig7", "render_fig7"]


def point_fig7(
    ratio: int,
    phi: float,
    *,
    sim_nodes: int = 200,
    sim_ratios: tuple = (10, 100),
    seed: int = 0,
) -> Dict[str, float]:
    """Result fields for one (n/N, Φ) point: Equation 1 makespan, plus
    the vector-simulated makespan for ratios in ``sim_ratios``."""
    p = p_from_phi(phi, IO_BITS, PARAMS.delta_bps)
    n_tasks = ratio * sim_nodes
    analytic = makespan_model(
        image_bits=IMAGE_BITS, n_tasks=n_tasks, n_nodes=sim_nodes,
        io_bits=IO_BITS, p_seconds=p, params=PARAMS)
    result: Dict[str, float] = {"makespan_analytic_s": analytic}
    if ratio in sim_ratios:
        result["makespan_sim_s"] = simulate_point(
            phi, ratio, sim_nodes, seed).makespan_s
    return result


def render_fig7(records: List[Dict[str, float]]) -> str:
    """ASCII rendering of the Figure 7 sweep (log-y sparklines)."""
    phis = sorted({r["phi"] for r in records})
    series = {
        f"n/N={ratio}": [r["makespan_analytic_s"] for r in records
                         if r["ratio"] == ratio]
        for ratio in sorted({r["ratio"] for r in records})
    }
    out = [render_series(
        [f"{p:.3g}" for p in phis], series, x_label="phi", log_y=True,
        title="Figure 7 — makespan vs phi (log-y; same scenario as Fig 6)")]
    sim_records = [r for r in records if "makespan_sim_s" in r]
    if sim_records:
        out.append("")
        out.append("vector-simulation cross-check:")
        for r in sim_records:
            out.append(
                f"  phi={r['phi']:>10.3g} n/N={r['ratio']:>5} "
                f"analytic={format_seconds(r['makespan_analytic_s'])} "
                f"simulated={format_seconds(r['makespan_sim_s'])}")
    return "\n".join(out)


register(Scenario(
    name="fig7",
    description="Figure 7 — makespan vs phi",
    point=point_fig7,
    renderer=render_fig7,
    grid={"ratio": RATIOS, "phi": PHI_GRID},
    fixed={"sim_nodes": 200, "sim_ratios": (10, 100)},
    smoke_grid={"ratio": (1, 10, 100), "phi": PHI_GRID[::5]},
    smoke_fixed={"sim_nodes": 60, "sim_ratios": (10,)},
))
