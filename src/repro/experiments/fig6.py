"""Experiment F6 — Figure 6: efficiency of an OddCI-DTV instance vs Φ.

Sweeps the suitability Φ over 10⁰..10⁵ for n/N ∈ {1, 10, 100, 1000}
with the paper's parameters (I = 10 MB, β = 1 Mbps, δ = 150 kbps,
(s+r) = 1 KB) and reports:

* the Equation 2 efficiency (analytic);
* a vector-tier simulated efficiency (recruitment + carousel wakeup +
  greedy pull execution) at N = ``sim_nodes``, cross-validating the
  closed form.

Expected shape (paper): E rises with Φ; n/N ≥ 100 reaches very high
efficiency for practical applications.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis.models import (
    OddCIParameters,
    efficiency_model,
    p_from_phi,
)
from repro.analysis.report import render_series
from repro.net.message import KILOBYTE, MEGABYTE
from repro.runner.scenario import Scenario, register
from repro.vector.system import VectorJobReport, VectorOddCISystem
from repro.workloads.bot import bag_from_phi

__all__ = ["PHI_GRID", "RATIOS", "simulate_point", "point_fig6",
           "render_fig6"]

#: Φ sample points (log-spaced, 10⁰ .. 10⁵).
PHI_GRID = tuple(float(v) for v in np.logspace(0, 5, 11))
#: n/N ratios plotted in the paper.
RATIOS = (1, 10, 100, 1000)

IMAGE_BITS = 10 * MEGABYTE
IO_BITS = float(KILOBYTE)
PARAMS = OddCIParameters(beta_bps=1_000_000.0, delta_bps=150_000.0)


def simulate_point(phi: float, ratio: int, n_nodes: int,
                   seed: int) -> VectorJobReport:
    """One Figure 6/7 cross-check job through the persistent-system API.

    The analytic model defines p on the node itself ("a reference
    set-top box"), so the population uses the reference profile (device
    factor 1.0); randomness goes through the system's named
    ``vector.*`` streams, keeping runner points byte-identical at any
    ``--jobs`` value.
    """
    from repro.workloads.devices import REFERENCE_PC

    system = VectorOddCISystem(
        max(4 * n_nodes, 1000), seed=seed, in_use_fraction=1.0,
        profile=REFERENCE_PC,
        beta_bps=PARAMS.beta_bps, delta_bps=PARAMS.delta_bps)
    job = bag_from_phi(ratio * n_nodes, phi, delta_bps=PARAMS.delta_bps,
                       io_bits=IO_BITS, image_bits=IMAGE_BITS)
    return system.run_job(job, target_size=n_nodes)


def point_fig6(
    ratio: int,
    phi: float,
    *,
    sim_nodes: int = 200,
    sim_ratios: tuple = (10, 100),
    seed: int = 0,
) -> Dict[str, float]:
    """Result fields for one (n/N, Φ) grid point: the Equation 2
    efficiency, plus the vector-simulated efficiency when ``ratio`` is
    in ``sim_ratios``."""
    p = p_from_phi(phi, IO_BITS, PARAMS.delta_bps)
    n_tasks = ratio * sim_nodes
    analytic = efficiency_model(
        image_bits=IMAGE_BITS, n_tasks=n_tasks, n_nodes=sim_nodes,
        io_bits=IO_BITS, p_seconds=p, params=PARAMS)
    result: Dict[str, float] = {"efficiency_analytic": analytic}
    if ratio in sim_ratios:
        result["efficiency_sim"] = simulate_point(
            phi, ratio, sim_nodes, seed).efficiency
    return result


def render_fig6(records: List[Dict[str, float]]) -> str:
    """ASCII rendering of the Figure 6 sweep (table + sparklines).

    Ratios come from the records themselves so partial (smoke-scale)
    sweeps render too.
    """
    out = []
    phis = sorted({r["phi"] for r in records})
    series = {}
    for ratio in sorted({r["ratio"] for r in records}):
        vals = [r["efficiency_analytic"] for r in records
                if r["ratio"] == ratio]
        series[f"n/N={ratio}"] = vals
    out.append(render_series(
        [f"{p:.3g}" for p in phis], series, x_label="phi",
        title=("Figure 6 — efficiency vs suitability phi "
               "((s+r)=1KB, I=10MB, beta=1Mbps, delta=150kbps)")))
    sim_records = [r for r in records if "efficiency_sim" in r]
    if sim_records:
        out.append("")
        out.append("vector-simulation cross-check (recruit + carousel "
                   "wakeup + pull execution):")
        for r in sim_records:
            out.append(
                f"  phi={r['phi']:>10.3g} n/N={r['ratio']:>5} "
                f"analytic={r['efficiency_analytic']:.3f} "
                f"simulated={r['efficiency_sim']:.3f}")
    return "\n".join(out)


register(Scenario(
    name="fig6",
    description="Figure 6 — efficiency vs phi",
    point=point_fig6,
    renderer=render_fig6,
    grid={"ratio": RATIOS, "phi": PHI_GRID},
    fixed={"sim_nodes": 200, "sim_ratios": (10, 100)},
    smoke_grid={"ratio": (1, 10, 100), "phi": PHI_GRID[::5]},
    smoke_fixed={"sim_nodes": 60, "sim_ratios": (10,)},
))
