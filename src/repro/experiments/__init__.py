"""Experiment drivers — one per paper artifact (see DESIGN.md §5).

| scenario | artifact | per-point function |
|----------|----------|--------------------|
| ``table1`` | Table I   | :func:`~repro.experiments.table1.point_table1` |
| ``table2`` | Table II  | :func:`~repro.experiments.table2.point_table2` |
| ``table3`` | Table III | :func:`~repro.experiments.table3.point_table3` |
| ``wakeup`` | §5.1      | :func:`~repro.experiments.wakeup.point_wakeup` |
| ``fig6`` | Figure 6  | :func:`~repro.experiments.fig6.point_fig6` |
| ``fig7`` | Figure 7  | :func:`~repro.experiments.fig7.point_fig7` |
| ``a1``–``a6`` | ablations | ``point_*`` in :mod:`~repro.experiments.ablations` |
| ``scalability`` | requirement I | :func:`~repro.experiments.scalability.point_scalability` |
| ``vector_scale`` | vector scale | :func:`~repro.experiments.vector_scale.point_vector_scale` |
| ``fault_sweep`` | fault sweep | :func:`~repro.experiments.fault_sweep.point_fault_sweep` |
| ``federation_sweep`` | federation | :func:`~repro.experiments.federation_sweep.point_federation_sweep` |
| ``service_sweep`` | service tier | :func:`~repro.experiments.service_sweep.point_service_sweep` |
| ``flash_crowd`` | flash crowd | :func:`~repro.experiments.flash_crowd.point_flash_crowd` |
| ``sabotage_sweep`` | sabotage | :func:`~repro.experiments.sabotage_sweep.point_sabotage_sweep` |

Every experiment is a *per-point* function (one grid point → one result
record) registered as a :class:`~repro.runner.scenario.Scenario`;
importing this package populates the global scenario registry (what
:func:`repro.runner.load_scenarios` does).  A whole experiment runs only
through the registry: ``Runner(seed=s).run("<scenario>")`` returns the
records that ``python -m repro <scenario> --seed s`` renders.

A4 (heartbeat aggregation) and A5 (tail replication) evaluate the
extensions this reproduction adds beyond the paper's own evaluation.
"""

from repro.experiments.ablations import (
    point_aggregation,
    point_carousel_composition,
    point_heartbeat_interval,
    point_plane_comparison,
    point_probability_policy,
    point_replication,
    render_ablation,
)
from repro.experiments.fault_sweep import (
    fault_plan_for_intensity,
    finalize_fault_sweep,
    point_fault_sweep,
    render_fault_sweep,
)
from repro.experiments.federation_sweep import (
    federation_networks,
    finalize_federation_sweep,
    point_federation_sweep,
    render_federation_sweep,
)
from repro.experiments.fig6 import point_fig6, render_fig6
from repro.experiments.flash_crowd import (
    finalize_flash_crowd,
    point_flash_crowd,
    render_flash_crowd,
)
from repro.experiments.fig7 import point_fig7, render_fig7
from repro.experiments.sabotage_sweep import (
    CERTIFY_POLICIES,
    finalize_sabotage_sweep,
    point_sabotage_sweep,
    render_sabotage_sweep,
    sabotage_plan,
)
from repro.experiments.service_sweep import (
    finalize_service_sweep,
    point_service_sweep,
    render_service_sweep,
)
from repro.experiments.scalability import (
    point_scalability,
    render_scalability,
)
from repro.experiments.table1 import point_table1, render_table1
from repro.experiments.vector_scale import (
    point_vector_scale,
    render_vector_scale,
    storm_plan,
)
from repro.experiments.table2 import (
    TABLE2_CONFIGS,
    point_table2,
    render_table2,
    summarize_table2,
)
from repro.experiments.table3 import (
    TABLE3_CONFIGS,
    point_table3,
    render_table3,
)
from repro.experiments.wakeup import (
    event_tier_wakeup_mean,
    point_wakeup,
    render_wakeup,
)

__all__ = [
    "render_table1", "point_table1",
    "render_table2", "summarize_table2", "TABLE2_CONFIGS", "point_table2",
    "render_table3", "TABLE3_CONFIGS", "point_table3",
    "render_wakeup", "event_tier_wakeup_mean", "point_wakeup",
    "render_fig6", "point_fig6",
    "render_fig7", "point_fig7",
    "point_carousel_composition", "point_probability_policy",
    "point_heartbeat_interval", "point_aggregation",
    "point_replication", "point_plane_comparison",
    "render_ablation",
    "render_scalability", "point_scalability",
    "render_vector_scale", "point_vector_scale", "storm_plan",
    "render_fault_sweep", "point_fault_sweep",
    "finalize_fault_sweep", "fault_plan_for_intensity",
    "render_federation_sweep", "point_federation_sweep",
    "finalize_federation_sweep", "federation_networks",
    "render_service_sweep", "point_service_sweep", "finalize_service_sweep",
    "render_flash_crowd", "point_flash_crowd", "finalize_flash_crowd",
    "render_sabotage_sweep", "point_sabotage_sweep",
    "finalize_sabotage_sweep", "sabotage_plan", "CERTIFY_POLICIES",
]
