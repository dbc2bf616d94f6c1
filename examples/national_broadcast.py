#!/usr/bin/env python
"""National-scale what-if: one million set-top boxes, one broadcast.

The paper's motivating scenario is a broadcaster-scale OddCI: millions
of receivers reachable through a single TV channel.  The event tier
cannot (and need not) simulate a million message-level agents; the
vector tier computes the same wakeup + greedy-pull semantics with array
math.  This example sizes a protein-screening campaign on a national
DTV audience and shows:

* the wakeup time is the same 1.5·I/β whether 10⁴ or 10⁶ boxes join;
* what the Table II device calibration means for fleet throughput
  (in-use vs standby evenings);
* how owner churn inflates the makespan and what the Controller's
  recomposition buys back.

Run:  python examples/national_broadcast.py
"""

import numpy as np

from repro.analysis import format_seconds, format_si, render_table
from repro.net.message import MEGABYTE
from repro.vector import VectorOddCISystem
from repro.vector.churn import makespan_under_churn, effective_capacity
from repro.vector.executor import per_task_wall_seconds
from repro.workloads import REFERENCE_STB, ChurnModel, PowerMode, uniform_bag


def main() -> None:
    audience = 1_000_000
    # Prime-time: 70% of powered boxes are actively watching TV.
    system = VectorOddCISystem(audience, seed=2026,
                               in_use_fraction=0.7,
                               powered_fraction=0.8,
                               beta_bps=1_000_000.0,
                               delta_bps=150_000.0)

    # A 30-million-task screening campaign, 10 MB image, 90 s/task on
    # the reference PC.
    job = uniform_bag(30_000_000, image_bits=10 * MEGABYTE,
                      ref_seconds=90.0, name="national-screening")

    rows = []
    for fleet in (10_000, 100_000, 750_000):
        result = system.run_job(job, target_size=fleet)
        rows.append([
            format_si(fleet), format_si(result.recruited),
            format_seconds(result.wakeup_mean_s),
            format_seconds(result.makespan_s),
            f"{result.efficiency:.3f}",
        ])
    print(render_table(
        ["target fleet", "recruited", "wakeup", "makespan", "efficiency"],
        rows, title=f"{format_si(job.n)} tasks on a {format_si(audience)}"
                    f"-receiver audience"))

    # Churn: owners switch boxes off (mean ON 2 h, OFF 1 h).
    churn = ChurnModel(mean_on_s=7200.0, mean_off_s=3600.0)
    ready = np.zeros(500_000)
    d = per_task_wall_seconds(90.0, 8192.0, 150_000.0,
                              REFERENCE_STB.factor(PowerMode.IN_USE))
    stable = makespan_under_churn(ready, 5_000_000, d, None)
    churned = makespan_under_churn(ready, 5_000_000, d, churn)
    lagged = makespan_under_churn(ready, 5_000_000, d, churn,
                                  recomposition_lag_s=600.0)
    print()
    print("churn impact on a 500k-node, 5M-task slice "
          "(in-use STBs, 90 s tasks):")
    print(f"  no churn:                      {format_seconds(stable.finish_time)}")
    print(f"  churn, instant recomposition:  {format_seconds(churned.finish_time)}")
    print(f"  churn, 10 min recomposition:   {format_seconds(lagged.finish_time)}")
    print(f"  steady-state availability:     "
          f"{churn.steady_state_availability:.2f}")
    print(f"  fleet capacity after 1 h:      "
          f"{effective_capacity(churn, 3600.0):.2f}")


if __name__ == "__main__":
    main()
