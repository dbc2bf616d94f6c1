"""Experiment W — Section 5.1: overhead of the wakeup process.

Three independent estimates of the wakeup time W for a sweep of image
sizes and broadcast capacities:

* **analytic** — the paper's W = 1.5·I/β;
* **vector** — sampling over 10⁵ receivers at uniform phases of the
  vector tier's wakeup carousel schedule (includes PNA-Xlet/config/
  DSM-CC overheads);
* **event** — the event-driven carousel with a handful of receivers
  issuing reads (cross-validates the other two at small scale).

The paper's headline check: an 8 MB image at β = 1 Mbps wakes millions
of nodes in ≈ 1.5·I/β ≈ 100 s — independent of the fleet size.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis.models import wakeup_time
from repro.analysis.report import format_seconds, render_table
from repro.analysis.sweep import grid_points
from repro.carousel.carousel import ObjectCarousel
from repro.carousel.objects import CarouselFile
from repro.carousel.reader import sample_wakeup_latencies
from repro.net.broadcast import BroadcastChannel
from repro.net.message import MEGABYTE, bits_from_bytes
from repro.runner.scenario import Scenario, register
from repro.sim.core import Simulator
from repro.vector.system import carousel_schedule

__all__ = ["point_wakeup", "run_wakeup_sweep", "event_tier_wakeup_mean",
           "render_wakeup"]

IMAGE_MB = (1, 2, 4, 8, 16, 32)
BETA_MBPS = (1.0, 5.0, 19.0)


def event_tier_wakeup_mean(
    image_bits: float,
    beta_bps: float,
    *,
    n_readers: int = 40,
    seed: int = 0,
) -> float:
    """Mean image-read latency measured on the event-driven carousel."""
    sim = Simulator(seed=seed)
    channel = BroadcastChannel(sim, beta_bps=beta_bps)
    files = [
        CarouselFile(name="pna.bin", size_bits=bits_from_bytes(256 * 1024)),
        CarouselFile(name="oddci.config", size_bits=bits_from_bytes(4096)),
        CarouselFile(name="image", size_bits=image_bits),
    ]
    carousel = ObjectCarousel(sim, channel, files)
    cycle = carousel.schedule_snapshot(0.0).cycle_time
    rng = np.random.default_rng(seed)
    latencies: List[float] = []
    for t in rng.uniform(0.0, 3 * cycle, size=n_readers):
        def issue(t=t):
            ev = carousel.read("image")
            ev.add_callback(lambda e, t=t: latencies.append(sim.now - t))

        sim.schedule_at(float(t), issue)
    sim.run(until=8 * cycle)
    carousel.stop()
    if len(latencies) != n_readers:  # pragma: no cover - sanity guard
        raise RuntimeError("not all reads completed within the horizon")
    return float(np.mean(latencies))


def point_wakeup(
    beta_mbps: float,
    image_mb: float,
    *,
    vector_nodes: int = 100_000,
    event_readers: int = 40,
    seed: int = 0,
) -> Dict[str, float]:
    """Result fields for one (β, I) point: the three W estimates."""
    beta = beta_mbps * 1e6
    image_bits = image_mb * MEGABYTE
    analytic = wakeup_time(image_bits, beta)
    sched = carousel_schedule(image_bits, beta)
    sample = sample_wakeup_latencies(
        sched, "image", vector_nodes, np.random.default_rng(seed))
    event = event_tier_wakeup_mean(
        image_bits, beta, n_readers=event_readers, seed=seed)
    return {
        "analytic_s": analytic,
        "vector_s": sample.mean,
        "event_s": event,
        "vector_p99_s": sample.percentile(99),
    }


def run_wakeup_sweep(
    *,
    vector_nodes: int = 100_000,
    event_readers: int = 40,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """W for every (I, β) pair: analytic / vector / event estimates."""
    records: List[Dict[str, float]] = []
    for params in grid_points({"beta_mbps": BETA_MBPS,
                               "image_mb": IMAGE_MB}):
        record: Dict[str, float] = dict(params)
        record.update(point_wakeup(vector_nodes=vector_nodes,
                                   event_readers=event_readers,
                                   seed=seed, **params))
        records.append(record)
    return records


def render_wakeup(records: List[Dict[str, float]]) -> str:
    """ASCII rendering of the wakeup sweep with the 8 MB headline."""
    rows = [[r["beta_mbps"], r["image_mb"],
             format_seconds(r["analytic_s"]),
             format_seconds(r["vector_s"]),
             format_seconds(r["event_s"]),
             format_seconds(r["vector_p99_s"])]
            for r in records]
    table = render_table(
        ["beta (Mbps)", "image (MB)", "W analytic", "W vector(1e5)",
         "W event", "p99 vector"],
        rows, title="Section 5.1 — wakeup overhead W = 1.5 I/beta")
    eight = next((r for r in records
                  if r["image_mb"] == 8 and r["beta_mbps"] == 1.0), None)
    if eight is None:  # partial (smoke) sweep without the headline point
        return table
    return table + (
        f"\n8 MB @ 1 Mbps: analytic {format_seconds(eight['analytic_s'])}, "
        f"sampled over 100k nodes {format_seconds(eight['vector_s'])} — "
        f"independent of fleet size [paper: 'less than a few minutes']")


register(Scenario(
    name="wakeup",
    description="Section 5.1 — wakeup overhead",
    point=point_wakeup,
    renderer=render_wakeup,
    grid={"beta_mbps": BETA_MBPS, "image_mb": IMAGE_MB},
    fixed={"vector_nodes": 100_000, "event_readers": 40},
    smoke_grid={"beta_mbps": (1.0,), "image_mb": (1, 8)},
    smoke_fixed={"vector_nodes": 10_000, "event_readers": 10},
))
