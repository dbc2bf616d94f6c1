"""Experiment T2 — Table II: BLASTALL on STB (in use / standby) vs PC.

The paper ports NCBI BLAST to a real ST7109 set-top box and runs 12
test configurations — nine against small databases (#1–9), three
against large ones (#10–12) — on the STB in both power modes and on a
reference PC.  Headline findings: STB-in-use ≈ 20.6× the PC time (max
error 10% at 90% confidence), in-use ≈ 1.65× standby, and the largest
workload takes ≈ 11 hours on an in-use STB.

Our substitution (DESIGN.md §2): a *real* mini-BLAST search runs once
per configuration on synthetic databases, giving genuine input-dependent
per-query work; the per-query reference-PC time is scaled by the
configuration's batch size (``n_queries``), then converted to STB times
through the calibrated device profiles.  A seeded log-normal measurement
noise (σ≈4%) models run-to-run dispersion so the confidence-interval
methodology is exercised for real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.report import format_seconds, render_table
from repro.analysis.stats import ratio_with_error
from repro.errors import AnalysisError
from repro.runner.scenario import Scenario, register
from repro.workloads.blast import BlastDatabase, BlastParams, search
from repro.workloads.devices import (
    REFERENCE_STB,
    PowerMode,
)
from repro.workloads.sequences import plant_homolog, random_database, random_dna

__all__ = ["BlastTestConfig", "TABLE2_CONFIGS", "point_table2",
           "render_table2"]

#: Log-normal measurement-noise sigma (run-to-run dispersion model).
NOISE_SIGMA = 0.04


@dataclass(frozen=True)
class BlastTestConfig:
    """One Table II row: a BLAST batch against a synthetic database."""

    test_id: int
    category: str          # "local-small" (#1-9) or "local-large" (#10-12)
    n_seqs: int
    seq_len: int
    query_len: int
    n_queries: int         # batch size multiplying the per-query time
    homologs: int          # planted matches (hit-rich vs hit-poor runs)

    def __post_init__(self) -> None:
        if self.n_seqs <= 0 or self.seq_len <= 0 or self.query_len <= 0:
            raise AnalysisError("sizes must be > 0")
        if self.n_queries <= 0:
            raise AnalysisError("n_queries must be > 0")


#: Twelve configurations spanning the paper's milliseconds-to-hours
#: range.  #1-9 use small databases; #10-12 large ones with big batches.
#: Batch sizes are calibrated so the simulated in-use STB times land on
#: the paper's Table II magnitudes (#1 ≈ 3.3 s ... #12 ≈ 10.8 h).
TABLE2_CONFIGS: List[BlastTestConfig] = [
    BlastTestConfig(1, "local-small", 4, 400, 60, 2900, 1),
    BlastTestConfig(2, "local-small", 4, 400, 60, 2500, 1),
    BlastTestConfig(3, "local-small", 6, 500, 80, 2700, 2),
    BlastTestConfig(4, "local-small", 2, 300, 40, 660, 0),
    BlastTestConfig(5, "local-small", 2, 300, 40, 490, 0),
    BlastTestConfig(6, "local-small", 2, 300, 40, 360, 1),
    BlastTestConfig(7, "local-small", 4, 400, 60, 1150, 1),
    BlastTestConfig(8, "local-small", 4, 400, 60, 2160, 0),
    BlastTestConfig(9, "local-small", 5, 400, 60, 1920, 1),
    BlastTestConfig(10, "local-large", 12, 2000, 120, 244_000, 3),
    BlastTestConfig(11, "local-large", 16, 3000, 150, 836_000, 4),
    BlastTestConfig(12, "local-large", 20, 4000, 200, 1_855_000, 5),
]


def _per_query_ref_seconds(config: BlastTestConfig,
                           rng: np.random.Generator) -> float:
    """Run one genuine mini-BLAST search and return its reference-PC
    seconds (from the kernel's work-unit accounting)."""
    db_seqs = random_database(config.n_seqs, config.seq_len, rng)
    query = random_dna(config.query_len, rng)
    for _ in range(config.homologs):
        plant_homolog(db_seqs, query, rng, mutation_rate=0.05)
    db = BlastDatabase(db_seqs, word_size=8)
    result = search(db, query, BlastParams(word_size=8))
    return result.ref_seconds()


def _config_record(config: BlastTestConfig,
                   rng: np.random.Generator) -> Dict[str, float]:
    """Measure one configuration with the given noise/workload stream."""
    standby_factor = REFERENCE_STB.factor(PowerMode.STANDBY)
    in_use_factor = REFERENCE_STB.factor(PowerMode.IN_USE)
    per_query = _per_query_ref_seconds(config, rng)
    pc = per_query * config.n_queries
    noise = rng.lognormal(mean=0.0, sigma=NOISE_SIGMA, size=3)
    pc_t = pc * float(noise[0])
    standby_t = pc * standby_factor * float(noise[1])
    in_use_t = pc * in_use_factor * float(noise[2])
    return {
        "category": config.category,
        "pc_s": pc_t,
        "stb_standby_s": standby_t,
        "stb_in_use_s": in_use_t,
        "in_use_over_pc": in_use_t / pc_t,
        "in_use_over_standby": in_use_t / standby_t,
    }


def point_table2(test: int, *, seed: int = 0) -> Dict[str, float]:
    """Result fields for one Table II configuration: the three
    measured times (seconds, with the seeded measurement-noise model)
    and the derived ratios.  Each point owns its generator, so rows are
    independent and safe to evaluate in any order or process.
    """
    config = next(c for c in TABLE2_CONFIGS if c.test_id == test)
    return _config_record(config, np.random.default_rng(seed))


def summarize_table2(records: List[Dict[str, float]],
                     confidence: float = 0.90) -> Dict[str, float]:
    """The paper's two headline ratios with t-confidence errors."""
    stb = [r["stb_in_use_s"] for r in records]
    pc = [r["pc_s"] for r in records]
    standby = [r["stb_standby_s"] for r in records]
    vs_pc = ratio_with_error(stb, pc, confidence=confidence)
    vs_standby = ratio_with_error(stb, standby, confidence=confidence)
    return {
        "stb_in_use_over_pc_mean": vs_pc.mean,
        "stb_in_use_over_pc_max_error": vs_pc.max_error,
        "in_use_over_standby_mean": vs_standby.mean,
        "in_use_over_standby_max_error": vs_standby.max_error,
        "largest_in_use_s": max(r["stb_in_use_s"] for r in records),
    }


def render_table2(records: List[Dict[str, float]]) -> str:
    """ASCII rendering of Table II plus the headline-ratio summary."""
    rows = [[r["test"], r["category"],
             format_seconds(r["stb_in_use_s"]),
             format_seconds(r["stb_standby_s"]),
             format_seconds(r["pc_s"]),
             f"{r['in_use_over_pc']:.1f}x"]
            for r in records]
    table = render_table(
        ["#", "category", "STB in use", "STB standby", "PC x86",
         "in-use/PC"],
        rows, title="Table II — Blastall on STB vs PC (simulated devices)")
    s = summarize_table2(records)
    summary = (
        f"\nmean STB-in-use/PC ratio:      {s['stb_in_use_over_pc_mean']:.1f}x"
        f"  (max error {s['stb_in_use_over_pc_max_error'] * 100:.1f}% @ 90%)"
        f"   [paper: 20.6x, <=10%]"
        f"\nmean in-use/standby ratio:     "
        f"{s['in_use_over_standby_mean']:.2f}x"
        f"  (max error {s['in_use_over_standby_max_error'] * 100:.1f}% @ 90%)"
        f"   [paper: 1.65x, <=17%]"
        f"\nlargest workload on in-use STB: "
        f"{format_seconds(s['largest_in_use_s'])}   [paper: ~11 h]")
    return table + summary


register(Scenario(
    name="table2",
    description="Table II — BLASTALL on STB vs PC",
    point=point_table2,
    renderer=render_table2,
    grid={"test": tuple(c.test_id for c in TABLE2_CONFIGS)},
    smoke_grid={"test": (1, 4, 10)},
))
