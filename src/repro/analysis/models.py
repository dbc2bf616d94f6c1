"""Analytical performance models from Section 5 of the paper.

* Wakeup overhead (Section 5.1):  ``W = 1.5 · I / β`` — half a carousel
  cycle of expected waiting plus one full cycle to read the image, when
  the image dominates the carousel.
* Makespan (Equation 1):
  ``M̄ = 1.5·I/β + (n/N) · ((s̄ + r̄)/δ + p̄)``.
* Efficiency (Equation 2): ``E = n·p̄ / (M̄·N)``.
* Suitability ``Φ``: the paper's text prints Φ = (s+r)/(δ·p), but its own
  numeric examples (Φ=1 ⇒ p ≈ 53 ms, Φ=10⁵ ⇒ p ≈ 1.5 h with (s+r)=1 KB
  and δ=150 kbps) require the **reciprocal**; we use the corrected
  ``Φ = δ·p̄ / (s̄ + r̄)`` — the compute-to-communication ratio, where
  *higher* Φ means *more* suitable — through its inverse
  :func:`p_from_phi`.  See DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError

__all__ = [
    "OddCIParameters",
    "wakeup_time",
    "makespan_model",
    "efficiency_model",
    "p_from_phi",
]


@dataclass(frozen=True)
class OddCIParameters:
    """Channel/infrastructure parameters of an OddCI-DTV system.

    ``beta_bps`` is the spare broadcast capacity β; ``delta_bps`` the
    per-node direct channel δ.  Defaults are the paper's "typical
    values" (β ≥ 1 Mbps, δ ≥ 150 kbps).
    """

    beta_bps: float = 1_000_000.0
    delta_bps: float = 150_000.0

    def __post_init__(self) -> None:
        if self.beta_bps <= 0:
            raise AnalysisError("beta_bps must be > 0")
        if self.delta_bps <= 0:
            raise AnalysisError("delta_bps must be > 0")


def wakeup_time(image_bits: float, beta_bps: float) -> float:
    """Average wakeup overhead W = 1.5 · I / β (Section 5.1)."""
    if image_bits <= 0:
        raise AnalysisError(f"image_bits must be > 0, got {image_bits}")
    if beta_bps <= 0:
        raise AnalysisError(f"beta_bps must be > 0, got {beta_bps}")
    return 1.5 * image_bits / beta_bps


def makespan_model(
    *,
    image_bits: float,
    n_tasks: int,
    n_nodes: int,
    io_bits: float,
    p_seconds: float,
    params: OddCIParameters = OddCIParameters(),
) -> float:
    """Average makespan M̄ of a job (Equation 1).

    ``io_bits`` is s̄ + r̄ (average input + result size per task).
    """
    if n_tasks <= 0 or n_nodes <= 0:
        raise AnalysisError("n_tasks and n_nodes must be > 0")
    if io_bits < 0:
        raise AnalysisError("io_bits must be >= 0")
    if p_seconds <= 0:
        raise AnalysisError("p_seconds must be > 0")
    w = wakeup_time(image_bits, params.beta_bps)
    per_task = io_bits / params.delta_bps + p_seconds
    return w + (n_tasks / n_nodes) * per_task


def efficiency_model(
    *,
    image_bits: float,
    n_tasks: int,
    n_nodes: int,
    io_bits: float,
    p_seconds: float,
    params: OddCIParameters = OddCIParameters(),
) -> float:
    """Efficiency E = n·p̄ / (M̄·N) (Equation 2), in (0, 1]."""
    makespan = makespan_model(
        image_bits=image_bits, n_tasks=n_tasks, n_nodes=n_nodes,
        io_bits=io_bits, p_seconds=p_seconds, params=params)
    return (n_tasks * p_seconds) / (makespan * n_nodes)


def p_from_phi(phi_value: float, io_bits: float, delta_bps: float) -> float:
    """Per-task compute time realising a given Φ: p = Φ·(s+r)/δ."""
    if phi_value <= 0:
        raise AnalysisError("phi must be > 0")
    if io_bits <= 0 or delta_bps <= 0:
        raise AnalysisError("io_bits and delta_bps must be > 0")
    return phi_value * io_bits / delta_bps

