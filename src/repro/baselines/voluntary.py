"""Voluntary computing model (SETI@home / BOINC-style).

Strengths: the volunteer population is enormous — extreme scalability is
*eventually* achievable.  Weaknesses (paper Section 2): growth is slow
and outside the provider's control (campaign-driven logistic adoption),
every volunteer performs a manual install/attach, and repurposing the
fleet for a new application needs explicit volunteer action — so neither
on-demand instantiation nor efficient setup holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import BaselineError
from repro.baselines.base import DCIModel, ProvisionResult

__all__ = ["VoluntaryComputing"]


@dataclass
class VoluntaryComputing(DCIModel):
    """Campaign-driven volunteer fleet.

    ``adoption(t) = ceiling / (1 + (ceiling/seed - 1) · e^(−growth·t))``
    — logistic growth from a ``seed`` of early adopters toward the
    ``ceiling``, with rate ``growth_per_day``.  Provisioning time for
    ``n`` volunteers inverts this curve and adds the up-front campaign
    preparation time.
    """

    ceiling: int = 10_000_000
    seed_volunteers: int = 500
    growth_per_day: float = 0.05
    campaign_preparation_s: float = 14 * 86400.0
    #: each volunteer downloads the client from the project server;
    #: the server farm sustains this aggregate rate.
    project_server_bps: float = 10e9

    name: str = "voluntary-computing"
    programmatic_lifecycle: bool = False

    def __post_init__(self) -> None:
        if self.ceiling <= self.seed_volunteers or self.seed_volunteers <= 0:
            raise BaselineError("need 0 < seed < ceiling")
        if self.growth_per_day <= 0:
            raise BaselineError("growth_per_day must be > 0")
        self.max_scale = self.ceiling

    def time_to_reach(self, n: int) -> float:
        """Days until the volunteer count reaches ``n`` (inverse logistic)."""
        if n <= 0:
            raise BaselineError("n must be > 0")
        if n >= self.ceiling:
            return math.inf
        if n <= self.seed_volunteers:
            return 0.0
        ratio = self.ceiling / self.seed_volunteers - 1.0
        return math.log(ratio * n / (self.ceiling - n)) / self.growth_per_day

    def provision(self, n: int) -> ProvisionResult:
        if n <= 0:
            raise BaselineError("n must be > 0")
        if n >= self.ceiling:
            return ProvisionResult(
                requested=n, acquired=self.ceiling - 1,
                ready_time_s=math.inf, per_node_manual_effort=True,
                notes="above the volunteer ceiling")
        days = self.time_to_reach(n)
        return ProvisionResult(
            requested=n, acquired=n,
            ready_time_s=self.campaign_preparation_s + days * 86400.0,
            per_node_manual_effort=True,
            notes=f"logistic adoption: {days:.1f} days of campaign")

    def staging_time(self, image_bits: float, n_nodes: int) -> float:
        """Unicast download of the app by every volunteer, server-bound."""
        if image_bits <= 0 or n_nodes <= 0:
            raise BaselineError("bad staging parameters")
        return n_nodes * image_bits / self.project_server_bps
