"""Certification policy knobs.

A :class:`CertifyPolicy` tells the Backend-side
:class:`~repro.certify.certifier.ResultCertifier` how much redundancy
to buy and when to stop trusting a node.  Three modes:

``audit``
    No redundancy, no probes, no quarantine — every result is accepted
    exactly as an uncertified Backend would, but arrivals are *audited*
    against ground truth so ``certify.escaped_errors`` measures the
    uncertified baseline inside the same artifact.
``static``
    Every task is dispatched to ``r`` distinct PNAs and committed on a
    majority quorum of matching digests (Sarmenta-style voting), with
    spot-check probes at ``probe_rate``.
``adaptive``
    Like ``static``, but the replication factor per task follows the
    credibility of the node that first claims it: nodes above
    ``trust_threshold`` get ``r_min`` (usually 1 — no redundancy),
    everyone else ``r_max``.  Probes keep running for trusted nodes,
    so a turned node decays back below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["CertifyPolicy", "MODES"]

MODES = ("audit", "static", "adaptive")


@dataclass(frozen=True)
class CertifyPolicy:
    """Immutable certification configuration for one Backend.

    Parameters
    ----------
    mode:
        ``"audit"``, ``"static"`` or ``"adaptive"`` (see module doc).
    r:
        Static replication factor (``static`` mode).
    r_min / r_max:
        Adaptive replication bounds; ``r_min`` applies to nodes at or
        above ``trust_threshold``, ``r_max`` to everyone else and to
        re-dispatches after a failed quorum.
    probe_rate:
        Probability that a task request is answered with a spot-check
        probe (known-answer task) instead of real work.  Drawn from the
        named stream ``certify:<backend_id>`` for ``--jobs`` parity.
    probe_ref_seconds:
        Reference compute time of a probe — cheap relative to real
        tasks so spot-checking stays low-cost.
    trust_threshold:
        Credibility at or above which a node counts as trusted.
    initial_credibility:
        Starting credibility for a never-seen node (between 0 and 1).
    penalty:
        Multiplicative credibility decay per bad outcome (lost vote or
        failed probe).
    quarantine_after:
        Number of bad outcomes after which a node is quarantined
        (blacklisted); ``0`` disables quarantine.
    """

    mode: str = "static"
    r: int = 3
    r_min: int = 1
    r_max: int = 3
    probe_rate: float = 0.0
    probe_ref_seconds: float = 1.0
    trust_threshold: float = 0.9
    initial_credibility: float = 0.5
    penalty: float = 0.25
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"certify mode must be one of {MODES}, got {self.mode!r}")
        if self.r < 1:
            raise ConfigurationError(f"r must be >= 1, got {self.r}")
        if not 1 <= self.r_min <= self.r_max:
            raise ConfigurationError(
                f"need 1 <= r_min <= r_max, got r_min={self.r_min} "
                f"r_max={self.r_max}")
        if not 0.0 <= self.probe_rate < 1.0:
            raise ConfigurationError(
                f"probe_rate must be in [0, 1), got {self.probe_rate}")
        if self.probe_ref_seconds <= 0:
            raise ConfigurationError("probe_ref_seconds must be > 0")
        if not 0.0 < self.trust_threshold <= 1.0:
            raise ConfigurationError(
                f"trust_threshold must be in (0, 1], "
                f"got {self.trust_threshold}")
        if not 0.0 <= self.initial_credibility <= 1.0:
            raise ConfigurationError(
                f"initial_credibility must be in [0, 1], "
                f"got {self.initial_credibility}")
        if not 0.0 <= self.penalty < 1.0:
            raise ConfigurationError(
                f"penalty must be in [0, 1), got {self.penalty}")
        if self.quarantine_after < 0:
            raise ConfigurationError(
                f"quarantine_after must be >= 0, "
                f"got {self.quarantine_after}")

    # -- derived -------------------------------------------------------
    def replication_for(self, credibility: float) -> int:
        """Copies to dispatch for a task first claimed at ``credibility``."""
        if self.mode == "audit":
            return 1
        if self.mode == "static":
            return self.r
        return self.r_min if credibility >= self.trust_threshold \
            else self.r_max

    @staticmethod
    def quorum(r: int) -> int:
        """Majority quorum for ``r`` copies (1 for r=1)."""
        return r // 2 + 1
