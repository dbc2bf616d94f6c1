"""Per-node credibility accounting.

Sarmenta's credibility-based fault tolerance keeps a per-worker score
that rises slowly with verified work and collapses quickly on any
caught error.  The ledger here follows that shape with a cheap
closed-form update:

* **good** outcome (won a vote, passed a probe):
  ``cred' = 1 - (1 - cred) / 2`` — halves the distance to 1, so trust
  is earned geometrically, never instantly;
* **bad** outcome (lost a vote, failed a probe):
  ``cred' = cred * penalty`` — multiplicative collapse, and the bad
  counter feeds the quarantine threshold;
* **timeout** (lease expired before a vote): mild decay
  ``cred' = cred * 0.9`` with *no* bad-counter bump — honest churn
  (viewer switched the set-top box off) expires leases all the time
  and must never quarantine a node.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

__all__ = ["CredibilityLedger"]

_TIMEOUT_DECAY = 0.9


class CredibilityLedger:
    """Credibility scores and bad-outcome counts, keyed by node (the
    certifier's node rows)."""

    __slots__ = ("initial", "penalty", "_cred", "_bad")

    def __init__(self, *, initial: float = 0.5,
                 penalty: float = 0.25) -> None:
        self.initial = float(initial)
        self.penalty = float(penalty)
        self._cred: Dict[Hashable, float] = {}
        self._bad: Dict[Hashable, int] = {}

    def credibility(self, node: Hashable) -> float:
        return self._cred.get(node, self.initial)

    def bad_count(self, node: Hashable) -> int:
        return self._bad.get(node, 0)

    def record_good(self, node: Hashable) -> float:
        cred = 1.0 - (1.0 - self.credibility(node)) / 2.0
        self._cred[node] = cred
        return cred

    def record_bad(self, node: Hashable) -> int:
        """Collapse credibility; returns the updated bad count."""
        self._cred[node] = self.credibility(node) * self.penalty
        bad = self._bad.get(node, 0) + 1
        self._bad[node] = bad
        return bad

    def record_timeout(self, node: Hashable) -> float:
        cred = self.credibility(node) * _TIMEOUT_DECAY
        self._cred[node] = cred
        return cred

    # -- inspection ----------------------------------------------------
    def known_nodes(self) -> List[Hashable]:
        return sorted(self._cred)

    def snapshot(self) -> List[Tuple[Hashable, float, int]]:
        """``(node, credibility, bad_count)`` rows, sorted by node."""
        return [(node, self._cred[node], self._bad.get(node, 0))
                for node in sorted(self._cred)]
