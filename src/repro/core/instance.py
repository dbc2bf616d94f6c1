"""OddCI instance descriptors and lifecycle records."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.errors import InstanceError

__all__ = ["InstanceSpec", "InstanceStatus", "InstanceRecord",
           "new_instance_id", "reset_instance_sequence"]

_instance_seq = itertools.count(1)


def new_instance_id(prefix: str = "oddci") -> str:
    """Fresh unique instance identifier."""
    return f"{prefix}-{next(_instance_seq)}"


def reset_instance_sequence() -> None:
    """Restart instance-id numbering at 1.

    The runner calls this at the start of every grid point so ids in
    trace artifacts do not depend on how many points the worker process
    ran before — part of the ``--jobs`` byte-parity contract."""
    global _instance_seq
    _instance_seq = itertools.count(1)


@dataclass(frozen=True)
class InstanceSpec:
    """What the user asked the Provider for.

    Attributes
    ----------
    target_size:
        Desired number of busy PNAs (the instance size N).
    image_name / image_bits:
        The application image to stage via broadcast.
    requirements:
        Capability constraints PNAs must satisfy.
    lifetime_s:
        Optional bound after which the Provider dismantles the instance.
    size_tolerance:
        Fractional band around ``target_size`` the Controller keeps the
        instance in (e.g. 0.1 = within ±10%).
    """

    target_size: int
    image_name: str
    image_bits: float
    requirements: Mapping[str, Any] = field(default_factory=dict)
    lifetime_s: Optional[float] = None
    heartbeat_interval_s: float = 60.0
    size_tolerance: float = 0.1
    backend_id: str = "backend"

    def __post_init__(self) -> None:
        if self.target_size <= 0:
            raise InstanceError(
                f"target_size must be > 0, got {self.target_size}")
        if self.image_bits <= 0:
            raise InstanceError(f"image_bits must be > 0, got {self.image_bits}")
        if not self.image_name:
            raise InstanceError("image_name must be non-empty")
        if self.lifetime_s is not None and self.lifetime_s <= 0:
            raise InstanceError("lifetime_s must be > 0 when set")
        if self.heartbeat_interval_s <= 0:
            raise InstanceError("heartbeat_interval_s must be > 0")
        if not 0.0 <= self.size_tolerance < 1.0:
            raise InstanceError("size_tolerance must be in [0, 1)")


class InstanceStatus(enum.Enum):
    """Lifecycle phase of an OddCI instance."""
    PROVISIONING = "provisioning"   # wakeup sent, gathering PNAs
    ACTIVE = "active"               # at (or near) target size
    DEGRADED = "degraded"           # below tolerance band; recomposing
    DISMANTLING = "dismantling"     # reset issued
    DESTROYED = "destroyed"


class InstanceRecord:
    """Controller-side mutable state of one OddCI instance.

    Membership lives in a column of the census store the record is
    *bound* to (:meth:`bind_census`); the Controller binds every record
    to its shared :class:`~repro.core.census.ColumnarCensusStore`, so a
    heartbeat cohort refreshes a whole membership group as one column
    write.  The record keeps only its column's handle
    (:attr:`census_handle`): membership is read and written through
    the store's calls, e.g. ``census.members_items(record.census_handle)``.
    """

    def __init__(self, instance_id: str, spec: InstanceSpec,
                 created_at: float, *, census) -> None:
        self.instance_id = instance_id
        self.spec = spec
        self.created_at = created_at
        self.status = InstanceStatus.PROVISIONING
        self.wakeups_sent = 0
        self.resets_sent = 0
        self.trims_sent = 0
        self.bind_census(census)

    # -- census binding --------------------------------------------------
    def bind_census(self, census) -> None:
        """Attach this record's membership to ``census`` (idempotent
        for the same store)."""
        self._census = census
        self._handle = census.bind_instance(self.instance_id)

    def release_census(self) -> None:
        """Free the store column (record destroyed / dropped by restore)."""
        self._census.release_instance(self.instance_id)

    @property
    def census_handle(self) -> int:
        return self._handle

    @property
    def size(self) -> int:
        """Current membership count (from consolidated heartbeats)."""
        return self._census.member_count(self._handle)

    @property
    def deficit(self) -> int:
        """PNAs missing to reach the target (>= 0)."""
        return max(0, self.spec.target_size - self.size)

    @property
    def excess(self) -> int:
        """PNAs beyond the target (>= 0)."""
        return max(0, self.size - self.spec.target_size)

    def expire_members(self, cutoff: float) -> int:
        """Remove members whose last heartbeat predates ``cutoff``."""
        return self._census.expire_members(self._handle, cutoff)
