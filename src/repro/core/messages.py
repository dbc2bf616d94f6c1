"""OddCI control-protocol messages (paper Section 3.2).

Three message families flow through the system:

* **wakeup** — Controller → all PNAs via broadcast: carries the instance
  id, the application image reference, node requirements, the handling
  probability and PNA configuration (heartbeat interval, backend id).
* **reset** — Controller → PNAs via broadcast (dismantle an instance) or
  as a heartbeat reply to one PNA (trim an oversized instance).
* **heartbeat** — PNA → Controller via direct channel: the PNA's state
  and current instance membership.

Broadcast control messages are signed by the Controller; PNAs drop
messages whose signature does not verify under their associated
Controller's key.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.errors import OddCIError
from repro.net import crypto

__all__ = [
    "CONTROL_PAYLOAD_BITS",
    "PNAState",
    "WakeupPayload",
    "ResetPayload",
    "HeartbeatPayload",
    "HeartbeatReply",
    "TaskRequest",
    "TaskAssignment",
    "TaskResultPayload",
    "NoWork",
    "sign_control",
    "verify_control",
    "matches_requirements",
]

import enum

#: Wire size of small protocol payloads (requests, acks, resets): 64
#: bytes.
CONTROL_PAYLOAD_BITS = 64 * 8


class PNAState(enum.Enum):
    """Externally visible state of a processing-node agent."""

    IDLE = "idle"
    BUSY = "busy"


@dataclass(frozen=True)
class WakeupPayload:
    """Contents of a wakeup control message.

    ``probability`` gates handling by idle PNAs (paper Section 3.2):
    each idle PNA accepts the message independently with this
    probability, letting the Provider size instances without a census.
    """

    instance_id: str
    image_name: str
    image_bits: float
    probability: float
    requirements: Mapping[str, Any] = field(default_factory=dict)
    heartbeat_interval_s: float = 60.0
    backend_id: str = "backend"

    def __post_init__(self) -> None:
        if not self.instance_id:
            raise OddCIError("wakeup needs an instance_id")
        if self.image_bits <= 0:
            raise OddCIError(f"image_bits must be > 0, got {self.image_bits}")
        if not 0.0 < self.probability <= 1.0:
            raise OddCIError(
                f"probability must be in (0, 1], got {self.probability}")
        if self.heartbeat_interval_s <= 0:
            raise OddCIError("heartbeat_interval_s must be > 0")

    def signable_fields(self) -> Mapping[str, Any]:
        return {
            "type": "wakeup",
            "instance_id": self.instance_id,
            "image_name": self.image_name,
            "image_bits": self.image_bits,
            "probability": self.probability,
            "requirements": dict(self.requirements),
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "backend_id": self.backend_id,
        }


@dataclass(frozen=True)
class ResetPayload:
    """Contents of a reset control message.

    ``instance_id=None`` resets every instance (a full dismantle of the
    Controller's footprint).
    """

    instance_id: Optional[str] = None

    def signable_fields(self) -> Mapping[str, Any]:
        return {"type": "reset", "instance_id": self.instance_id or "*"}


@dataclass(frozen=True, slots=True)
class HeartbeatPayload:
    """Periodic PNA → Controller status report."""

    pna_id: str
    state: PNAState
    instance_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.pna_id:
            raise OddCIError("heartbeat needs a pna_id")
        if self.state is PNAState.BUSY and not self.instance_id:
            raise OddCIError("busy heartbeat must carry an instance_id")


@dataclass(frozen=True, slots=True)
class HeartbeatReply:
    """Controller → PNA answer to a heartbeat.

    ``reset=True`` orders the PNA to destroy its DVE and go idle — the
    mechanism for trimming an oversized instance via the direct channel.
    """

    pna_id: str
    reset: bool = False


# -- Backend task protocol --------------------------------------------------

@dataclass(frozen=True, slots=True)
class TaskRequest:
    """PNA → Backend: give me work for this instance."""

    pna_id: str
    instance_id: str


@dataclass(frozen=True, slots=True)
class TaskAssignment:
    """Backend → PNA: one task to execute (carries ``input_bits``)."""

    task_id: int
    ref_seconds: float
    input_bits: float
    result_bits: float


@dataclass(frozen=True, slots=True)
class TaskResultPayload:
    """PNA → Backend: result of a finished task (``result_bits``).

    ``digest`` summarises the result value for certification
    (DESIGN.md §15): honest nodes send the wire default ``None`` — a
    correct computation of the same task always matches — while
    adversarial profiles fabricate negative digests.  Uncertified
    Backends ignore the field entirely.
    """

    pna_id: str
    task_id: int
    digest: "int | None" = None


@dataclass(frozen=True, slots=True)
class NoWork:
    """Backend → PNA: no task available right now.

    ``retry_after_s`` asks the PNA to poll again later (tasks may be
    re-queued after lease expiry); ``None`` means the job is complete
    and the DVE should stop requesting.
    """

    instance_id: str
    retry_after_s: Optional[float] = None


# -- signatures ----------------------------------------------------------------

def sign_control(key: bytes, payload) -> bytes:
    """Sign a wakeup/reset payload with the Controller's key."""
    return crypto.sign(key, payload.signable_fields())


#: (id(payload), key, tag) -> (payload, verdict).  A broadcast delivers
#: the *same* payload object to every subscribed PNA back-to-back, so
#: the MAC over its canonical rendering need only be computed once per
#: (payload, key) — not once per listener.  The payload reference in the
#: value pins the object while the entry exists, so ``id`` reuse after
#: garbage collection can never alias a stale entry.
_verify_cache: dict = {}


def verify_control(key: bytes, payload, tag: bytes) -> bool:
    """Verify a broadcast control payload against ``tag``.

    Pure and deterministic, hence safely memoized (see ``_verify_cache``);
    with a fleet of N listeners this turns signature checking for one
    broadcast from N MAC computations into one.
    """
    cache_key = (id(payload), key, tag)
    hit = _verify_cache.get(cache_key)
    if hit is not None and hit[0] is payload:
        return hit[1]
    verdict = crypto.verify(key, payload.signable_fields(), tag)
    if len(_verify_cache) >= 8:
        _verify_cache.clear()
    _verify_cache[cache_key] = (payload, verdict)
    return verdict


def matches_requirements(requirements: Mapping[str, Any],
                         capabilities: Mapping[str, Any]) -> bool:
    """Check PNA capabilities against wakeup requirements.

    Keys starting with ``min_`` require a numeric capability of the same
    name (without the prefix) that is >= the requirement; ``max_`` keys
    require <=; all other keys require equality.  A missing capability
    fails the match.
    """
    for key, required in requirements.items():
        if key.startswith("min_") or key.startswith("max_"):
            cap_key = key[4:]
            have = capabilities.get(cap_key)
            if not isinstance(have, numbers.Real) or not isinstance(
                    required, numbers.Real):
                return False
            if key.startswith("min_") and have < required:
                return False
            if key.startswith("max_") and have > required:
                return False
        else:
            if capabilities.get(key) != required:
                return False
    return True
