"""Typed messages with explicit wire sizes.

Every message that crosses a simulated channel declares its payload size
in bits so link/broadcast models can compute serialization delays.  A
small fixed header overhead models framing/addressing.

Sizes are expressed in *bits* throughout the library (the paper's β and δ
are bit rates); helpers convert from bytes.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.errors import ConfigurationError

__all__ = [
    "Message",
    "bits_from_bytes",
    "KILOBYTE",
    "MEGABYTE",
    "DEFAULT_HEADER_BITS",
    "reset_message_sequence",
]

#: Bits in a kilobyte / megabyte of payload (power-of-two convention, as
#: used by the paper's "10 Mbytes image" examples).
KILOBYTE = 1024 * 8
MEGABYTE = 1024 * 1024 * 8

#: Fixed per-message framing overhead (addressing, type tag, signature).
DEFAULT_HEADER_BITS = 64 * 8

_msg_ids = itertools.count(1)


def reset_message_sequence() -> None:
    """Restart message-id numbering at 1 (per-point trace determinism)."""
    global _msg_ids
    _msg_ids = itertools.count(1)


def bits_from_bytes(n_bytes: float) -> float:
    """Convert a size in bytes to bits."""
    if n_bytes < 0:
        raise ConfigurationError(f"negative size {n_bytes!r}")
    return float(n_bytes) * 8.0


class Message:
    """Base class for everything that traverses a simulated channel.

    A plain ``__slots__`` class rather than a dataclass: every simulated
    send allocates one, so construction is on the event tier's hot path.

    Attributes
    ----------
    sender / recipient:
        Logical component identifiers (strings); broadcast messages use
        recipient ``"*"``.
    payload_bits:
        Size of the body in bits, excluding the fixed header.
    payload:
        Arbitrary structured content (dicts, dataclasses); carried by
        reference — the simulation charges time only for ``size_bits``.
    size_bits:
        Total wire size including framing overhead (precomputed).
    """

    __slots__ = ("sender", "recipient", "payload_bits", "payload",
                 "msg_id", "created_at", "size_bits")

    def __init__(
        self,
        sender: str = "",
        recipient: str = "*",
        payload_bits: float = 0.0,
        payload: Any = None,
        msg_id: Optional[int] = None,
        created_at: Optional[float] = None,
    ) -> None:
        if payload_bits < 0:
            raise ConfigurationError(
                f"payload_bits must be >= 0, got {payload_bits!r}")
        self.sender = sender
        self.recipient = recipient
        self.payload_bits = payload_bits
        self.payload = payload
        self.msg_id = next(_msg_ids) if msg_id is None else msg_id
        self.created_at = created_at
        self.size_bits = payload_bits + DEFAULT_HEADER_BITS

    def stamped(self, now: float) -> "Message":
        """Record creation time (returns self for chaining)."""
        self.created_at = now
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Message(sender={self.sender!r}, "
                f"recipient={self.recipient!r}, "
                f"payload_bits={self.payload_bits!r}, "
                f"payload={self.payload!r}, msg_id={self.msg_id!r}, "
                f"created_at={self.created_at!r})")
