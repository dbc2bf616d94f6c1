"""Communication substrate: messages, direct channels and broadcast.

* :class:`~repro.net.message.Message` — typed payloads with wire sizes.
* :class:`~repro.net.link.Link` / ``DuplexChannel`` — the per-PNA direct
  channels of capacity δ.
* :class:`~repro.net.broadcast.BroadcastChannel` — the one-to-many medium
  of spare capacity β.
* :mod:`~repro.net.crypto` — simulated signing so PNAs only accept
  messages from their associated Controller.
"""

from repro.net.broadcast import BroadcastChannel
from repro.net.crypto import KeyRegistry, canonicalize, sign, verify
from repro.net.link import DuplexChannel, Link
from repro.net.message import (
    DEFAULT_HEADER_BITS,
    KILOBYTE,
    MEGABYTE,
    Message,
    bits_from_bytes,
)

__all__ = [
    "Message",
    "bits_from_bytes",
    "KILOBYTE",
    "MEGABYTE",
    "DEFAULT_HEADER_BITS",
    "Link",
    "DuplexChannel",
    "BroadcastChannel",
    "KeyRegistry",
    "sign",
    "verify",
    "canonicalize",
]
