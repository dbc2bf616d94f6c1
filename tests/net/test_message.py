"""Unit tests for message types and size conversions."""

import pytest

from repro.errors import ConfigurationError
from repro.net import (
    DEFAULT_HEADER_BITS,
    KILOBYTE,
    MEGABYTE,
    Message,
    bits_from_bytes,
)


def test_bits_bytes_roundtrip():
    assert bits_from_bytes(100) == 800.0
    assert bits_from_bytes(12345) / 8 == 12345.0


def test_unit_constants():
    assert KILOBYTE == 8192
    assert MEGABYTE == 1024 * 1024 * 8


def test_negative_sizes_rejected():
    with pytest.raises(ConfigurationError):
        bits_from_bytes(-1)


def test_message_total_size_includes_header():
    msg = Message(sender="a", recipient="b", payload_bits=1000)
    assert msg.size_bits == 1000 + DEFAULT_HEADER_BITS


def test_message_ids_unique_and_increasing():
    a = Message()
    b = Message()
    assert b.msg_id > a.msg_id


def test_message_negative_payload_rejected():
    with pytest.raises(ConfigurationError):
        Message(payload_bits=-5)


def test_message_stamped():
    msg = Message().stamped(12.5)
    assert msg.created_at == 12.5


def test_message_defaults_are_broadcast():
    msg = Message(sender="ctrl")
    assert msg.recipient == "*"
    assert msg.payload is None
