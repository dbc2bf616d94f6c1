"""Unit tests for carousel files and DSM-CC overhead."""

import pytest

from repro.carousel import DEFAULT_SECTION_FORMAT, CarouselFile, SectionFormat
from repro.errors import CarouselError
from repro.net import bits_from_bytes
from tests.carousel.updates import bumped


# -- CarouselFile --------------------------------------------------------------

def test_file_requires_name_and_positive_size():
    with pytest.raises(CarouselError):
        CarouselFile(name="", size_bits=10)
    with pytest.raises(CarouselError):
        CarouselFile(name="f", size_bits=0)
    with pytest.raises(CarouselError):
        CarouselFile(name="f", size_bits=10, version=0)


def test_file_bumped_increments_version():
    f = CarouselFile(name="image", size_bits=100.0)
    g = bumped(f)
    assert g.version == 2 and g.size_bits == 100.0 and g.name == "image"
    h = bumped(g, new_size_bits=50.0)
    assert h.version == 3 and h.size_bits == 50.0


def test_file_metadata_not_part_of_equality():
    a = CarouselFile(name="x", size_bits=1.0, metadata={"k": 1})
    b = CarouselFile(name="x", size_bits=1.0, metadata={"k": 2})
    assert a == b


# -- SectionFormat ----------------------------------------------------------------

def test_sections_for_counts_blocks():
    fmt = SectionFormat(block_payload_bytes=100, section_overhead_bytes=10)
    assert fmt.sections_for(bits_from_bytes(100)) == 1
    assert fmt.sections_for(bits_from_bytes(101)) == 2
    assert fmt.sections_for(bits_from_bytes(250)) == 3
    assert fmt.sections_for(0) == 1  # empty file still needs one section


def test_wire_bits_adds_per_section_overhead():
    fmt = SectionFormat(block_payload_bytes=100, section_overhead_bytes=10,
                        control_overhead_bytes=0)
    payload = bits_from_bytes(250)
    assert fmt.wire_bits(payload) == payload + bits_from_bytes(30)


def test_overhead_ratio_small_for_large_files():
    payload = bits_from_bytes(8 * 1024 * 1024)  # 8 MB image
    ratio = DEFAULT_SECTION_FORMAT.overhead_ratio(payload)
    assert 1.0 < ratio < 1.01  # paper's "negligible" claim holds (<1%)


def test_overhead_ratio_requires_positive_payload():
    with pytest.raises(CarouselError):
        DEFAULT_SECTION_FORMAT.overhead_ratio(0)


def test_negative_payload_rejected():
    with pytest.raises(CarouselError):
        DEFAULT_SECTION_FORMAT.sections_for(-1)


def test_invalid_format_parameters():
    with pytest.raises(CarouselError):
        SectionFormat(block_payload_bytes=0)
    with pytest.raises(CarouselError):
        SectionFormat(section_overhead_bytes=-1)
    with pytest.raises(CarouselError):
        SectionFormat(control_overhead_bytes=-1)


def test_cycle_control_bits():
    fmt = SectionFormat(control_overhead_bytes=512)
    assert fmt.cycle_control_bits() == bits_from_bytes(512)
