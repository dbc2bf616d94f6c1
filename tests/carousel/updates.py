"""Test helpers: a carried carousel file's next version.

No program updates a file in place (the DTV OddCI controller queues a
new :class:`~repro.carousel.objects.CarouselFile` through
``replace_file``), so the version bump the carousel tests drive lives
here.
"""

from dataclasses import replace
from typing import Optional

from repro.carousel.carousel import ObjectCarousel
from repro.carousel.objects import CarouselFile
from repro.errors import FileNotInCarouselError


def bumped(file: CarouselFile,
           new_size_bits: Optional[float] = None) -> CarouselFile:
    """The next version of ``file`` (optionally resized)."""
    return replace(file, version=file.version + 1,
                   size_bits=file.size_bits if new_size_bits is None
                   else float(new_size_bits))


def update_file(carousel: ObjectCarousel, name: str,
                new_size_bits: Optional[float] = None) -> CarouselFile:
    """Queue the next version of ``name`` (of its pending update, if one
    is queued) for ``carousel``'s next repetition."""
    current = (carousel._pending_updates.get(name)
               or carousel._files.get(name))
    if current is None:
        raise FileNotInCarouselError(f"{name!r} not in carousel")
    updated = bumped(current, new_size_bits)
    carousel.replace_file(updated)
    return updated
