"""Files and modules carried by a DSM-CC object carousel.

The object carousel broadcasts a *file system*: named files grouped into
modules, cyclically retransmitted.  For the OddCI-DTV wakeup process the
carousel carries three files — the PNA Xlet, the application ``image``
and the ``configuration`` file (Section 4.3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CarouselError

__all__ = ["CarouselFile"]


@dataclass(frozen=True)
class CarouselFile:
    """One file in the carousel file system.

    Attributes
    ----------
    name:
        Unique path within the carousel (e.g. ``"image"``).
    size_bits:
        Payload size in bits (DSM-CC section overhead is added by the
        transport model, not here).
    version:
        Module version; bumped by carousel updates.  Receivers observe
        the version of the copy they actually read.
    metadata:
        Free-form descriptive fields (content type, application id...).
    """

    name: str
    size_bits: float
    version: int = 1
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise CarouselError("carousel file needs a non-empty name")
        if self.size_bits <= 0:
            raise CarouselError(
                f"file {self.name!r} must have positive size, "
                f"got {self.size_bits!r}")
        if self.version < 1:
            raise CarouselError(
                f"file {self.name!r} version must be >= 1, got {self.version}")
