"""The repository benchmark's tracer finds every name it wraps.

``oddbench/spans.py`` patches program classes and functions by name
(``Provider.submit_job``, ``OddCISystem.add_pnas``, the kernel's
scheduling calls, ...).  Installing it and putting everything back
here makes a rename or a move of any of those names fail the tier-1
suite, not only the benchmark run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from oddbench import spans  # noqa: E402
from repro.core.provider import Provider  # noqa: E402
from repro.sim.core import Simulator  # noqa: E402


def test_tracer_installs_and_restores_every_seam():
    originals = {(cls, attr): cls.__dict__[attr]
                 for cls, attr in ((Provider, "submit_job"),
                                   (Simulator, "call_at"))}
    patch = spans.install(spans.SpanLog())
    try:
        for (cls, attr), original in originals.items():
            assert cls.__dict__[attr] is not original, attr
    finally:
        patch.restore()
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original, attr
