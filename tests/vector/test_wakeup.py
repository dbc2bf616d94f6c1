"""The vector wakeup, leaf by leaf, against the one-shot wakeup.

``wakeup`` draws the phases and codes the ready instants ``_CHUNK``
rows at a time and adds the leaves' sums up numpy's own pairwise tree,
so its instants (the table read through the codes) and mean must be
those of one whole-cohort draw, completion and ``.mean()``
(``_oneshot_wakeup`` below, the lines ``VectorOddCISystem.run_job`` ran
before, kept verbatim bar the stream argument) bit for bit.  ``test_leaf_sums_follow_numpy_reduction`` pins
numpy's summation order itself: a numpy whose ``add.reduce`` adds in
another order fails there, not in a moved golden.
"""

import numpy as np
import pytest

from repro.net.message import MEGABYTE
from repro.sim.rng import derive_generator
from repro.vector.population import _CHUNK
from repro.vector.system import _pairwise, carousel_schedule, wakeup

SIZES = (1, 7, 8, 127, 128, 129, _CHUNK - 1, _CHUNK, _CHUNK + 1,
         3 * _CHUNK + 5, 10**6 + 3)


def _oneshot_wakeup(sched, draw, cohort, t_start):
    phases = draw.uniform(
        0.0, sched.cycle_time, size=cohort)
    ready = sched.completion_time("image", phases)
    ready += t_start
    wakeup_mean = float(
        np.subtract(ready, phases, out=phases).mean() - t_start)
    del phases
    return ready, wakeup_mean


def _bits(column):
    return column.view(np.int64)


@pytest.mark.parametrize("size", SIZES)
def test_leaf_sums_follow_numpy_reduction(size):
    """Leaf sums added up ``_pairwise``'s tree equal ``np.add.reduce``
    and ``.mean()`` over the whole column, by ``float.hex``."""
    column = derive_generator(size, "test.pairwise").random(size)
    column = column * 1e3 + 1e-3 * np.arange(size)

    def leaf(lo, m):
        return np.add.reduce(column[lo:lo + m])

    total = _pairwise(leaf, 0, size)
    assert float(total).hex() == float(np.add.reduce(column)).hex()
    assert float(total / size).hex() == float(column.mean()).hex()


@pytest.mark.parametrize("size", SIZES)
def test_wakeup_matches_oneshot_oracle(size):
    """Ready column, mean and the stream left behind equal the one-shot
    wakeup's, for several start instants and image sizes."""
    for image_mb, beta in ((8, 1e6), (0.001, 1e6), (100, 3e5)):
        sched = carousel_schedule(image_mb * MEGABYTE, beta)
        for t_start in (0.0, 1234.5678, 1e7 + 0.1):
            draw, oracle = (derive_generator(3, "vector.wakeup")
                            for _ in range(2))
            ready, mean = wakeup(sched, draw, size, t_start)
            want, want_mean = _oneshot_wakeup(sched, oracle, size, t_start)
            assert ready.codes.dtype == np.uint8
            assert ready.codes.shape == (size,)
            assert ready.values.size == np.unique(want).size
            assert np.array_equal(_bits(ready.values[ready.codes]),
                                  _bits(want))
            assert mean.hex() == want_mean.hex()
            assert draw.random() == oracle.random()


class _SpreadSchedule:
    """A schedule whose reads complete at ``floor(phase)`` after the
    request: ``cycle_time`` distinct instants, more than a uint8 code
    tells apart."""

    cycle_time = 300.0

    def completion_time(self, name, t, out=None):
        return np.floor(t, out=out)


def test_instants_past_255_widen_the_codes():
    """A 256th distinct instant widens the code column to uint16 on the
    same path (every leaf past the first 16 values sorts the rest), and
    the table read through the codes is still the one-shot column."""
    size = 3 * _CHUNK + 11
    draw, oracle = (derive_generator(5, "vector.wakeup") for _ in range(2))
    ready, mean = wakeup(_SpreadSchedule(), draw, size, 7.0)
    want, want_mean = _oneshot_wakeup(_SpreadSchedule(), oracle, size, 7.0)
    assert ready.codes.dtype == np.uint16
    assert ready.values.size == np.unique(want).size == 300
    assert np.array_equal(_bits(ready.values[ready.codes]), _bits(want))
    assert mean.hex() == want_mean.hex()
