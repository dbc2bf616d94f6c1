"""``storm_victims`` against ``rng.choice``: same victims, same stream.

``storm_victims`` resolves numpy's tail shuffle from its draws instead
of running it over an ``arange`` of the whole cohort.  The oracle below
is the earlier function, which called ``choice`` at every size; the
differential checks the masks and the generator's whole state (its
buffered 32-bit half included) on both sides of numpy's cutoffs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import storm_victims
from repro.faults.masks import _tail_shuffle_victims

#: tracemalloc peak bytes per cohort row of one ``storm_victims`` call
#: at fraction 0.3: the mask, the sort keys, the roots and the chunk
#: buffers, 4.8 measured at 4x10^6 rows and 5.3 at 10^6 (11.4 with
#: ``choice``'s int64 ``arange`` and its copy of the victims).
PEAK_BYTES_PER_ROW = 8


def _choice_victims(rng, size, fraction):
    if size <= 0:
        return np.zeros(0, dtype=bool)
    if fraction >= 1.0:
        return np.ones(size, dtype=bool)
    k = min(size, max(1, int(round(fraction * size))))
    mask = np.zeros(size, dtype=bool)
    mask[rng.choice(size, size=k, replace=False)] = True
    return mask


def _pair(seed, buffered):
    """Two generators in one state, a 32-bit half buffered if asked."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        for g in pair:
            g.integers(0, 2**32, dtype=np.uint32)
            assert g.bit_generator.state["has_uint32"] == 1
    return pair


def _assert_same(seed, size, fraction, buffered):
    g_old, g_new = _pair(seed, buffered)
    expected = _choice_victims(g_old, size, fraction)
    got = storm_victims(g_new, size, fraction)
    assert got.dtype == bool and got.shape == (size,)
    np.testing.assert_array_equal(got, expected)
    assert g_new.bit_generator.state == g_old.bit_generator.state


_SIZES = st.one_of(
    st.integers(0, 10_000),          # choice's Floyd branch throughout
    st.integers(10_001, 250_000))    # the tail shuffle when k > size // 50
_FRACTIONS = st.one_of(
    st.floats(0.0, 0.03),            # k either side of size // 50
    st.floats(0.5, 0.9),             # long chains of tail reads
    st.floats(0.0, 1.0),
    st.floats(0.9999, 1.5))          # k == size, and fraction >= 1


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=_SIZES, fraction=_FRACTIONS,
       buffered=st.booleans())
def test_victims_and_stream_match_choice(seed, size, fraction, buffered):
    _assert_same(seed, size, fraction, buffered)


@pytest.mark.parametrize("size, fraction", [
    (0, 0.5),
    (10_000, 0.3),                   # at numpy's size cutoff: Floyd
    (10_001, 0.3),                   # past it: the tail shuffle
    (50_000, 1_000 / 50_000),        # k == size // 50: Floyd
    (50_000, 1_001 / 50_000),        # k == size // 50 + 1
    (20_000, 0.99999),               # k == size: choice
    (20_000, 19_999 / 20_000),       # k == size - 1
    (20_000, 1.0),
    (20_000, 1.5),
    (200_000, 0.9),
    (1_000_003, 0.3),
])
@pytest.mark.parametrize("buffered", [False, True])
def test_victims_and_stream_match_choice_at_the_cutoffs(size, fraction,
                                                        buffered):
    _assert_same(11, size, fraction, buffered)


@pytest.mark.parametrize("size, k", [
    (10_001, 10_001 // 50 + 1), (10_001, 5_000), (10_001, 10_000),
    (65_537, 65_536), (70_000, 2**14), (70_000, 2**14 + 1)])
def test_tail_resolution_matches_choice_at_its_extremes(size, k):
    g_old, g_new = _pair(3, buffered=True)
    expected = np.zeros(size, dtype=bool)
    expected[g_old.choice(size, size=k, replace=False)] = True
    np.testing.assert_array_equal(_tail_shuffle_victims(g_new, size, k),
                                  expected)
    assert g_new.bit_generator.state == g_old.bit_generator.state


@pytest.mark.parametrize("size", [10**6, 4 * 10**6])
def test_storm_victims_allocate_no_cohort_index(size):
    """One call's peak holds the mask and per-victim scratch, not an
    int64 index over the cohort."""
    rng = np.random.default_rng(0)
    storm_victims(rng, 20_000, 0.3)  # warm-up: numpy's first-call caches
    tracemalloc.start()
    try:
        mask = storm_victims(rng, size, 0.3)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(mask.sum()) == round(0.3 * size)
    assert peak / size <= PEAK_BYTES_PER_ROW, peak / size


def test_high_fraction_keeps_the_tail_path_below_choice_peak():
    """At fraction 0.9 the tail resolution draws ``choice``'s victims
    from its stream and still peaks below ``choice`` (12.0 against 16.2
    B per row measured at 4x10^6 rows: ``choice`` holds an int64
    ``arange`` of the cohort and a copy of the victims), so it keeps
    the route although ``choice`` is faster there."""
    masks, peaks = [], []
    for victims in (storm_victims, _choice_victims):
        rng = np.random.default_rng(5)
        victims(rng, 20_000, 0.9)  # warm-up: numpy's first-call caches
        tracemalloc.start()
        try:
            masks.append(victims(rng, 10**6, 0.9))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    np.testing.assert_array_equal(*masks)
    assert peaks[0] < peaks[1], peaks
