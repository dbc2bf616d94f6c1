"""``CarouselSchedule``'s fmod wakeup against the ``%``-based one.

``_next_start`` and ``_completion_time`` below are the schedule's
earlier query methods, kept verbatim over a schedule argument: two
float ``%`` (numpy's divmod path) and fresh temporaries per step.  The
schedule now takes the phase with ``np.fmod`` and the wait with a signed
add in one buffer; every answer must match bit for bit (``float.hex``,
so a zero's sign counts) for both read policies, for scalar, 0-d and
1-d requests, with a shifted origin, at exact window starts and cycle
multiples, over request spans of several cycles, and in the error path;
through ``out=`` too, and on batches inside one cycle, where the
schedule skips the ``fmod``.  A request that is NaN or infinite is an
error, as one before the origin is.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carousel import CarouselFile, CarouselSchedule, SectionFormat
from repro.carousel.carousel import READ_POLICIES
from repro.carousel.dsmcc import DEFAULT_SECTION_FORMAT
from repro.errors import CarouselError

#: wire == payload and no control sections: the first file's window
#: starts at offset 0.0, where a request at -0.0 lands.
RAW = SectionFormat(block_payload_bytes=10**9, section_overhead_bytes=0,
                    control_overhead_bytes=0)


def _next_start(sched, name, t):
    offset, _ = sched.window(name)
    t = np.asarray(t, dtype=float)
    rel = t - sched.origin_time
    if np.any(rel < 0):
        raise CarouselError("request precedes carousel origin")
    phase = rel % sched.cycle_time
    wait = (offset - phase) % sched.cycle_time
    result = t + wait
    return float(result) if result.ndim == 0 else result


def _completion_time(sched, name, t, *, policy="wait_for_start"):
    if policy not in READ_POLICIES:
        raise CarouselError(
            f"unknown read policy {policy!r}; choose from {READ_POLICIES}")
    offset, duration = sched.window(name)
    t_arr = np.asarray(t, dtype=float)
    start = np.asarray(_next_start(sched, name, t_arr), dtype=float)
    completion = start + duration
    if policy == "resume":
        rel = (t_arr - sched.origin_time) % sched.cycle_time
        in_window = (rel > offset) & (rel < offset + duration)
        completion = np.where(in_window, t_arr + sched.cycle_time,
                              completion)
    return float(completion) if completion.ndim == 0 else completion


def _hex(value):
    if isinstance(value, float):
        return ("scalar", value.hex())
    assert isinstance(value, np.ndarray)
    return (value.shape, [float(v).hex() for v in value.ravel()])


def _requests(sched, draw):
    """Request instants: window starts, window ends and cycle multiples
    hit exactly (and one ulp either side), plus random phases over up to
    five cycles (``sample_wakeup_latencies(window_cycles > 1)``)."""
    origin, cycle = sched.origin_time, sched.cycle_time
    k = draw(st.integers(min_value=0, max_value=5))
    marks = [0.0, cycle]
    for f in sched.files:
        offset, duration = sched.window(f.name)
        marks += [offset, offset + duration]
    out = [origin + k * cycle + m for m in marks]
    out += [np.nextafter(x, np.inf) for x in out]
    out += [np.nextafter(x, -np.inf) for x in out if x > origin]
    out += [origin + k * cycle, origin]
    if origin == 0.0:
        out.append(-0.0)
    phases = draw(st.lists(st.floats(min_value=0.0, max_value=5.0),
                           max_size=20))
    out += [origin + p * cycle for p in phases]
    return [x for x in out if x >= origin]


@st.composite
def schedules(draw):
    sizes = draw(st.lists(st.floats(min_value=1.0, max_value=1e7),
                          min_size=1, max_size=4))
    beta = draw(st.floats(min_value=1.0, max_value=1e7))
    fmt = draw(st.sampled_from([RAW, DEFAULT_SECTION_FORMAT]))
    origin = draw(st.sampled_from([0.0, 0.25, 1e3])) \
        if draw(st.booleans()) else draw(st.floats(0.0, 1e6))
    files = [CarouselFile(name=f"f{i}", size_bits=s)
             for i, s in enumerate(sizes)]
    sched = CarouselSchedule(files, beta, section_format=fmt,
                             origin_time=origin)
    return sched, _requests(sched, draw)


@given(case=schedules(), which=st.integers(min_value=0, max_value=3))
@settings(max_examples=300, deadline=None)
def test_fmod_wakeup_matches_remainder_bit_for_bit(case, which):
    sched, requests = case
    name = sched.files[which % len(sched.files)].name
    as_array = np.array(requests, dtype=float)
    shapes = [as_array] + [r for x in requests for r in (x, np.array(x))]
    for t in shapes:
        _assert_matches_oracle(sched, name, t)


def _assert_matches_oracle(sched, name, t):
    """Both queries, plain and through ``out=``, equal the oracle."""
    assert _hex(sched.next_start(name, t)) == \
        _hex(_next_start(sched, name, t))
    out = np.full(np.shape(t), np.nan)
    assert sched.next_start(name, t, out=out) is out
    assert _hex(out) == _hex(np.asarray(_next_start(sched, name, t)))
    for policy in READ_POLICIES:
        want = _completion_time(sched, name, t, policy=policy)
        assert _hex(sched.completion_time(name, t, policy=policy)) \
            == _hex(want)
        out = np.full(np.shape(t), np.nan)
        assert sched.completion_time(name, t, policy=policy,
                                     out=out) is out
        assert _hex(out) == _hex(np.asarray(want))


@pytest.mark.parametrize("origin", [0.0, 0.25, 1e3])
def test_batches_inside_one_cycle_skip_fmod(origin, monkeypatch):
    """A batch inside one cycle (the first and last instant of it, -0.0
    at a zero origin, window edges) takes no ``fmod`` for a
    ``wait_for_start`` read and matches the oracle; one request at or
    past the cycle brings the ``fmod`` back."""
    sched = CarouselSchedule([CarouselFile(name="a", size_bits=100.0),
                              CarouselFile(name="b", size_bits=50.0)],
                             100.0, section_format=RAW, origin_time=origin)
    cycle = sched.cycle_time
    inside = [origin, np.nextafter(origin + cycle, 0), origin + 0.5 * cycle,
              origin + sched.window("b")[0]]
    inside += [-0.0] if origin == 0.0 else []
    calls = []

    def counting_fmod(*args, **kwargs):
        calls.append(args)
        return fmod(*args, **kwargs)

    fmod = np.fmod
    monkeypatch.setattr(np, "fmod", counting_fmod)
    for past, fmods in (([], 0), ([origin + cycle], 1),
                        ([origin + 3.5 * cycle], 1)):
        batch = np.array(inside + past)
        for name in ("a", "b"):
            calls.clear()
            sched.completion_time(name, batch)
            assert len(calls) == fmods
            for t in [batch] + [np.array(x) for x in batch]:
                _assert_matches_oracle(sched, name, t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_requests_rejected(bad):
    """NaN and ±inf requests, scalar, 0-d or inside a 1-d batch, raise
    ``CarouselError`` from both queries and both policies, with no
    numpy warning on the way."""
    sched = CarouselSchedule([CarouselFile(name="a", size_bits=300.0)],
                             100.0, section_format=RAW, origin_time=2.0)
    queries = [sched.next_start] + [
        lambda name, t, p=p: sched.completion_time(name, t, policy=p)
        for p in READ_POLICIES]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (bad, np.array(bad), np.array([3.0, bad, 5.0])):
            for query in queries:
                with pytest.raises(CarouselError, match="not finite"):
                    query("a", t)


def test_negative_zero_request_at_a_zero_offset_window():
    """A request at -0.0 on a carousel whose first window starts at 0.0:
    a signed-zero slip in the wait shows in the start's sign."""
    sched = CarouselSchedule([CarouselFile(name="a", size_bits=100.0),
                              CarouselFile(name="b", size_bits=50.0)],
                             100.0, section_format=RAW)
    assert sched.window("a")[0] == 0.0
    for t in (-0.0, np.array(-0.0), np.array([-0.0, 0.0, 1.5, 3.0])):
        assert _hex(sched.next_start("a", t)) == \
            _hex(_next_start(sched, "a", t))
    assert sched.next_start("a", -0.0).hex() == "0x0.0p+0"


@pytest.mark.parametrize("t", [4.0, np.array(4.0),
                               np.array([12.0, 9.999999])])
def test_request_before_origin_rejected_by_both(t):
    sched = CarouselSchedule([CarouselFile(name="a", size_bits=1.0)], 1.0,
                             section_format=RAW, origin_time=10.0)
    for query in (sched.next_start, lambda name, t: _next_start(
            sched, name, t)):
        with pytest.raises(CarouselError, match="precedes carousel origin"):
            query("a", t)
    for policy in READ_POLICIES:
        with pytest.raises(CarouselError, match="precedes carousel origin"):
            sched.completion_time("a", t, policy=policy)


def test_scalar_requests_return_python_floats():
    sched = CarouselSchedule([CarouselFile(name="a", size_bits=300.0)],
                             100.0, section_format=RAW, origin_time=2.0)
    for t in (3.5, np.float64(3.5), np.array(3.5)):
        assert type(sched.next_start("a", t)) is float
        for policy in READ_POLICIES:
            assert type(sched.completion_time("a", t, policy=policy)) \
                is float
