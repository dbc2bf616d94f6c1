"""Unit tests for monitors: TimeSeries, Counter."""

import pytest

from repro.errors import AnalysisError
from repro.faults.availability import availability_fraction
from repro.sim import Counter, TimeSeries


# -- TimeSeries ---------------------------------------------------------------

def test_timeseries_records_and_reads_back():
    ts = TimeSeries("n")
    ts.record(0.0, 1.0)
    ts.record(2.0, 3.0)
    assert len(ts) == 2
    assert ts.times.tolist() == [0.0, 2.0]
    assert ts.values.tolist() == [1.0, 3.0]
    assert ts.last() == 3.0


def test_timeseries_rejects_non_monotone_time():
    ts = TimeSeries()
    ts.record(5.0, 1.0)
    with pytest.raises(AnalysisError):
        ts.record(4.0, 2.0)


def test_timeseries_allows_same_time_resample():
    ts = TimeSeries()
    ts.record(1.0, 10.0)
    ts.record(1.0, 20.0)
    assert ts.values.tolist() == [10.0, 20.0]
    assert ts.last() == 20.0


def test_timeseries_value_at_step_semantics():
    """The value in force at a time is the last sample at or before it,
    read as the program reads it: through the availability integral."""
    ts = TimeSeries()
    ts.record(0.0, 1.0)
    ts.record(10.0, 5.0)

    def held(start, until):  # share of [start, until] the value was 5
        return availability_fraction(ts, 5, size_tolerance=0.0,
                                     start=start, until=until)

    assert held(0.0, 9.999) == 0.0
    assert held(0.0, 20.0) == pytest.approx(0.5)
    assert held(10.0, 100.0) == 1.0
    assert held(-10.0, 10.0) == 0.0  # nothing in force before t = 0


def test_timeseries_minmax_and_empty_errors():
    ts = TimeSeries()
    with pytest.raises(AnalysisError):
        ts.last()
    with pytest.raises(AnalysisError):
        ts.max()
    ts.record(0.0, 4.0)
    ts.record(1.0, -2.0)
    assert ts.max() == 4.0
    assert ts.min() == -2.0


# -- Counter ------------------------------------------------------------------

def test_counter_incr_and_read():
    c = Counter()
    c.incr("msg")
    c.incr("msg", 4)
    assert c["msg"] == 5
    assert c["absent"] == 0
    assert c.as_dict() == {"msg": 5}


def test_counter_rejects_negative():
    c = Counter()
    with pytest.raises(AnalysisError):
        c.incr("x", -1)
