"""Unit tests for monitors: TimeSeries, Counter."""

import pytest

from repro.errors import AnalysisError
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
    assert ts.value_at(1.0) == 20.0


def test_timeseries_value_at_step_semantics():
    ts = TimeSeries()
    ts.record(0.0, 1.0)
    ts.record(10.0, 5.0)
    assert ts.value_at(0.0) == 1.0
    assert ts.value_at(9.999) == 1.0
    assert ts.value_at(10.0) == 5.0
    assert ts.value_at(100.0) == 5.0
    with pytest.raises(AnalysisError):
        ts.value_at(-1.0)


def test_timeseries_time_average():
    ts = TimeSeries()
    ts.record(0.0, 0.0)
    ts.record(10.0, 10.0)
    # value 0 for t in [0,10), value 10 for [10,20] -> avg 5 over [0,20]
    assert ts.time_average(until=20.0) == pytest.approx(5.0)


def test_timeseries_time_average_single_point():
    ts = TimeSeries()
    ts.record(3.0, 7.0)
    assert ts.time_average(until=3.0) == 7.0


def test_timeseries_minmax_and_empty_errors():
    ts = TimeSeries()
    with pytest.raises(AnalysisError):
        ts.last()
    with pytest.raises(AnalysisError):
        ts.time_average()
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
