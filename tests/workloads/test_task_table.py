"""The columnar task table is bit-identical to the ``Task`` tuple form.

Every generated bag is a :class:`TaskTable`.  Each check below builds
the same bag the earlier way — one :class:`Task` per task, in a tuple —
and requires the table's ``stats()``, ``total_ref_seconds()``,
``is_parametric``, indexing and iteration to equal what the tuple form
gives, float for float (``float.hex``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.net.message import KILOBYTE
from repro.workloads import (bag_from_phi, lognormal_bag, parametric_bag,
                             uniform_bag, weibull_bag)
from repro.workloads.job import Job, Task, TaskTable


def _tuple_stats(tasks):
    """``Job.stats()`` / ``total_ref_seconds()`` / ``is_parametric`` as
    computed over a Task tuple."""
    n = len(tasks)
    s = np.fromiter((t.input_bits for t in tasks), float, n)
    p = np.fromiter((t.ref_seconds for t in tasks), float, n)
    r = np.fromiter((t.result_bits for t in tasks), float, n)
    return (float(s.mean()).hex(), float(p.mean()).hex(),
            float(r.mean()).hex(),
            float(sum(t.ref_seconds for t in tasks)).hex(),
            all(t.input_bits == 0 for t in tasks))


def _table_stats(job):
    stats = job.stats()
    return (stats.mean_input_bits.hex(), stats.mean_ref_seconds.hex(),
            stats.mean_result_bits.hex(), job.total_ref_seconds().hex(),
            job.is_parametric)


def _uniform_tuple(n, input_bits, ref_seconds, result_bits):
    return tuple(Task(task_id=i, input_bits=input_bits,
                      ref_seconds=ref_seconds, result_bits=result_bits)
                 for i in range(n))


def _drawn_tuple(n, durations, input_bits, result_bits):
    return tuple(Task(task_id=i, input_bits=input_bits,
                      ref_seconds=float(max(durations[i], 1e-9)),
                      result_bits=result_bits)
                 for i in range(n))


def _assert_same(job, tasks):
    assert _table_stats(job) == _tuple_stats(tasks)
    assert job.n == len(job.tasks) == len(tasks)
    assert list(job.tasks) == list(tasks)
    for i in (0, len(tasks) // 2, -1):
        assert job.tasks[i] == tasks[i]
    # the tuple form converts to the same columns
    converted = Job(image_bits=job.image_bits, tasks=tasks).tasks
    for column in ("task_id", "input_bits", "ref_seconds", "result_bits"):
        assert np.array_equal(getattr(converted, column),
                              getattr(job.tasks, column))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from((1, 2, 3, 7, 129, 1000, 4097)),
       ref=st.sampled_from((0.1, 1 / 3, 60.0, 5e-3, 7.123456789)),
       io=st.sampled_from((0.0, KILOBYTE / 2, 4096.0, 1 / 7)))
def test_uniform_bag_matches_task_tuple(n, ref, io):
    job = uniform_bag(n, input_bits=io, ref_seconds=ref, result_bits=io)
    _assert_same(job, _uniform_tuple(n, io, ref, io))


@pytest.mark.parametrize("n", [1, 50, 3001])
@pytest.mark.parametrize("make", ["lognormal", "weibull"])
def test_drawn_bags_match_task_tuple(make, n):
    bag, draw = {
        "lognormal": (lognormal_bag, lambda rng: rng.lognormal(
            mean=np.log(60.0) - 0.5 ** 2 / 2.0, sigma=0.5, size=n)),
        "weibull": (weibull_bag, None),
    }[make]
    job = bag(n, np.random.default_rng(5))
    if draw is None:
        from scipy.special import gamma
        rng = np.random.default_rng(5)
        durations = 60.0 / gamma(1.0 + 1.0 / 0.7) * rng.weibull(0.7, size=n)
    else:
        durations = draw(np.random.default_rng(5))
    _assert_same(job, _drawn_tuple(n, durations, KILOBYTE / 2,
                                   KILOBYTE / 2))


@pytest.mark.parametrize("n", [1, 33, 2000])
def test_parametric_and_phi_bags_match_task_tuple(n):
    job = parametric_bag(n, ref_seconds=2.5)
    assert job.is_parametric
    _assert_same(job, _uniform_tuple(n, 0.0, 2.5, KILOBYTE))
    phi = bag_from_phi(n, 0.37)
    p = 0.37 * KILOBYTE / 150_000.0
    _assert_same(phi, _uniform_tuple(n, KILOBYTE / 2.0, p, KILOBYTE / 2.0))
    assert not phi.is_parametric


def test_uniform_bag_is_constant_space():
    """Ids are a range and each value one zero-stride broadcast."""
    tasks = uniform_bag(10 ** 6).tasks
    assert isinstance(tasks._ids, range)
    for column in (tasks.input_bits, tasks.ref_seconds, tasks.result_bits):
        assert column.strides == (0,) and column.size == 10 ** 6


def test_arbitrary_ids_and_lookups():
    tasks = (Task(7, 1.0, 2.0, 3.0), Task(3, 0.0, 1.0, 0.0),
             Task(11, 5.0, 4.0, 1.0))
    job = Job(image_bits=1.0, tasks=tasks)
    table = job.tasks
    assert not isinstance(table._ids, range)
    assert list(table) == list(tasks)
    assert [table.row_of(t) for t in (3, 7, 11, 4)] == [1, 0, 2, None]
    assert table.rows_of(np.array([11, 4, 7], np.int64)).tolist() == \
        [2, -1, 0]
    assert table.task_id.tolist() == [7, 3, 11]
    # ids 0..n-1 in order convert to a range
    assert isinstance(Job(image_bits=1.0, tasks=_uniform_tuple(
        5, 1.0, 1.0, 1.0)).tasks._ids, range)


def test_duplicate_and_invalid_rows_rejected():
    t = Task(task_id=0, input_bits=0, ref_seconds=1, result_bits=0)
    with pytest.raises(WorkloadError, match="duplicate task_ids"):
        Job(image_bits=1, tasks=(t, t))
    with pytest.raises(WorkloadError, match="duplicate task_ids"):
        Job(image_bits=1, tasks=TaskTable([0, 4, 4], 0.0, 1.0, 0.0))
    with pytest.raises(WorkloadError, match="a job needs at least one"):
        Job(image_bits=1, tasks=TaskTable([], [], [], []))
    for ids, s, p, r in (([-1], 0.0, 1.0, 0.0), ([0], -1.0, 1.0, 0.0),
                         ([0], 0.0, 0.0, 0.0), ([0], 0.0, 1.0, -1.0)):
        with pytest.raises(WorkloadError, match="must be"):
            TaskTable(ids, s, p, r)
    with pytest.raises(WorkloadError, match="ref_seconds must be > 0"):
        uniform_bag(4, ref_seconds=0.0)
