"""MTC job model — the paper's tuple J = (I, n, T, R).

A *job* is an image of ``I`` bits plus ``n`` independent tasks.  Each
task ``t`` has an input size ``t.s`` (bits fetched from the Backend), a
processing cost ``t.p`` (seconds on the reference set-top box... the
paper's reference processor; we express it in *reference-PC seconds* and
let device profiles scale it), and a result size ``r`` (bits sent back).
Parametric applications have ``t.s = 0`` — nothing to fetch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import WorkloadError
from repro.net.link import all_distinct, as_index

__all__ = ["Task", "TaskTable", "Job", "JobStats", "reset_job_sequence"]

_job_ids = itertools.count(1)


def reset_job_sequence() -> None:
    """Restart job-id numbering at 1 (per-point trace determinism)."""
    global _job_ids
    _job_ids = itertools.count(1)


def _check_task(task_id, input_bits, ref_seconds, result_bits) -> None:
    if task_id < 0:
        raise WorkloadError(f"task_id must be >= 0, got {task_id}")
    if input_bits < 0:
        raise WorkloadError(f"input_bits must be >= 0, got {input_bits}")
    if ref_seconds <= 0:
        raise WorkloadError(f"ref_seconds must be > 0, got {ref_seconds}")
    if result_bits < 0:
        raise WorkloadError(f"result_bits must be >= 0, got {result_bits}")


@dataclass(frozen=True, slots=True)
class Task:
    """One independent unit of work (one row of a :class:`TaskTable`).

    Attributes
    ----------
    task_id:
        Index within the job.
    input_bits:
        ``t.s`` — input data fetched from the Backend (0 = parametric).
    ref_seconds:
        ``t.p`` — processing time on the reference device.
    result_bits:
        ``r`` — size of the produced result.
    """

    task_id: int
    input_bits: float
    ref_seconds: float
    result_bits: float

    def __post_init__(self) -> None:
        _check_task(self.task_id, self.input_bits, self.ref_seconds,
                    self.result_bits)

    @property
    def io_bits(self) -> float:
        """Total bits crossing the direct channel: ``s + r``."""
        return self.input_bits + self.result_bits


class TaskTable(Sequence[Task]):
    """A job's tasks as columns, one row per task in submission order.

    ``input_bits``, ``ref_seconds`` and ``result_bits`` are float64
    columns; a scalar value becomes a zero-stride broadcast (O(1)
    memory).  Ids that run ``k, k + 1, ...`` in row order are kept as a
    ``range``, any others as an int64 column.  Reading a row builds its
    :class:`Task`.
    """

    __slots__ = ("_ids", "input_bits", "ref_seconds", "result_bits",
                 "_row_index")

    def __init__(self, task_id, input_bits, ref_seconds, result_bits) -> None:
        n = len(task_id)
        if not isinstance(task_id, range) or task_id.step != 1:
            task_id = np.array(task_id, dtype=np.int64)
            run = as_index(task_id)
            if type(run) is slice:
                task_id = range(run.start, run.stop)
        self._ids = task_id
        self._row_index: Optional[dict] = None
        for name, values in (("input_bits", input_bits),
                             ("ref_seconds", ref_seconds),
                             ("result_bits", result_bits)):
            column = np.array(values, dtype=np.float64)
            if column.ndim == 0:
                column = np.broadcast_to(column, (n,))
            elif column.shape != (n,):
                raise WorkloadError(f"{name}: {column.size} rows, not {n}")
            setattr(self, name, column)
        if n:  # Task's checks, on each column's lowest value
            _check_task(
                task_id.start if isinstance(task_id, range)
                else int(task_id.min()),
                *(float(np.fmin.reduce(c)) for c in (
                    self.input_bits, self.ref_seconds, self.result_bits)))

    @property
    def task_id(self) -> np.ndarray:
        """The int64 id column."""
        ids = self._ids
        return np.arange(ids.start, ids.stop) if isinstance(ids, range) \
            else ids

    def take(self, rows) -> "TaskTable":
        """The tasks at ``rows`` (a slice or an index) as a table; through
        a slice, range ids stay a range and zero-stride columns stay
        zero-stride."""
        table = TaskTable.__new__(TaskTable)
        ids = self._ids
        table._ids = ids[rows] if type(rows) is slice or not isinstance(
            ids, range) else np.asarray(rows, dtype=np.int64) + ids.start
        table._row_index = None
        for name in ("input_bits", "ref_seconds", "result_bits"):
            setattr(table, name, getattr(self, name)[rows])
        return table

    def row_of(self, task_id: int) -> Optional[int]:
        """Row holding ``task_id``, or ``None``."""
        ids = self._ids
        if isinstance(ids, range):
            return int(task_id) - ids.start \
                if ids.start <= task_id < ids.stop else None
        if self._row_index is None:
            self._row_index = {t: r for r, t in enumerate(ids.tolist())}
        return self._row_index.get(int(task_id))

    def rows_of(self, task_ids) -> Union[range, np.ndarray]:
        """Rows holding ``task_ids`` (int64, or a ``range``: a ``range``
        of rows when the table holds them in order), -1 where none does."""
        ids = self._ids
        if type(task_ids) is range:
            if type(ids) is range and ids.start <= task_ids.start \
                    and task_ids.stop <= ids.stop:
                return range(task_ids.start - ids.start,
                             task_ids.stop - ids.start)
            task_ids = np.arange(task_ids.start, task_ids.stop)
        if isinstance(ids, range):
            lo = ids.start
            return np.where((task_ids >= lo) & (task_ids < ids.stop),
                            task_ids - lo if lo else task_ids, -1)
        rows = (self.row_of(t) for t in task_ids.tolist())
        return np.fromiter((-1 if r is None else r for r in rows), np.int64,
                           len(task_ids))

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        return Task(int(self._ids[index]), float(self.input_bits[index]),
                    float(self.ref_seconds[index]),
                    float(self.result_bits[index]))


@dataclass(frozen=True)
class JobStats:
    """Aggregate task statistics used by the analytical model."""

    n: int
    mean_input_bits: float
    mean_ref_seconds: float
    mean_result_bits: float

    @property
    def mean_io_bits(self) -> float:
        return self.mean_input_bits + self.mean_result_bits


@dataclass(frozen=True)
class Job:
    """A complete MTC job: J = (I, n, T, R).

    ``requirements`` is matched against PNA capabilities during wakeup
    (paper Section 3.2: "the PNA assesses its own compliance with the
    requirements present in the message").
    """

    image_bits: float
    #: a :class:`TaskTable`; a ``Task`` sequence is converted once
    tasks: TaskTable
    job_id: int = field(default_factory=lambda: next(_job_ids))
    name: str = ""
    requirements: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.image_bits <= 0:
            raise WorkloadError(
                f"image_bits must be > 0, got {self.image_bits}")
        tasks = self.tasks
        if not isinstance(tasks, TaskTable):
            tasks = TaskTable(*(
                [getattr(t, c) for t in tasks] for c in
                ("task_id", "input_bits", "ref_seconds", "result_bits")))
            object.__setattr__(self, "tasks", tasks)
        if not len(tasks):
            raise WorkloadError("a job needs at least one task")
        ids = tasks._ids
        if not isinstance(ids, range) and not all_distinct(ids):
            raise WorkloadError(
                f"duplicate task_ids in job: {ids[:10].tolist()}...")

    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self.tasks)

    def stats(self) -> JobStats:
        """Means of s, p and r over all tasks (vectorised)."""
        tasks = self.tasks
        return JobStats(
            n=self.n,
            mean_input_bits=float(tasks.input_bits.mean()),
            mean_ref_seconds=float(tasks.ref_seconds.mean()),
            mean_result_bits=float(tasks.result_bits.mean()),
        )

    def total_ref_seconds(self) -> float:
        """Serial execution time on the reference device (summed left
        to right)."""
        return float(sum(self.tasks.ref_seconds.tolist()))
