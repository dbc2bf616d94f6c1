"""The vector tier's bytes per row, live and transient.

A population of 10^5 rows and its census keep a few bytes per row
between jobs; a job's run phase allocates a few full-cohort columns on
top of them and frees each once it has been read.  Both are pinned
with tracemalloc on the ``vector_storm`` shape: a 0.3 churn storm over
the first of two jobs, each targeting 80% of the rows.  The wakeup's
own peak, one 1-byte code column and its leaf buffers, is pinned at
10^6 nodes.
"""

import gc
import tracemalloc

import pytest

from repro.experiments.vector_scale import storm_plan
from repro.net.message import MEGABYTE
from repro.sim.rng import derive_generator
from repro.vector import VectorOddCISystem
from repro.vector.system import carousel_schedule, wakeup
from repro.workloads import uniform_bag_spec

ROWS = 100_000

#: tracemalloc bytes per row live after the system is built: 2.16
#: measured once the columns a fraction decides are held as their one
#: value (at the default fractions only busy and the census code are
#: columns, 1 byte each); 5.16 with mode, matches and a link_up column
#: at 1 byte beside them, 13.1 with an int8 census state and a float64
#: last-seen column, 29 with a float64 factor column and an int64
#: instance column as well.
BUILD_BYTES_PER_ROW = 3

#: tracemalloc peak bytes per recruited node over one job's run phase,
#: above what was live before it: 17.9-19.0 measured once the ready
#: instants are one uint8 code per node; at this scale the wakeup's two
#: 2^16-row float leaf buffers (the phases and the instants, ~13 bytes
#: per node) are most of it.  At 4x10^6 nodes ``storm_victims`` bounds
#: it at ~6 bytes per node: its mask, its sort keys and roots (12 bytes
#: per victim) and the recruit mask (24.2 MB; 50.6 MB when ``choice``
#: permuted an int64 index over the cohort).  16.4-17.4 with an
#: 8-byte ready column and one leaf buffer, 18-19 with a whole phases
#: column beside the ready column, 25-26 with the recruited rows as an
#: index column beside them, 38-40 when four 8-byte cohort columns were
#: live at once.
RUN_BYTES_PER_NODE = 19

#: Cohort of the wakeup's own peak, and that peak's bound in bytes per
#: node: the 1-byte code column plus two leaf buffers and one leaf's
#: boolean temporaries (2.18 measured; 8.59 with an 8-byte ready
#: column).
WAKEUP_COHORT = 1_000_000
WAKEUP_BYTES_PER_NODE = 3


def _job(target):
    return uniform_bag_spec(4 * target, image_bits=8 * MEGABYTE,
                            ref_seconds=30.0, input_bits=4096.0,
                            result_bits=4096.0)


@pytest.fixture(scope="module")
def measured():
    """Live bytes per row after the build and each job's run-phase peak
    bytes per recruited node."""
    # Warm-up: the first job imports modules lazily and makes numpy's
    # first-call allocations; keep them out of the measured allocations.
    # Its cohort of ~20,000 is past numpy's 10,000-row cutoff, so its
    # storm takes the same victim path as the measured jobs.
    VectorOddCISystem(25_000, seed=1, plan=storm_plan(0.3)).run_job(
        _job(20_000), target_size=20_000)
    gc.collect()
    tracemalloc.start()
    try:
        system = VectorOddCISystem(ROWS, seed=0, plan=storm_plan(0.3))
        built, _peak = tracemalloc.get_traced_memory()
        target = int(ROWS * 0.8)
        run = []
        for _ in range(2):
            tracemalloc.reset_peak()
            before, _peak = tracemalloc.get_traced_memory()
            report = system.run_job(_job(target), target_size=target)
            _now, peak = tracemalloc.get_traced_memory()
            assert report.recruited > 0.9 * target
            run.append((peak - before) / report.recruited)
    finally:
        tracemalloc.stop()
    return built / ROWS, run


def test_built_system_bytes_per_row(measured):
    per_row, _run = measured
    assert per_row < BUILD_BYTES_PER_ROW, per_row


def test_run_phase_bytes_per_recruited_node(measured):
    _per_row, run = measured
    assert max(run) < RUN_BYTES_PER_NODE, run


def test_wakeup_allocates_one_cohort_column():
    """The wakeup allocates the ready column and its leaf buffers, no
    second cohort column, and frees the buffers when it returns."""
    sched = carousel_schedule(8 * MEGABYTE, 1e6)
    draw = derive_generator(0, "vector.wakeup")
    wakeup(sched, draw, 3 * 2**16, 0.0)  # warm-up: first calls' caches
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        ready, _mean = wakeup(sched, draw, WAKEUP_COHORT, 10.0)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < ready.codes.nbytes + 4096
    assert (peak - before) / WAKEUP_COHORT < WAKEUP_BYTES_PER_NODE, peak
