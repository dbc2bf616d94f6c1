"""Property-based tests of the DES kernel's core guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, PRIORITY_LATE, PRIORITY_NORMAL, PRIORITY_URGENT


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6),
                       min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_property_execution_never_goes_back_in_time(delays):
    """Whatever the schedule, callbacks observe a non-decreasing clock."""
    sim = Simulator()
    observed = []
    for d in delays:
        sim.schedule_at(sim.now + d, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert sim.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                       min_size=1, max_size=40),
       cancel_mask=st.lists(st.booleans(), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_property_cancelled_events_never_run(delays, cancel_mask):
    sim = Simulator()
    ran = []
    handles = []
    for i, d in enumerate(delays):
        handles.append(sim.schedule_at(sim.now + d, ran.append, i))
    for i, (h, cancel) in enumerate(zip(handles, cancel_mask)):
        if cancel:
            h.cancel()
    sim.run()
    cancelled = {i for i, (h, c) in enumerate(zip(handles, cancel_mask))
                 if c}
    assert set(ran) == set(range(len(delays))) - cancelled


@given(n=st.integers(min_value=1, max_value=30),
       seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_property_identical_runs_execute_identically(n, seed):
    """Two simulators fed the same schedule replay event-for-event."""
    def build():
        sim = Simulator(seed=seed)
        log = []
        rng = sim.rng("workload")
        for i in range(n):
            sim.schedule_at(sim.now + float(rng.random() * 100),
                            lambda i=i: log.append((i, sim.now)))
        sim.run()
        return log

    assert build() == build()


@given(n_per_priority=st.integers(min_value=1, max_value=10))
@settings(max_examples=50, deadline=None)
def test_property_priorities_partition_same_time_events(n_per_priority):
    sim = Simulator()
    log = []
    for i in range(n_per_priority):
        sim.schedule_at(sim.now + 1.0, log.append, ("late", i),
                        priority=PRIORITY_LATE)
        sim.schedule_at(sim.now + 1.0, log.append, ("normal", i),
                        priority=PRIORITY_NORMAL)
        sim.schedule_at(sim.now + 1.0, log.append, ("urgent", i),
                        priority=PRIORITY_URGENT)
    sim.run()
    labels = [tag for tag, _ in log]
    # All urgents before all normals before all lates.
    assert labels == (["urgent"] * n_per_priority
                      + ["normal"] * n_per_priority
                      + ["late"] * n_per_priority)
    # And FIFO within each class.
    for cls in ("urgent", "normal", "late"):
        idxs = [i for tag, i in log if tag == cls]
        assert idxs == sorted(idxs)
