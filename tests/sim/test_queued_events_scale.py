"""``Simulator.queued_events`` must stay O(1) and exact at scale.

The counter is maintained incrementally (pushes +1, executions and
cancellations -1; lazy heap removal never touches it), so interleaving
queries with 10^5 pending entries is effectively free.  These tests pin
the exactness invariants that make that possible.
"""

import time

from repro.sim import Simulator

N = 100_000


def _noop():
    pass


def test_exact_under_1e5_pending_entries_mixed_paths():
    sim = Simulator()
    handles = []
    for i in range(N // 2):
        sim.schedule_fast(1.0 + i * 1e-6, _noop)
        handles.append(sim.schedule_at(sim.now + 2.0 + i * 1e-6, _noop))
    assert sim.queued_events == N

    # Cancellation decrements immediately even though the heap entry is
    # removed lazily.
    for h in handles[: N // 4]:
        h.cancel()
        h.cancel()  # idempotent: no double decrement
    assert sim.queued_events == N - N // 4

    sim.run(until=1.5)  # executes all fast entries
    assert sim.queued_events == N // 4
    sim.run()
    assert sim.queued_events == 0


def test_query_cost_is_independent_of_heap_size():
    sim = Simulator()
    for i in range(N):
        sim.schedule_fast(1.0 + i * 1e-6, _noop)
    # 10^5 queries against a 10^5-entry calendar: a scan-based
    # implementation would be ~10^10 operations; the counter answers
    # each in constant time.  Generous bound — this only guards against
    # an accidental return to O(heap) scanning.
    t0 = time.perf_counter()
    total = 0
    for _ in range(N):
        total += sim.queued_events
    elapsed = time.perf_counter() - t0
    assert total == N * N
    assert elapsed < 2.0
