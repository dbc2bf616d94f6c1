"""Admission control: token bucket, FIFO queue, quotas, typed errors."""

import pytest

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    QuotaExceededError,
)
from repro.serve import GatewayConfig, ServiceGateway, TokenBucket
from repro.serve.arrivals import ServiceRequest
from repro.sim.core import Simulator


def request(i, tenant="t0", kind="create", arrival_s=0.0):
    return ServiceRequest(request_id=f"req-{i}", arrival_s=arrival_s,
                          tenant=tenant, kind=kind, target_size=4,
                          hold_s=30.0)


def gateway(sim=None, **cfg):
    sim = sim or Simulator()
    return sim, ServiceGateway(sim, GatewayConfig(**cfg))


# -- config -------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"admission_rate": -1.0},
    {"queue_cap": -1},
    {"admission_rate": 1.0, "burst": 0},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        GatewayConfig(**kwargs)


# -- token bucket -------------------------------------------------------------

def test_bucket_burst_then_lazy_refill():
    bucket = TokenBucket(rate=1.0, burst=2, now=0.0)
    assert bucket.try_take(0.0)
    assert bucket.try_take(0.0)
    assert not bucket.try_take(0.0)
    # One token accrues per second; caps at burst.
    assert bucket.try_take(1.0)
    assert not bucket.try_take(1.0)
    bucket.refill(100.0)
    assert bucket.tokens == 2.0


def test_bucket_maturity_time_is_exact():
    bucket = TokenBucket(rate=0.5, burst=1, now=0.0)
    assert bucket.try_take(0.0)
    # Head of queue: 1 token at 0.5/s from empty = 2 s out.
    assert bucket.maturity_time(0.0, 0) == pytest.approx(2.0)
    assert bucket.maturity_time(0.0, 1) == pytest.approx(4.0)
    # Tokens already available: matures now.
    bucket.refill(2.0)
    assert bucket.maturity_time(2.0, 0) == pytest.approx(2.0)


def test_bucket_tolerates_float_dust_at_maturity():
    """Regression: a drain at a token's exact maturity can observe
    ``tokens = 1 - ulp`` after lazy refill; a strict ``>= 1`` check
    then re-arms at a maturity that rounds to ``now`` — a same-instant
    reschedule loop that froze full-scale flash_crowd runs."""
    bucket = TokenBucket(rate=0.08, burst=1, now=0.0)
    bucket.tokens = 1.0 - 1e-12
    assert bucket.maturity_time(500.0, 0) == 500.0
    assert bucket.try_take(500.0)
    assert bucket.tokens >= 0.0


# -- admission ----------------------------------------------------------------

def test_no_rate_limit_dispatches_everything_synchronously():
    sim, gw = gateway()
    seen = []
    for i in range(5):
        gw.submit(request(i), seen.append)
    assert [r.request_id for r in seen] == [f"req-{i}" for i in range(5)]
    assert len(gw._queue) == 0


def test_queue_preserves_fifo_and_never_strands():
    """Regression: an arrival landing exactly when a queued request's
    token matures must not steal it (the arrival callback can run
    before the drain at the same instant).  Pre-fix this wedged the
    tier; now the head drains first and the newcomer queues behind."""
    sim, gw = gateway(admission_rate=1.0, burst=1)
    seen = []

    def arrive(i):
        gw.submit(request(i, arrival_s=sim.now),
                  lambda r: seen.append((sim.now, r.request_id)))

    # Planted up front, so the t=1.0 arrival event sits in the calendar
    # ahead of the drain the t=0.5 enqueue will schedule for t=1.0.
    sim.call_at(0.0, arrive, 0)
    sim.call_at(0.5, arrive, 1)
    sim.call_at(1.0, arrive, 2)
    sim.run(until=5.0)
    assert [rid for _t, rid in seen] == ["req-0", "req-1", "req-2"]
    times = [t for t, _rid in seen]
    assert times[0] == 0.0            # burst token
    assert times[1] == pytest.approx(1.0)
    assert times[2] == pytest.approx(2.0)
    assert len(gw._queue) == 0


def test_arrival_never_jumps_a_nonempty_queue():
    sim, gw = gateway(admission_rate=1.0, burst=1)
    seen = []
    gw.submit(request(0), seen.append)       # takes the burst token
    gw.submit(request(1), seen.append)       # queued
    # White-box: even with a token in hand, a newcomer must queue.
    gw.bucket.tokens = 1.0
    gw.submit(request(2), seen.append)
    assert [r.request_id for r in seen] == ["req-0"]
    assert len(gw._queue) == 2
    sim.run(until=5.0)
    assert [r.request_id for r in seen] == ["req-0", "req-1", "req-2"]


def test_queue_full_rejects_with_structured_context():
    sim, gw = gateway(admission_rate=1.0, burst=1, queue_cap=1)
    gw.submit(request(0), lambda r: None)
    gw.submit(request(1), lambda r: None)
    with pytest.raises(AdmissionError) as excinfo:
        gw.submit(request(2, tenant="t7"), lambda r: None)
    err = excinfo.value
    assert err.reason == "queue_full"
    assert err.tenant == "t7"
    assert err.request_id == "req-2"
    assert err.context() == {"tenant": "t7", "request_id": "req-2",
                             "reason": "queue_full"}


def test_queue_timeout_rejects_predicted_long_waits():
    sim, gw = gateway(admission_rate=0.1, burst=1, max_queue_wait_s=5.0)
    gw.submit(request(0), lambda r: None)
    # Next token matures 10 s out > 5 s bound: reject, don't enqueue.
    with pytest.raises(AdmissionError) as excinfo:
        gw.submit(request(1), lambda r: None)
    assert excinfo.value.reason == "queue_timeout"
    assert len(gw._queue) == 0


# -- quotas -------------------------------------------------------------------

def test_max_concurrent_quota_reserve_and_release():
    sim, gw = gateway(max_concurrent=2)
    gw.submit(request(0), lambda r: None)
    gw.submit(request(1), lambda r: None)
    with pytest.raises(QuotaExceededError) as excinfo:
        gw.submit(request(2), lambda r: None)
    assert excinfo.value.reason == "max_concurrent"
    assert isinstance(excinfo.value, AdmissionError)
    # Non-creates don't hold concurrency slots.
    gw.submit(request(3, kind="destroy"), lambda r: None)
    # Releasing a slot re-opens admission.
    gw.finish("t0", node_hours=0.5)
    gw.submit(request(4), lambda r: None)
    assert gw.account("t0").node_hours == pytest.approx(0.5)


def test_node_hour_budget_exhaustion():
    sim, gw = gateway(node_hour_budget=1.0)
    gw.submit(request(0), lambda r: None)
    gw.finish("t0", node_hours=1.0)
    with pytest.raises(QuotaExceededError) as excinfo:
        gw.submit(request(1), lambda r: None)
    assert excinfo.value.reason == "node_hours"


def test_quotas_are_per_tenant():
    sim, gw = gateway(max_concurrent=1)
    gw.submit(request(0, tenant="t0"), lambda r: None)
    gw.submit(request(1, tenant="t1"), lambda r: None)  # other tenant: fine
    with pytest.raises(QuotaExceededError):
        gw.submit(request(2, tenant="t0"), lambda r: None)


def test_stats_are_deterministic_and_sorted():
    sim, gw = gateway(max_concurrent=1)
    gw.submit(request(0, tenant="tb"), lambda r: None)
    gw.submit(request(1, tenant="ta"), lambda r: None)
    with pytest.raises(QuotaExceededError):
        gw.submit(request(2, tenant="tb"), lambda r: None)
    stats = gw.stats()
    assert list(stats["tenants"]) == ["ta", "tb"]
    assert stats["tenants"]["tb"] == {"admitted": 1, "rejected": 1,
                                      "node_hours": 0.0}
