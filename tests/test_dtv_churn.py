"""OddCI-DTV under churn: receivers power-cycle, Xlets reload from the
carousel, the Controller recomposes — the full Section 4 stack."""

import pytest

from repro.dtv_oddci import OddCIDTVSystem
from repro.net.message import MEGABYTE, bits_from_bytes
from repro.workloads import ChurnModel, uniform_bag


def build(churn=None, n=10):
    system = OddCIDTVSystem(beta_bps=4_000_000.0, seed=23,
                            maintenance_interval_s=60.0,
                            pna_xlet_bits=bits_from_bytes(64 * 1024))
    system.add_receivers(n, heartbeat_interval_s=30.0,
                         dve_poll_interval_s=10.0, churn=churn)
    return system


def test_churned_population_fluctuates_online_count():
    churn = ChurnModel(mean_on_s=300.0, mean_off_s=300.0)
    system = build(churn=churn, n=20)
    system.sim.run(until=2000.0)
    online = system.online_count()
    # steady state ~50% powered; Xlet startup lag keeps it strictly
    # below the full population.
    assert 2 <= online <= 18


def test_job_completes_under_dtv_churn():
    churn = ChurnModel(mean_on_s=1200.0, mean_off_s=300.0,
                       initial_on_probability=1.0)
    system = build(churn=churn, n=10)
    system.sim.run(until=60.0)
    job = uniform_bag(20, image_bits=MEGABYTE, ref_seconds=1.0)
    submission = system.provider.submit_job(
        job, target_size=8, heartbeat_interval_s=30.0, lease_factor=0.5)
    report = system.provider.run_job_to_completion(submission, limit_s=1e7)
    assert report.n_tasks == 20


def test_without_churn_population_is_stable():
    system = build(churn=None, n=6)
    system.sim.run(until=1000.0)
    assert system.online_count() == 6


def test_returning_receiver_sees_current_wakeup_via_carousel():
    """A box that powers on *after* the wakeup was published still joins:
    the carousel's cyclic config file delivers the control message."""
    system = build(n=6)
    system.sim.run(until=60.0)
    from repro.workloads import PowerMode

    late = system.boxes[0]
    late.set_mode(PowerMode.OFF)
    job = uniform_bag(50_000, image_bits=MEGABYTE, ref_seconds=500.0)
    system.provider.submit_job(job, target_size=6,
                               heartbeat_interval_s=30.0)
    system.sim.run(until=200.0)
    assert system.busy_count() == 5  # one box missing
    late.set_mode(PowerMode.IN_USE)
    system.sim.run(until=500.0)
    # The late box reloads the PNA Xlet, reads the config file from the
    # carousel and joins the instance without any retransmission.
    late_pna = system.pnas[0]
    assert late_pna.online
    assert late_pna.instance_id is not None
    assert system.busy_count() == 6
