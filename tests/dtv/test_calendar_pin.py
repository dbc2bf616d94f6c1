"""Calendar pin of a small OddCI-DTV deployment.

30 churning set-top boxes under the fault plan of the repository
benchmark's ``dtv_churn`` workload (controller crash, carousel
interruption, saboteurs, churn storm), with adaptive certification.
The literals below were recorded before the Xlet's config polling
moved from a generator process to carousel listener callbacks; any
change to the DTV calendar — one kernel entry more or less, a carousel
cycle, a certified task or a copy — fails here, in the tier-1 suite.
tests/dtv/test_config_listener_oracle.py runs the same deployment.
"""

from repro.certify import CertifyPolicy
from repro.core.instance import reset_instance_sequence
from repro.dtv_oddci import OddCIDTVSystem
from repro.faults import active_plan, parse_fault_plan
from repro.net.crypto import reset_key_sequence
from repro.net.message import MEGABYTE, reset_message_sequence
from repro.sim.core import Simulator
from repro.workloads import ChurnModel, uniform_bag
from repro.workloads.job import reset_job_sequence

FAULTS = ("controller_crash@3000,dur=600;"
          "carousel_interrupt@6000,mag=3,dur=300;"
          "saboteur@600,mag=0.1;"
          "churn_storm@9000,mag=0.3,dur=1200")
CERTIFY = CertifyPolicy(mode="adaptive", r_min=2, r_max=3, probe_rate=0.05,
                        trust_threshold=0.9, quarantine_after=3)
BOXES = 30


def run_pinned_deployment(sim: Simulator, *,
                          fast_forward: bool = True) -> dict:
    """Build the deployment on ``sim`` and run its window; outputs."""
    # Ids feed named RNG streams: start every id sequence afresh so the
    # run does not depend on what the process ran before.
    for reset in (reset_instance_sequence, reset_job_sequence,
                  reset_message_sequence, reset_key_sequence):
        reset()
    with active_plan(parse_fault_plan(FAULTS)):
        system = OddCIDTVSystem(sim, maintenance_interval_s=60.0,
                                carousel_fast_forward=fast_forward)
    system.add_receivers(BOXES, heartbeat_interval_s=60.0,
                         dve_poll_interval_s=15.0,
                         churn=ChurnModel(mean_on_s=3600.0, mean_off_s=900.0))
    sim.run(until=60.0)
    job = uniform_bag(12 * BOXES, image_bits=MEGABYTE, ref_seconds=20.0)
    submission = system.provider.submit_job(
        job, target_size=int(0.6 * BOXES), heartbeat_interval_s=60.0,
        lease_factor=3.0, lease_backoff_base=1.5, lease_backoff_jitter=0.2,
        certify_policy=CERTIFY)
    sim.run(until=10_800.0)
    certifier = submission.backend.certifier
    return {
        "events_executed": sim.events_executed,
        "carousel_cycles": system.control_plane.carousel.cycles_completed,
        "certified": certifier.tasks_certified,
        "copies": certifier.copies_issued,
        "quarantines": certifier.quarantines,
        "escaped": certifier.escaped_errors,
    }


def test_dtv_calendar_is_pinned(dve):
    with dve.cohort():
        outputs = run_pinned_deployment(Simulator(seed=3))
    assert outputs == {
        "events_executed": 36_951,
        "carousel_cycles": 1_042,
        "certified": 157,
        "copies": 513,
        "quarantines": 1,
        "escaped": 0,
    }
