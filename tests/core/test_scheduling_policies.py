"""The Backend dispatches its bag in submission order (FIFO)."""

from repro.core import Backend, Router
from repro.core.messages import CONTROL_PAYLOAD_BITS, TaskRequest
from repro.net import DuplexChannel
from repro.sim import Simulator
from repro.workloads import Job, Task


def first_assignment_duration(durations):
    tasks = tuple(Task(task_id=i, input_bits=0, ref_seconds=d,
                       result_bits=0)
                  for i, d in enumerate(durations))
    sim = Simulator()
    router = Router(sim)
    Backend(sim, Job(image_bits=1e6, tasks=tasks), router)  # "backend"
    inbox = []
    ch = DuplexChannel(sim, rate_bps=1e9)
    router.register_pna("p", ch, inbox.append)
    router.send_from_pna("p", "backend",
                         TaskRequest(pna_id="p", instance_id="i"),
                         CONTROL_PAYLOAD_BITS)
    sim.run()
    return inbox[-1].ref_seconds


def test_fifo_preserves_submission_order():
    assert first_assignment_duration([3.0, 9.0, 1.0]) == 3.0
