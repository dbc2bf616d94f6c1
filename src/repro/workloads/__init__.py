"""Workloads: job model, bag-of-tasks generators, mini-BLAST, devices.

* :class:`~repro.workloads.job.Job` / ``Task`` — the paper's
  J = (I, n, T, R) tuple.
* :mod:`~repro.workloads.bot` — uniform and Φ-parameterised bags.
* :mod:`~repro.workloads.blast` — seed-and-extend local alignment with
  work-unit accounting.
* :mod:`~repro.workloads.sequences` — synthetic DNA with planted
  homologs.
* :mod:`~repro.workloads.devices` — reference PC / STB timing models.
* :mod:`~repro.workloads.traces` — ON/OFF churn models.
"""

from repro.workloads.blast import (
    REF_PC_OPS_PER_SECOND,
    BlastDatabase,
    BlastParams,
    BlastResult,
    HSP,
    search,
    smith_waterman,
)
from repro.workloads.bot import (
    bag_from_phi,
    BagSpec,
    uniform_bag,
    uniform_bag_spec,
)
from repro.workloads.devices import (
    REFERENCE_PC,
    REFERENCE_STB,
    STB_IN_USE_OVER_PC,
    STB_IN_USE_OVER_STANDBY,
    DeviceProfile,
    PowerMode,
)
from repro.workloads.job import Job, JobStats, Task
from repro.workloads.sequences import (
    DNA_ALPHABET,
    decode,
    encode,
    mutate,
    plant_homolog,
    random_database,
    random_dna,
)
from repro.workloads.traces import ChurnModel

__all__ = [
    "Job",
    "Task",
    "JobStats",
    "BagSpec",
    "uniform_bag",
    "uniform_bag_spec",
    "bag_from_phi",
    "BlastParams",
    "BlastDatabase",
    "BlastResult",
    "HSP",
    "search",
    "smith_waterman",
    "REF_PC_OPS_PER_SECOND",
    "DNA_ALPHABET",
    "encode",
    "decode",
    "random_dna",
    "mutate",
    "random_database",
    "plant_homolog",
    "DeviceProfile",
    "PowerMode",
    "REFERENCE_PC",
    "REFERENCE_STB",
    "STB_IN_USE_OVER_PC",
    "STB_IN_USE_OVER_STANDBY",
    "ChurnModel",
]
