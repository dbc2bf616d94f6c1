"""OddCI core architecture — the paper's contribution.

Components (paper Section 3): :class:`~repro.core.provider.Provider`,
:class:`~repro.core.controller.Controller`,
:class:`~repro.core.backend.Backend` and the per-node
:class:`~repro.core.pna.PNA`, whose DVE sandbox is a slot of the job's
:class:`~repro.core.taskloop.CohortTaskEngine`, exchanging wakeup /
reset / heartbeat control messages over a broadcast control plane and
direct channels.  :class:`~repro.core.system.OddCISystem` wires a complete
generic deployment.
"""

from repro.core.aggregation import (
    DigestingController,
    HeartbeatAggregator,
    HeartbeatDigest,
)
from repro.core.backend import Backend, JobReport
from repro.core.census import ColumnarCensusStore, NodeInterner
from repro.core.controller import Controller, ControlPlane, DirectControlPlane
from repro.core.instance import (
    InstanceRecord,
    InstanceSpec,
    InstanceStatus,
    new_instance_id,
)
from repro.core.messages import (
    CONTROL_PAYLOAD_BITS,
    HeartbeatPayload,
    HeartbeatReply,
    NoWork,
    PNAState,
    ResetPayload,
    TaskAssignment,
    TaskRequest,
    TaskResultPayload,
    WakeupPayload,
    matches_requirements,
    sign_control,
    verify_control,
)
from repro.core.network import Router
from repro.core.pna import PNA
from repro.core.policies import (
    DeficitProportional,
    FixedProbability,
    ProbabilityPolicy,
)
from repro.core.provider import (
    ControllerShard,
    NetworkDescriptor,
    Provider,
    Submission,
    split_target,
)
from repro.core.system import OddCISystem

__all__ = [
    "PNAState",
    "WakeupPayload",
    "ResetPayload",
    "HeartbeatPayload",
    "HeartbeatReply",
    "TaskRequest",
    "TaskAssignment",
    "TaskResultPayload",
    "NoWork",
    "sign_control",
    "verify_control",
    "matches_requirements",
    "InstanceSpec",
    "InstanceStatus",
    "InstanceRecord",
    "new_instance_id",
    "ProbabilityPolicy",
    "FixedProbability",
    "DeficitProportional",
    "Router",
    "NodeInterner",
    "ColumnarCensusStore",
    "CONTROL_PAYLOAD_BITS",
    "PNA",
    "Backend",
    "JobReport",
    "Controller",
    "ControlPlane",
    "DirectControlPlane",
    "Provider",
    "Submission",
    "OddCISystem",
    "NetworkDescriptor",
    "ControllerShard",
    "split_target",
    "HeartbeatAggregator",
    "HeartbeatDigest",
    "DigestingController",
]
