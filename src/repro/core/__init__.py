"""OddCI core architecture — the paper's contribution.

Components (paper Section 3): :class:`~repro.core.provider.Provider`,
:class:`~repro.core.controller.Controller`,
:class:`~repro.core.backend.Backend` and the per-node
:class:`~repro.core.pna.PNA` with its
:class:`~repro.core.dve.DVE` sandbox, exchanging wakeup / reset /
heartbeat control messages over a broadcast control plane and direct
channels.  :class:`~repro.core.system.OddCISystem` wires a complete
generic deployment.
"""

from repro.core.aggregation import (
    DigestingController,
    HeartbeatAggregator,
    HeartbeatDigest,
)
from repro.core.backend import Backend, JobReport
from repro.core.census import (
    CensusStore,
    ColumnarCensusStore,
    DictCensusStore,
    NodeInterner,
)
from repro.core.controller import Controller, ControlPlane, DirectControlPlane
from repro.core.dve import CONTROL_PAYLOAD_BITS, DVE
from repro.core.federation import (
    ControllerShard,
    FederatedOddCISystem,
    FederatedProvider,
    FederatedSubmission,
    NetworkDescriptor,
    split_target,
)
from repro.core.instance import (
    InstanceRecord,
    InstanceSpec,
    InstanceStatus,
    new_instance_id,
)
from repro.core.messages import (
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
from repro.core.provider import Provider, Submission
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
    "CensusStore",
    "ColumnarCensusStore",
    "DictCensusStore",
    "DVE",
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
    "FederatedSubmission",
    "FederatedProvider",
    "FederatedOddCISystem",
    "split_target",
    "HeartbeatAggregator",
    "HeartbeatDigest",
    "DigestingController",
]
