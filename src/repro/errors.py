"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subsystems raise the most specific subclass available.

Hierarchy::

    ReproError
    ├── SimulationError
    │   ├── SchedulingError
    │   └── ProcessError
    ├── NetworkError
    │   ├── LinkDownError          (also FaultError)
    │   └── SignatureError         (also FaultError)
    ├── CarouselError
    │   └── FileNotInCarouselError
    ├── DTVError
    │   ├── XletStateError
    │   └── TuningError
    ├── OddCIError
    │   ├── InstanceError
    │   ├── ProvisioningError
    │   ├── AdmissionError
    │   │   └── QuotaExceededError
    │   └── FaultError
    │       ├── BackendError
    │       ├── ControllerDownError
    │       ├── FaultPlanError
    │       └── SabotageError
    │           └── QuarantinedNodeError
    ├── WorkloadError
    ├── BaselineError
    ├── AnalysisError
    ├── ScenarioError
    └── ConfigurationError

Every exception raised on a *fault path* — a link refusing a transfer,
a control message failing signature verification, a backend scheduling
failure, a crashed controller rejecting API calls — participates in the
:class:`FaultError` branch of :class:`OddCIError`, so recovery code and
tests can catch "anything a fault plan can provoke" with one handler.
:class:`LinkDownError` and :class:`SignatureError` keep
:class:`NetworkError` as their primary base (existing ``except
NetworkError`` sites keep working) and mix :class:`FaultError` in.

The request-path errors — :class:`ProvisioningError`,
:class:`AdmissionError` and :class:`QuotaExceededError` — carry
structured context (``tenant``, ``request_id``, ``reason``) so the
service tier and its SLO accounting can classify a failure without
parsing the message string.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SimulationError(ReproError):
    """Base class for discrete-event-simulation kernel errors."""


class SchedulingError(SimulationError):
    """An event was scheduled at an invalid time (e.g. in the past)."""


class ProcessError(SimulationError):
    """A simulated process raised or was misused (e.g. bad yield value)."""


class NetworkError(ReproError):
    """Base class for the communication substrate."""


class OddCIError(ReproError):
    """Base class for the OddCI core architecture."""


class FaultError(OddCIError):
    """Common branch for every error raised on a fault path.

    Catching ``FaultError`` covers link partitions, signature
    verification failures, backend scheduling errors, crashed-component
    API misuse and malformed fault plans in one handler."""


class LinkDownError(NetworkError, FaultError):
    """A transfer was attempted on a link that is down."""


class SignatureError(NetworkError, FaultError):
    """A broadcast control message failed signature verification."""


class CarouselError(ReproError):
    """Base class for DSM-CC object-carousel errors."""


class FileNotInCarouselError(CarouselError):
    """A receiver asked for a file the carousel does not currently carry."""


class DTVError(ReproError):
    """Base class for the digital-TV substrate."""


class XletStateError(DTVError):
    """An Xlet lifecycle method was invoked from an illegal state."""


class TuningError(DTVError):
    """A receiver attempted to tune to an unknown service/channel."""


class InstanceError(OddCIError):
    """Invalid operation on an OddCI instance (unknown id, bad state...)."""


class RequestContextMixin:
    """Structured request context shared by the request-path errors.

    ``tenant`` / ``request_id`` / ``reason`` default to ``""`` so every
    existing ``raise ProvisioningError("message")`` site keeps working;
    the service tier fills them in so rejection accounting never has to
    parse the human-readable message.
    """

    def __init__(self, message: str = "", *, tenant: str = "",
                 request_id: str = "", reason: str = "") -> None:
        super().__init__(message)
        self.tenant = tenant
        self.request_id = request_id
        self.reason = reason

    def context(self) -> dict:
        """The structured fields as a plain dict (for trace events)."""
        return {"tenant": self.tenant, "request_id": self.request_id,
                "reason": self.reason}


class ProvisioningError(RequestContextMixin, OddCIError):
    """The provider could not satisfy an instance creation request."""


class AdmissionError(RequestContextMixin, OddCIError):
    """The gateway refused a service request (rate limit, queue full)."""


class QuotaExceededError(AdmissionError):
    """A tenant exceeded a configured quota (instances, node-hours)."""


class BackendError(FaultError):
    """Task scheduling / result collection failure in the backend."""


class ControllerDownError(FaultError):
    """A provider-facing Controller API was called while it is crashed."""


class FaultPlanError(FaultError):
    """Malformed fault plan, or a plan the target system cannot host."""


class SabotageError(FaultError):
    """Byzantine behaviour detected on the result path.

    Carries structured node context (``pna_id``, ``task_id``,
    ``evidence``) so certification code and traces can attribute the
    failure without parsing the message — the same pattern as
    :class:`RequestContextMixin` on the request path.
    """

    def __init__(self, message: str = "", *, pna_id: str = "",
                 task_id: "int | None" = None, evidence: int = 0) -> None:
        super().__init__(message)
        self.pna_id = pna_id
        self.task_id = task_id
        self.evidence = evidence

    def context(self) -> dict:
        """The structured fields as a plain dict (for trace events)."""
        return {"pna_id": self.pna_id, "task_id": self.task_id,
                "evidence": self.evidence}


class QuarantinedNodeError(SabotageError):
    """A quarantined (blacklisted) node attempted to interact.

    Raised by the certification layer when a blacklisted PNA polls for
    work, and by :meth:`~repro.core.controller.Controller.quarantine_node`
    on a double quarantine; recovery paths catch it to serve the node a
    terminal ``NoWork`` instead of tasks."""


class WorkloadError(ReproError):
    """Invalid workload specification (job/task construction errors)."""


class BaselineError(ReproError):
    """Errors raised by the comparison DCI models (voluntary/grid/IaaS)."""


class AnalysisError(ReproError):
    """Errors from the analytical models / statistics helpers."""


class ScenarioError(ReproError):
    """Invalid scenario definition, registration or runner usage."""


class ConfigurationError(ReproError):
    """A component received an invalid configuration value."""
