"""Exception types raised across the package."""
from __future__ import annotations


class SelfAssemblyError(Exception):
    """Base class for every error raised by this package."""


def _shown(value: object) -> str:
    """``repr(value)``, or its type's name where that recurses too deep."""
    try:
        return repr(value)
    except RecursionError:
        return f"a {type(value).__name__} nested too deep to show"


class UnknownServiceType(SelfAssemblyError):
    """A service's type does not appear in the application template."""


class MissingLinkQoS(SelfAssemblyError):
    """A required link measurement is absent from the matrix."""

    def __init__(self, from_id: str, to_id: str):
        super().__init__(f"no link measurement for ({from_id!r}, {to_id!r})")
        self.from_id = from_id
        self.to_id = to_id


class DisconnectedNode(SelfAssemblyError):
    """A subgraph node is unreachable from the designated start."""


class DuplicateId(SelfAssemblyError):
    """A live record with the same service id already exists."""


class PeerUnknown(SelfAssemblyError):
    """The referenced peer is not live in the simulated network."""


class LatencyUndefined(SelfAssemblyError):
    """A matrix latency model has no entry for the requested pair."""

    def __init__(self, from_id: str, to_id: str):
        super().__init__(f"no latency configured for ({from_id!r}, {to_id!r})")
        self.from_id = from_id
        self.to_id = to_id


class TemplateInvalid(SelfAssemblyError):
    """The application template failed validation."""

    def __init__(self, report):
        super().__init__("; ".join(report.violations) or "template invalid")
        self.report = report


class NoAssembly(SelfAssemblyError):
    """An attempt ran and found no assembly: a verdict ``run_scenario`` records.
    :class:`TemplateInvalid` is raised before any attempt, so is not one."""


class NoStartingService(NoAssembly):
    """No live service has the template's starting type."""


class InsufficientServices(NoAssembly):
    """A binder cannot reach enough targets to satisfy its constraint."""

    def __init__(self, type_name: str, needed: int, available: int):
        super().__init__(
            f"need {needed} service(s) of type {type_name!r}, only {available} available"
        )
        self.type_name = type_name
        self.needed = needed
        self.available = available


class Infeasible(NoAssembly):
    """Every combination of candidates violates some binding threshold."""

    def __init__(self, combinations_tested: int):
        super().__init__(f"no feasible combination ({combinations_tested} tested)")
        self.combinations_tested = combinations_tested


class CombinationBudgetExceeded(NoAssembly):
    """The combination search hit its configured cap before finishing."""

    def __init__(self, budget: int):
        super().__init__(f"combination budget of {budget} exceeded")
        self.budget = budget


class DomainError(SelfAssemblyError):
    """Arguments outside the mathematical domain of the operation."""


class InstanceTooLarge(SelfAssemblyError):
    """The instance exceeds the exhaustive-search size bound."""


class ScenarioFormatError(SelfAssemblyError):
    """A scenario document does not match the expected schema."""
