"""Exception hierarchy shared across the package."""


class CyberevoError(Exception):
    """Base class for all package errors."""


class ScenarioConfigError(CyberevoError):
    """Malformed scenario configuration or reward table."""


class SimulationFault(CyberevoError):
    """An interaction that signals a controller or harness bug.

    Raised for malformed targets, illegal action names and similar misuse.
    A failed-but-legal action never raises; it reports success FALSE instead.
    """


class GrammarParseError(CyberevoError):
    """Grammar definition text could not be parsed."""


class GrammarVariantError(CyberevoError):
    """A packaged grammar was requested for an unknown side."""


class ProgramParseError(CyberevoError):
    """Generated controller code does not conform to the grammar."""


class ControllerError(CyberevoError):
    """Controller construction or evaluation failed validation."""


class ExperimentSpecError(CyberevoError):
    """Experiment specification is inconsistent or unknown."""
