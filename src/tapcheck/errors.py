"""Exception hierarchy for ruleset loading, detection, and simulation."""


class TapcheckError(Exception):
    """Base class for every error raised by this package."""


class RulesetError(TapcheckError):
    """A ruleset document is malformed or inconsistent."""


class ParseError(RulesetError):
    """Syntax or schema problem in a configuration document.

    Carries the document position (1-based line/column) when the underlying
    YAML parser can provide one, and a dotted section path otherwise.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, path: str | None = None):
        self.line = line
        self.column = column
        self.path = path
        where = []
        if line is not None:
            where.append(f"line {line}")
        if column is not None:
            where.append(f"column {column}")
        if path:
            where.append(f"at {path}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


class ReferentialIntegrityError(RulesetError):
    """A rule or table references an id that is not declared, or a unit,
    location or action vocabulary other than its declaration's."""


class DuplicateIdError(RulesetError):
    """The same id is declared more than once."""


class InvalidConfigError(TapcheckError):
    """A config record's field holds the wrong type or breaks its rules."""


class UnknownFeatureError(TapcheckError):
    """A feature id is not a node of the dependency graph."""


class UnknownActionError(TapcheckError):
    """An action name is outside an actuator kind's vocabulary."""


class UnknownSensorKindError(TapcheckError):
    """An event's sensor is not declared in the registry, or the event names
    a kind or location other than its sensor's."""


class InvalidEventError(TapcheckError):
    """An event's tick is not an integer >= 0, its value is not finite, or
    a field of it or of its signature has the wrong type."""


class OutOfOrderTickError(TapcheckError):
    """Events were fed to the detector with a decreasing tick."""


class DuplicateEventIdError(TapcheckError):
    """Two events fed to the detector at one tick share an id."""


class DuplicateSensorReadingError(TapcheckError):
    """One sensor emitted two events fed to the detector at one tick."""


class TraceError(TapcheckError):
    """An event-trace file is malformed.

    ``line`` is the 1-based line number of the offending row.
    """

    def __init__(self, message: str, *, line: int | None = None):
        self.line = line
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{suffix}")


class UnknownScenarioError(TapcheckError):
    """A scenario id is not one of the built-in or loadable scenarios."""


class SimulationError(TapcheckError):
    """A scenario or house model cannot be executed as configured."""
