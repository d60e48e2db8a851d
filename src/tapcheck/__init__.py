"""Conflict detection for trigger-action smart-home rulesets.

The package has five parts:

* :mod:`tapcheck.model`: domain types, the feature-dependency and
  action-relation oracles, and the event-overlap predicate.
* :mod:`tapcheck.detector` / :mod:`tapcheck.static`: online sliding-window
  evaluation of the seven safety policies, and static pairwise ruleset
  analysis that finds misconfigurations before any event fires.
* :mod:`tapcheck.oracle`: slow brute-force references the fast paths must
  match exactly.
* :mod:`tapcheck.simulator` / :mod:`tapcheck.scenarios`: a deterministic
  smart-home simulator with eight built-in experiments.
* :mod:`tapcheck.cli`: the ``tapcheck`` command.
"""

from .detector import (
    Conflict,
    ConflictKind,
    DetectionWindow,
    TriggeredAction,
    check_c7,
    detect_at_tick,
    match_rules,
)
from .errors import TapcheckError
from .model import (
    ActionRelationTable,
    ActionSpec,
    Actuator,
    Cmp,
    DetectorConfig,
    Event,
    EventSignature,
    FeatureDependencyGraph,
    Registry,
    Relation,
    Rule,
    RuleSet,
    Sensor,
    TriggerCondition,
    overlapping_events,
)
from .oracle import oracle_detect, oracle_static
from .parsing import Document, load_document, serialize_document
from .scenarios import build, builtin_scenarios, run_scenario, with_probability
from .simulator import (
    HouseModel,
    HouseParams,
    RoomState,
    Scenario,
    SourceSpec,
    TraceReport,
    humidity_step,
    luminance_of,
    thermal_step,
)
from .static import PotentialConflict, static_check

__version__ = "0.1.0"

__all__ = [
    "ActionRelationTable", "ActionSpec", "Actuator", "Cmp", "Conflict",
    "ConflictKind", "DetectionWindow", "DetectorConfig", "Document", "Event",
    "EventSignature", "FeatureDependencyGraph", "HouseModel", "HouseParams",
    "PotentialConflict", "Registry", "Relation", "RoomState", "Rule",
    "RuleSet", "Scenario", "Sensor", "SourceSpec", "TapcheckError",
    "TraceReport", "TriggerCondition", "TriggeredAction", "build",
    "builtin_scenarios", "check_c7", "detect_at_tick", "humidity_step",
    "load_document", "luminance_of", "match_rules", "oracle_detect",
    "oracle_static", "overlapping_events", "run_scenario",
    "serialize_document", "static_check", "thermal_step", "with_probability",
]
