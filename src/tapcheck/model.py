"""Domain model for trigger-action smart-home rulesets.

Defines the vocabulary shared by the conflict checks, the static ruleset
analyzer, and the house simulator: sensor events, trigger-action rules, the
feature-dependency graph, the action-relation table, and the detector tuning
knobs. Every type here is immutable after construction, so instances can be
shared across threads without coordination. Facts derived from a frozen
object (the trigger index, the action-class table, each feature closure,
the similar signatures, the config's pair reach and horizon) are cached on
it at first use and never change afterwards.

Time is a non-negative integer tick. Within one event stream ticks never
decrease, and a single sensor emits at most one event per tick. Each
reading meets two statements here, which the trace parser and the
detector both call: ``check_reading`` (an ``int`` tick >= 0, a finite
value) and ``Registry.reading_sensor`` (a declared sensor, named with its
own kind and location).
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Collection, Sequence

from .errors import (
    InvalidConfigError,
    InvalidEventError,
    ReferentialIntegrityError,
    UnknownActionError,
    UnknownFeatureError,
    UnknownSensorKindError,
)

Tick = int

DEFAULT_DAY_LENGTH = 864  # desk-scale day: 86,400 s compressed 100x


class Cmp(str, Enum):
    """Comparator alphabet shared by triggers and event signatures."""

    GT = ">"
    LT = "<"
    EQ = "=="

    def holds(self, value: float, threshold: float) -> bool:
        if self is Cmp.GT:
            return value > threshold
        if self is Cmp.LT:
            return value < threshold
        return value == threshold


# For each comparator, the slice [lo, hi) of ascending thresholds at which
# ``holds(value, threshold)``: a prefix for ``>``, a suffix for ``<``, the
# run of equal thresholds for ``==``; empty for NaN. Plain functions, so the
# matching loop makes no enum lookups.
def _below_value(thresholds: Sequence[float], value: float) -> tuple:
    return 0, bisect_left(thresholds, value)


def _above_value(thresholds: Sequence[float], value: float) -> tuple:
    return bisect_right(thresholds, value), len(thresholds)


def _equal_to_value(thresholds: Sequence[float], value: float) -> tuple:
    lo = bisect_left(thresholds, value)
    if lo < len(thresholds) and thresholds[lo] == value:
        return lo, bisect_right(thresholds, value)
    return lo, lo


_HOLDING_RANGE = {Cmp.GT: _below_value, Cmp.LT: _above_value,
                  Cmp.EQ: _equal_to_value}


class Relation(str, Enum):
    """How two action names on an actuator relate to each other."""

    SAME = "same"
    DIFFERENT = "different"
    OPPOSITE = "opposite"
    DEPENDENT = "dependent"


@dataclass(frozen=True)
class EventSignature:
    """The comparable identity of an event: what was sensed, how, and where.

    Two signatures are similar when they are equal or when an explicit
    equivalence class in :class:`DetectorConfig` groups them together.
    """

    sensor_kind: str
    predicate: Cmp
    location: str

    def compact(self) -> str:
        return f"{self.sensor_kind}:{self.predicate.value}:{self.location}"


@dataclass(frozen=True)
class Event:
    """A timestamped sensor reading.

    ``id`` must be unique within a stream; ``unit`` is the emitting sensor's
    declared unit.
    """

    id: str
    sensor: str
    time: Tick
    value: float
    unit: str
    signature: EventSignature


def check_reading(time: Tick, value: float) -> None:
    """Reject a reading outside the model's domain: its tick must be an
    ``int`` (not a ``bool``) >= 0, and its value a finite number."""
    try:
        finite = math.isfinite(value)
    except TypeError as exc:
        raise InvalidEventError(f"value {value!r} is not a number") from exc
    if not finite:
        raise InvalidEventError(f"value {value!r} is not finite")
    if not isinstance(time, int) or isinstance(time, bool):
        raise InvalidEventError(f"tick {time!r} is not an integer")
    if time < 0:
        raise InvalidEventError("tick must be >= 0")


@dataclass(frozen=True)
class Sensor:
    id: str
    kind: str
    unit: str
    location: str
    range: tuple[float, float] = (0.0, 100.0)
    tolerance: float = 0.0  # max value gap still treated as a repeat reading


@dataclass(frozen=True)
class Actuator:
    id: str
    kind: str
    location: str
    actions: tuple[str, ...]


@dataclass(frozen=True)
class TriggerCondition:
    """Sensor-side condition of a rule.

    ``location_filter`` restricts matching to events from one location;
    ``schedule`` is an optional daily active window [start, end) in ticks of
    day, so management rules like "only after tick 648" can be expressed.
    """

    sensor_kind: str
    comparator: Cmp
    threshold: float
    unit: str
    location_filter: str | None = None
    schedule: tuple[int, int] | None = None

    def active_at(self, time: Tick, day_length: int) -> bool:
        if self.schedule is None:
            return True
        start, end = self.schedule
        return start <= time % day_length < end

    def matches(self, event: Event, day_length: int) -> bool:
        return (
            self.sensor_kind == event.signature.sensor_kind
            and (self.location_filter is None
                 or event.signature.location == self.location_filter)
            and self.comparator.holds(event.value, self.threshold)
            and self.active_at(event.time, day_length)
        )


@dataclass(frozen=True)
class ActionSpec:
    """Actuator-side effect of a rule: which device, which command, and the
    environmental features the command touches."""

    actuator: str
    action: str
    location: str
    affected_features: frozenset[str]


@dataclass(frozen=True)
class Rule:
    id: str
    controller: str
    trigger: TriggerCondition
    action: ActionSpec


@dataclass(frozen=True)
class Registry:
    """Declared device and feature universe of one installation."""

    locations: tuple[str, ...]
    sensors: dict[str, Sensor]
    actuators: dict[str, Actuator]
    controllers: tuple[str, ...]
    features: frozenset[str]

    @cached_property
    def sensor_kinds(self) -> frozenset[str]:
        return frozenset(s.kind for s in self.sensors.values())

    @cached_property
    def kind_unit(self) -> dict[str, str]:
        return {s.kind: s.unit for s in self.sensors.values()}

    @cached_property
    def sensors_by_kind(self) -> dict[str, tuple[Sensor, ...]]:
        out: dict[str, list[Sensor]] = {}
        for sensor in self.sensors.values():
            out.setdefault(sensor.kind, []).append(sensor)
        return {k: tuple(v) for k, v in out.items()}

    def reading_sensor(self, sensor_id: str, kind: str,
                       location: str) -> Sensor:
        """The sensor of a reading that names ``sensor_id``, ``kind`` and
        ``location``, after checking that the sensor is declared, of that
        kind and at that location. An id that cannot be looked up (a list,
        say) raises ``InvalidEventError``."""
        try:
            sensor = self.sensors.get(sensor_id)
        except TypeError as exc:
            raise InvalidEventError(
                f"sensor {sensor_id!r} is not a sensor id") from exc
        if sensor is None:
            raise UnknownSensorKindError(f"undeclared sensor {sensor_id!r}")
        if kind != sensor.kind:
            raise UnknownSensorKindError(
                f"sensor {sensor_id!r} is kind {sensor.kind!r}, not {kind!r}")
        if location != sensor.location:
            raise UnknownSensorKindError(
                f"sensor {sensor_id!r} sits in {sensor.location!r}, "
                f"not {location!r}")
        return sensor

    def actuator_kind(self, actuator_id: str) -> str:
        """The kind of a declared actuator; an undeclared one raises
        ``ReferentialIntegrityError``."""
        actuator = self.actuators.get(actuator_id)
        if actuator is None:
            raise ReferentialIntegrityError(
                f"undeclared actuator {actuator_id!r}")
        return actuator.kind


@dataclass(frozen=True)
class RuleSet:
    """A validated bundle of rules plus the registry they refer to."""

    registry: Registry
    rules: tuple[Rule, ...]
    day_length: int = DEFAULT_DAY_LENGTH

    @cached_property
    def trigger_index(self) -> dict[str, tuple[tuple[
            Callable, list[float], list[int]], ...]]:
        """Triggers indexed for matching: per sensor kind, one entry per
        comparator in use, holding the function that maps a value to the
        slice of thresholds its comparator holds on, the thresholds in
        ascending order and, at the same positions, the declaration
        indexes of their rules."""
        groups: dict[str, dict[Cmp, list[tuple[float, int]]]] = {}
        for i, rule in enumerate(self.rules):
            trigger = rule.trigger
            groups.setdefault(trigger.sensor_kind, {}).setdefault(
                trigger.comparator, []).append((trigger.threshold, i))
        index = {}
        for kind, by_cmp in groups.items():
            entries = []
            for cmp, found in by_cmp.items():
                found.sort()
                entries.append((_HOLDING_RANGE[cmp], [t for t, _ in found],
                                [i for _, i in found]))
            index[kind] = tuple(entries)
        return index


@dataclass(frozen=True)
class FeatureDependencyGraph:
    """Directed "changes in x affect y" edges over environmental features.

    Reachability is transitive, and the dependency test applied by the
    policies is the symmetric closure of reachability: order does not matter
    for deciding whether two features interact. The graph owns that closure,
    ``related``, and every relatedness test reads it.
    """

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        for src, dst in self.edges:
            if src == dst:
                raise InvalidConfigError(f"self-loop on feature {src!r}")
            if src not in self.nodes or dst not in self.nodes:
                missing = src if src not in self.nodes else dst
                raise UnknownFeatureError(
                    f"dependency edge references undeclared feature {missing!r}")

    @cached_property
    def related(self) -> dict[str, frozenset[str]]:
        """Each declared feature mapped to the features equal or dependent
        to it: itself, the features it reaches and those that reach it."""
        adjacency: dict[str, list[str]] = {}
        for src, dst in self.edges:
            adjacency.setdefault(src, []).append(dst)
        near = {f: {f} for f in self.nodes}
        for start in adjacency:
            seen: set[str] = set()
            stack = [start]
            while stack:
                for node in adjacency.get(stack.pop(), ()):
                    if node not in seen:
                        seen.add(node)
                        stack.append(node)
            for node in seen:
                near[start].add(node)
                near[node].add(start)
        return {f: frozenset(fs) for f, fs in near.items()}

    def related_to(self, feature: str) -> frozenset[str]:
        """Features equal or dependent to one declared feature."""
        near = self.related.get(feature)
        if near is None:
            raise UnknownFeatureError(f"unknown feature {feature!r}")
        return near

    def related_to_any(self, features: Collection[str]) -> frozenset[str]:
        """Features equal or dependent to some feature of ``features``,
        such as an action's affected features; an undeclared feature
        raises."""
        return frozenset().union(*map(self.related_to, features))


ActionClass = tuple[str, str]  # (actuator kind, action name)
RelationKey = tuple[ActionClass, ActionClass]


@dataclass(frozen=True)
class ActionRelationTable:
    """Symmetric relation between actions, keyed by (actuator kind, name).

    ``vocabulary`` lists the action names of each actuator kind. Entries are
    stored under a sorted pair of (kind, name) tuples, so same-kind
    relations and cross-kind relations (needed when two different device
    kinds can push one feature in opposing directions, e.g. a blind and a
    lamp) live in one table without ambiguity when kinds share action names.
    An identical (kind, name) always maps to ``same``; any undeclared pair
    defaults to ``different``, which keeps lookups total over the vocabulary
    without forcing configs to spell out every combination.

    A (kind, name) pair is an action class. ``classes`` compiles the
    vocabulary and entries once into a row per class, and ``relation`` and
    ``row`` read it.
    """

    vocabulary: dict[str, frozenset[str]]
    entries: dict[RelationKey, Relation] = field(default_factory=dict)

    @staticmethod
    def key(kind1: str, n1: str, kind2: str, n2: str) -> RelationKey:
        a, b = (kind1, n1), (kind2, n2)
        return (a, b) if a <= b else (b, a)

    @cached_property
    def classes(self) -> dict[ActionClass, dict[ActionClass, Relation]]:
        """Each action class of the vocabulary mapped to the classes it has
        an entry with, and to itself as ``same``; absent classes relate as
        ``different``."""
        rows = {(kind, name): {} for kind, names in self.vocabulary.items()
                for name in names}
        for (c1, c2), relation in self.entries.items():
            if c1 in rows and c2 in rows:
                rows[c1][c2] = rows[c2][c1] = relation
        for cls, row in rows.items():
            row[cls] = Relation.SAME
        return rows

    def row(self, kind: str, name: str) -> dict[ActionClass, Relation]:
        """The row of ``classes`` for one action class; an undeclared
        action raises."""
        row = self.classes.get((kind, name))
        if row is None:
            raise UnknownActionError(
                f"action {name!r} is not in the vocabulary of "
                f"actuator kind {kind!r}")
        return row

    def relation(self, kind1: str, n1: str, kind2: str, n2: str) -> Relation:
        row = self.row(kind1, n1)
        self.row(kind2, n2)  # an undeclared action raises
        return row.get((kind2, n2), Relation.DIFFERENT)


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs and relational oracles consumed by every check.

    ``overlap_window`` bounds how far apart two similar events may be and
    still count as overlapping; ``duplicate_window`` bounds repeat readings
    from one sensor; ``same_tick_epsilon`` defines simultaneity for the
    controller and disjoint-event policies (0 means exact tick equality).
    ``similarity_classes`` optionally widens signature similarity beyond
    plain equality, e.g. to treat temperature readings from two rooms that
    share a thermostat as the same kind of event. Classes may share
    signatures, so similarity need not be transitive.
    """

    dependency_graph: FeatureDependencyGraph
    action_relations: ActionRelationTable
    overlap_window: int = 5
    duplicate_window: int = 30
    same_tick_epsilon: int = 0
    similarity_classes: tuple[frozenset[EventSignature], ...] = ()

    def __post_init__(self):
        for name in ("overlap_window", "duplicate_window",
                     "same_tick_epsilon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidConfigError(
                    f"{name} must be an integer, not {value!r}")
        if self.overlap_window < 1:
            raise InvalidConfigError("overlap_window must be >= 1")
        if self.duplicate_window < 1:
            raise InvalidConfigError("duplicate_window must be >= 1")
        if self.same_tick_epsilon < 0:
            raise InvalidConfigError("same_tick_epsilon must be >= 0")

    @cached_property
    def pair_reach(self) -> int:
        """How many ticks back a pair policy (C1 to C6) can look."""
        return max(self.same_tick_epsilon, self.overlap_window)

    @cached_property
    def horizon(self) -> int:
        """How many ticks back any check can possibly look."""
        return max(self.pair_reach, self.duplicate_window)

    @cached_property
    def similar_signatures(self) -> dict[EventSignature,
                                         frozenset[EventSignature]]:
        """Each signature of a similarity class mapped to the union of its
        classes, itself included. A signature in no class is similar only
        to itself and has no entry."""
        out: dict[EventSignature, frozenset[EventSignature]] = {}
        for group in self.similarity_classes:
            for signature in group:
                out[signature] = out.get(signature, frozenset()) | group
        return out

    def similar(self, a: EventSignature, b: EventSignature) -> bool:
        return a == b or b in self.similar_signatures.get(a, ())

    def features_related(self, fs1: Collection[str],
                         fs2: Collection[str]) -> bool:
        """Existential feature test: some feature of one action equals or
        depends on some feature of the other. An undeclared feature in
        either set raises."""
        graph = self.dependency_graph
        near = graph.related_to_any(fs1)
        graph.related_to_any(fs2)  # an undeclared feature raises
        return not near.isdisjoint(fs2)


def overlapping_events(e1: Event, e2: Event, cfg: DetectorConfig) -> bool:
    """True when two distinct events have similar signatures and fall within
    the overlap window of each other. Symmetric and irreflexive; every pair
    that is not overlapping is disjoint."""
    return (
        e1.id != e2.id
        and cfg.similar(e1.signature, e2.signature)
        and abs(e1.time - e2.time) <= cfg.overlap_window
    )
