"""Domain model for trigger-action smart-home rulesets.

Defines the vocabulary shared by the conflict checks, the static ruleset
analyzer, and the house simulator: sensor events, trigger-action rules, the
feature-dependency graph, the action-relation table, and the detector tuning
knobs. Every type here is immutable after construction, so instances can be
shared across threads without coordination. Facts derived from a frozen
object (the trigger index, the action-class table, each feature closure,
the similar signatures, the config's pair reach and horizon) are cached on
it at first use and never change afterwards. ``value_problem`` is the one
statement of what a number, an integer and a name are: every reading,
rule, sensor, detector config, document and simulation setup meets it.
Each config record here, and each setup type of the simulator, checks its
fields from their annotations (``_check_fields``), down to each entry of a
fixed-length tuple and each choice of a ``Literal``, then adds only its
cross-field rules. One checker per annotation, ``_checker``, both tests a
value and names the path to its first fault. The records built per
reading, firing or finding share one idiom, ``Record``.

Time is a non-negative integer tick. Within one event stream ticks never
decrease, and a single sensor emits at most one event per tick. Each
reading meets two statements here: ``check_reading`` (an integer tick, a
number for its value), which an ``Event`` runs as it is built and the
trace parser before it, and ``Registry.reading_sensor`` (a declared
sensor, named with its own kind and location), which the parser and
``match_rules`` call.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass, field, fields
from enum import Enum
from functools import cache, cached_property
from operator import attrgetter
from types import UnionType
from typing import Callable, Collection, Literal, Sequence, Union
from typing import get_args, get_origin

from .errors import (
    DuplicateIdError,
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


class Record:
    """The one idiom of the hot records: slotted (this base adds
    ``__weakref__``), immutable (``FrozenInstanceError``), and equal and
    hashed by the identity fields a subclass names, ``class R(Record,
    identity=(...))``, only to a record of its class. A constructor fills
    the slots with ``_fill``, or one by one through ``setters`` (in
    ``__slots__`` order) where it is hot; a hot path fills
    ``object.__new__(R)`` through them with no Python frame. Each
    positional constructor parameter reads back as the attribute of its
    name, so ``__reduce__`` (copy, pickle) calls the constructor again. A
    dataclass record takes ``eq=False`` and keeps its own ``__init__``.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, identity: tuple[str, ...], **kwargs):
        super().__init_subclass__(**kwargs)
        cls._identity = attrgetter(*identity)
        code = cls.__init__.__code__
        cls._arguments = code.co_varnames[1:code.co_argcount]
        cls.setters = tuple(getattr(cls, name).__set__
                            for name in cls.__slots__)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity(self) == self._identity(other)

    def __hash__(self):
        return hash(self._identity(self))

    def __reduce__(self):
        return (self.__class__,
                tuple(getattr(self, name) for name in self._arguments))

    def _fill(self, *values):
        for set_slot, value in zip(self.setters, values):
            set_slot(self, value)


@dataclass(eq=False)
class EventSignature(Record,
                     identity=("sensor_kind", "predicate", "location")):
    """The comparable identity of an event: what was sensed, how, and where.

    Two signatures are similar when they are equal or when an explicit
    equivalence class in :class:`DetectorConfig` groups them together.
    Each field is checked from its annotation: a name, a :class:`Cmp`, a
    name. The hash is computed once as the signature is built, since the
    detection window keys its buckets by signature; it is no field, and
    unpickling builds it again.
    """

    __slots__ = ("sensor_kind", "predicate", "location", "_hash")

    sensor_kind: str
    predicate: Cmp
    location: str

    def __init__(self, sensor_kind: str, predicate: Cmp, location: str):
        self._fill(sensor_kind, predicate, location)
        _check_fields(self, "event signature ", InvalidEventError)
        _set_hash(self, hash((sensor_kind, predicate, location)))

    def __hash__(self):
        return self._hash

    def compact(self) -> str:
        return f"{self.sensor_kind}:{self.predicate.value}:{self.location}"


_set_hash = EventSignature.setters[-1]


@dataclass(eq=False)
class Event(Record, identity=("id", "sensor", "time", "value", "unit",
                              "signature")):
    """A timestamped sensor reading, checked as it is built: its tick and
    value (``check_reading``), its id a non-empty string with no comma or
    line break (a conflict row carries it), its sensor a string and its
    signature an :class:`EventSignature`; any other raises
    ``InvalidEventError``.

    ``id`` must be unique within a stream; ``unit`` is the emitting sensor's
    declared unit. Whether the sensor is declared, with this kind, location
    and unit, is the registry's to say (``match_rules``).
    """

    __slots__ = ("id", "sensor", "time", "value", "unit", "signature")

    id: str
    sensor: str
    time: Tick
    value: float
    unit: str
    signature: EventSignature

    def __init__(self, id: str, sensor: str, time: Tick, value: float,
                 unit: str, signature: EventSignature):
        check_reading(time, value)
        if not isinstance(id, str):
            raise InvalidEventError(f"event id {id!r} is not a string")
        if not id:
            raise InvalidEventError(
                f"event id must be {value_problem(id, str)}")
        _check_row_name(id, "event id", InvalidEventError)
        if not isinstance(sensor, str):
            raise InvalidEventError(
                f"event {id!r} sensor {sensor!r} is not a sensor id")
        if not isinstance(signature, EventSignature):
            raise InvalidEventError(
                f"event {id!r} signature {signature!r} is not an "
                "EventSignature with a Cmp predicate")
        _set_id(self, id)
        _set_sensor(self, sensor)
        _set_time(self, time)
        _set_value(self, value)
        _set_unit(self, unit)
        _set_signature(self, signature)


_set_id, _set_sensor, _set_time, _set_value, _set_unit, _set_signature = (
    Event.setters)


def value_problem(value, kind) -> str | None:
    """What ``value`` must be and is not, as a ``kind``, or None; each site
    reports it as ``<what> must be <problem>``. A ``float`` is a number: an
    ``int`` or ``float``, not a ``bool``, and finite (an ``int`` beyond the
    float range is not). An ``int`` is an integer, not a ``bool``, >= 0 as
    it counts ticks. A ``str`` is a name, non-empty. Any other kind, such
    as ``bool`` or :class:`Cmp`, takes an instance of it."""
    if kind is float:
        # A float first: every reading takes this path.
        if not isinstance(value, float) and (
                isinstance(value, bool) or not isinstance(value, int)):
            return f"a number, not {value!r}"
        try:
            return None if math.isfinite(value) else "finite"
        except OverflowError:  # an int beyond the float range
            return "finite"
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            return f"an integer >= 0, not {value!r}"
        return None if value >= 0 else ">= 0"
    if kind is str:
        return None if isinstance(value, str) and value else (
            f"a non-empty string, not {value!r}")
    if kind is bool:
        return None if isinstance(value, bool) else (
            f"true or false, not {value!r}")
    return None if isinstance(value, kind) else (
        f"a {kind.__name__}, not {value!r}")


def check_reading(time: Tick, value: float) -> None:
    """Reject a reading whose value is not a number or tick an integer. A
    finite ``float`` value and an ``int`` tick >= 0, what every stream
    carries, pass without asking ``value_problem``."""
    if type(value) is not float or not math.isfinite(value):
        problem = value_problem(value, float)
        if problem:
            raise InvalidEventError(f"value must be {problem}")
    if type(time) is not int or time < 0:
        problem = value_problem(time, int)
        if problem:
            raise InvalidEventError(f"tick must be {problem}")


# What a problem calls one entry of a scalar kind; entries add an "s".
_NAMES = {float: "number", int: "integer", str: "name", bool: "boolean"}


def _kind_name(kind, entries: bool = False) -> str:
    """An annotation as a problem names it: a class by its name, plural as
    ``entries``, a ``Literal`` by its choices, a fixed-length tuple as a
    pair (or n-tuple) of what it holds, and a container by its class and
    what it holds."""
    origin, args = get_origin(kind), get_args(kind)
    s = "s" if entries else ""
    if origin is None:
        return _NAMES[kind] + s if kind in _NAMES else kind.__name__
    if origin is Literal:
        return f"one of {args!r}"
    if origin is tuple and args[-1] is not ...:
        noun = ("pair" if len(args) == 2 else f"{len(args)}-tuple") + s
        if len(set(args)) == 1:
            return f"{noun} of {_kind_name(args[0], True)}"
        return f"({', '.join(map(_kind_name, args))}) {noun}"
    name = f"{origin.__name__}{s} of {_kind_name(args[0], True)}"
    return f"{name} to {_kind_name(args[1], True)}" if origin is dict else name


@cache
def _checker(kind) -> Callable[[object], tuple[str, str] | None]:
    """The one test of the annotation ``kind``: None when a value holds
    it, or else the path to where the value first fails it and what the
    value there must be. A class holds as :func:`value_problem` has it, a
    ``Literal`` by its choices, a fixed-length tuple by its length and then
    each entry by the kind at its position, and a ``tuple[X, ...]``,
    ``frozenset[X]`` or ``dict[K, V]`` entry by entry. The path is ``[i]``
    for a tuple's entry, `` entry e`` for a frozenset's first in
    ``sorted(key=str)`` order, so the hash seed does not choose it, and
    `` key k`` or ``[k]`` for a dict's, each key before its value. A value
    that holds builds no path text."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is None:
        return lambda value: (problem := value_problem(value, kind)) and (
            "", problem)
    if origin is Literal:
        return lambda value: None if value in args else (
            "", f"{_kind_name(kind)}, not {value!r}")
    fixed = origin is tuple and args[-1] is not ...
    tests = tuple(_checker(arg) for arg in args if arg is not ...)

    def entries(value):
        """(test, entry, path format, its argument) of each entry, in the
        order a fault is sought."""
        if origin is dict:
            for k, v in value.items():
                yield tests[0], k, " key {!r}", k
                yield tests[1], v, "[{!r}]", k
        elif origin is tuple:
            for i, v in enumerate(value):
                yield tests[i if fixed else 0], v, "[{}]", i
        else:
            for v in value:
                yield tests[0], v, " entry {!r}", v

    def check(value):
        if not isinstance(value, origin) or fixed and len(value) != len(args):
            return "", f"a {_kind_name(kind)}, not {value!r}"
        for test, entry, where, key in entries(value):
            fault = test(entry)
            if fault:
                if origin is frozenset:
                    key = entry = min(filter(test, value), key=str)
                    fault = test(entry)
                return where.format(key) + fault[0], fault[1]
        return None
    return check


@cache
def _annotated_fields(cls) -> tuple[tuple, ...]:
    """(name, its kind's checker, may be None, may be empty) of each field
    of ``cls`` of one kind, or one ``| None`` (a ``typing.Union`` after a
    ``Literal``); a text field may be empty when its default is. A record
    checks a field of two kinds itself."""
    out = []
    for f in fields(cls):
        kinds = set(get_args(f.type) if get_origin(f.type) in (
            Union, UnionType) else (f.type,))
        optional = type(None) in kinds
        kinds.discard(type(None))
        if len(kinds) == 1:
            (kind,) = kinds
            out.append((f.name, _checker(kind), optional, f.default == ""))
    return tuple(out)


def _check_fields(record, prefix: str, error: type) -> None:
    """Check each field of ``record`` against its annotation, in field
    order; a failure raises ``error``: ``<prefix><field><path> must be
    ...``, with the path ``_checker`` gives to the first offending entry."""
    for name, check, optional, blank in _annotated_fields(type(record)):
        value = getattr(record, name)
        if (value is None and optional) or (blank and isinstance(value, str)):
            continue
        fault = check(value)
        if fault:
            raise error(f"{prefix}{name}{fault[0]} must be {fault[1]}")


# A comma, or any line boundary ``str.splitlines`` breaks at, would split
# the CSV row of a trace, event log or conflict log that carries a name.
_ROW_BREAKS = frozenset(",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _check_row_name(name: str, what: str,
                    error: type = InvalidConfigError) -> None:
    """Reject a name that a CSV row carries if it holds a comma or a line
    break, with ``error``."""
    if not _ROW_BREAKS.isdisjoint(name):
        raise error(f"{what} {name!r} must hold no comma or line break")


@dataclass(frozen=True)
class Sensor:
    """A declared sensor: its range a pair of numbers, low < high."""

    id: str
    kind: str
    unit: str
    location: str
    range: tuple[float, float] = (0.0, 100.0)
    tolerance: float = 0.0  # max value gap still treated as a repeat reading

    def __post_init__(self):
        what = f"sensor {self.id!r}"
        _check_fields(self, f"{what} ", InvalidConfigError)
        # A negative tolerance holds no value gap, so C7 could never fire
        # for this sensor.
        if self.tolerance < 0:
            raise InvalidConfigError(f"{what} tolerance must be >= 0")
        if not self.range[0] < self.range[1]:
            raise InvalidConfigError(
                f"{what} range must be two finite numbers with low < high, "
                f"not {self.range!r}")


@dataclass(frozen=True)
class Actuator:
    """A declared actuator, with at least one action, no action twice and
    no comma or line break in an action, as conflict notes carry them."""

    id: str
    kind: str
    location: str
    actions: tuple[str, ...]

    def __post_init__(self):
        what = f"actuator {self.id!r}"
        _check_fields(self, f"{what} ", InvalidConfigError)
        if not self.actions:
            raise InvalidConfigError(
                f"{what} actions must hold at least one action")
        if len(set(self.actions)) != len(self.actions):
            raise DuplicateIdError(f"duplicate action name on {what}")
        for action in self.actions:
            _check_row_name(action, f"{what} action")


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
    """Declared device and feature universe of one installation: distinct
    locations and controllers, each sensor and actuator keyed by its id.
    Every sensor and actuator sits in a declared location, the sensors of
    one kind read in one unit, and the actuators of one kind share one
    vocabulary; any other registry raises ``ReferentialIntegrityError``.
    The names a CSV row carries (locations, controllers, sensor and
    actuator ids, sensor kinds, and each actuator's actions, which the
    ``Actuator`` checks) hold no comma or line break
    (``InvalidConfigError``)."""

    locations: tuple[str, ...]
    sensors: dict[str, Sensor]
    actuators: dict[str, Actuator]
    controllers: tuple[str, ...]
    features: frozenset[str]

    def __post_init__(self):
        _check_fields(self, "registry ", InvalidConfigError)
        for what, names in (("location", self.locations),
                            ("controller", self.controllers)):
            if len(set(names)) != len(names):
                twice = next(n for i, n in enumerate(names) if n in names[:i])
                raise DuplicateIdError(f"duplicate {what} {twice!r}")
            for name in names:
                _check_row_name(name, what)
        locations = set(self.locations)
        for what, records in (("sensor", self.sensors),
                              ("actuator", self.actuators)):
            for key, record in records.items():
                if key != record.id:
                    raise InvalidConfigError(
                        f"registry {what}s key {key!r} holds {what} "
                        f"{record.id!r}")
                _check_row_name(record.id, what)
                if record.location not in locations:
                    raise ReferentialIntegrityError(
                        f"{what} {record.id!r} placed in undeclared location "
                        f"{record.location!r}")
        units: dict[str, str] = {}
        for sensor in self.sensors.values():
            _check_row_name(sensor.kind, "sensor kind")
            unit = units.setdefault(sensor.kind, sensor.unit)
            if unit != sensor.unit:
                raise ReferentialIntegrityError(
                    f"sensor kind {sensor.kind!r} declared with conflicting "
                    f"units {unit!r} and {sensor.unit!r}")
        vocabularies: dict[str, frozenset[str]] = {}
        for actuator in self.actuators.values():
            actions = frozenset(actuator.actions)
            if vocabularies.setdefault(actuator.kind, actions) != actions:
                raise ReferentialIntegrityError(
                    f"actuator kind {actuator.kind!r} declared with "
                    "differing action vocabularies")

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
        kind and at that location."""
        sensor = self.sensors.get(sensor_id)
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


# What ``RuleSet`` judges by ``value_problem``, each record before its
# fields; the unit, location filter and action location equal declared names.
_RULE_FIELDS = tuple((name, attrgetter(name), kind) for name, kind in (
    ("id", str), ("controller", str), ("trigger", TriggerCondition),
    ("action", ActionSpec), ("trigger.sensor_kind", str),
    ("trigger.comparator", Cmp), ("trigger.threshold", float),
    ("action.actuator", str), ("action.action", str),
    ("action.affected_features", frozenset)))


@dataclass(frozen=True)
class RuleSet:
    """A validated bundle of rules plus the registry they refer to.

    Its registry is a :class:`Registry` and its rules a tuple of
    :class:`Rule`. Each field of a rule holds its type before anything
    hashes it: names are non-empty strings, the comparator a :class:`Cmp`,
    the affected features a frozenset, and the threshold a finite number,
    so each comparator holds on a slice of the sorted thresholds; any other
    raises ``InvalidConfigError`` naming the rule and the field. Rule ids
    are unique and hold no comma or line break, as CSV rows carry them.
    Every rule affects at least one feature. ``day_length`` is an integer
    >= 2, and a schedule a tuple of two integers with 0 <= start < end <=
    ``day_length``, so every scheduled rule is active at some tick of day.
    Every name a rule gives is the registry's: its controller, sensor kind
    and the kind's unit, location filter, actuator with one of its actions
    and its location, and affected features; any other raises
    ``ReferentialIntegrityError``.
    """

    registry: Registry
    rules: tuple[Rule, ...]
    day_length: int = DEFAULT_DAY_LENGTH

    def __post_init__(self):
        day = self.day_length
        if value_problem(day, int) or day < 2:
            raise InvalidConfigError(
                f"day_length must be an integer >= 2, not {day!r}")
        _check_fields(self, "ruleset ", InvalidConfigError)
        registry = self.registry
        controllers = set(registry.controllers)
        kind_unit = registry.kind_unit
        seen: set[str] = set()
        for rule in self.rules:
            rid, trigger, action = rule.id, rule.trigger, rule.action
            for what, get, kind in _RULE_FIELDS:
                problem = value_problem(get(rule), kind)
                if problem:
                    raise InvalidConfigError(
                        f"rule {rid!r} {what} must be {problem}")
            if rid in seen:
                raise DuplicateIdError(f"duplicate rule id {rid!r}")
            seen.add(rid)
            _check_row_name(rid, "rule")
            if not action.affected_features:
                raise InvalidConfigError(
                    f"rule {rid!r} action.affected_features must be "
                    "non-empty")
            if rule.controller not in controllers:
                raise ReferentialIntegrityError(
                    f"rule {rid!r} references undeclared controller "
                    f"{rule.controller!r}")
            kind = trigger.sensor_kind
            if kind not in kind_unit:
                raise ReferentialIntegrityError(
                    f"rule {rid!r} triggers on undeclared sensor kind "
                    f"{kind!r}")
            if trigger.unit != kind_unit[kind]:
                raise ReferentialIntegrityError(
                    f"rule {rid!r} threshold unit {trigger.unit!r} does not "
                    f"match sensor kind {kind!r} unit {kind_unit[kind]!r}")
            if (trigger.location_filter is not None
                    and trigger.location_filter not in registry.locations):
                raise ReferentialIntegrityError(
                    f"rule {rid!r} filters on undeclared location "
                    f"{trigger.location_filter!r}")
            schedule = trigger.schedule
            if schedule is not None and (
                    _checker(tuple[int, int])(schedule)
                    or not schedule[0] < schedule[1] <= day):
                raise InvalidConfigError(
                    f"rule {rid!r} schedule must be a pair of integers "
                    f"with 0 <= start < end <= {day}, "
                    f"not {schedule!r}")
            actuator = registry.actuators.get(action.actuator)
            if actuator is None:
                raise ReferentialIntegrityError(
                    f"rule {rid!r} references undeclared actuator "
                    f"{action.actuator!r}")
            if action.action not in actuator.actions:
                raise ReferentialIntegrityError(
                    f"rule {rid!r} uses action {action.action!r} not "
                    f"declared for actuator {actuator.id!r}")
            if action.location != actuator.location:
                raise ReferentialIntegrityError(
                    f"rule {rid!r} action location {action.location!r} does "
                    f"not match actuator {actuator.id!r} location "
                    f"{actuator.location!r}")
            # Sorted, so the name does not hang on the hash seed.
            for feature in sorted(action.affected_features, key=str):
                if feature not in registry.features:
                    raise ReferentialIntegrityError(
                        f"rule {rid!r} affects undeclared feature "
                        f"{feature!r}")

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
        _check_fields(self, "dependency graph ", InvalidConfigError)
        # Sorted, so the first bad edge reported does not hang on the hash
        # seed.
        for edge in sorted(self.edges, key=str):
            for feature in edge:
                if feature not in self.nodes:
                    raise ReferentialIntegrityError(
                        "dependency edge references undeclared feature "
                        f"{feature!r}")
            if edge[0] == edge[1]:
                raise InvalidConfigError(f"self-loop on feature {edge[0]!r}")

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
    Each key is a pair of action classes, as its annotation states
    (``InvalidConfigError``), a sorted pair of classes of the vocabulary
    (``ReferentialIntegrityError``), and an identical (kind, name) maps
    only to ``same`` (``InvalidConfigError``); any undeclared pair
    defaults to ``different``, which keeps lookups total over the vocabulary
    without forcing configs to spell out every combination.

    A (kind, name) pair is an action class. ``classes`` compiles the
    vocabulary and entries once into a row per class, and ``relation`` and
    ``row`` read it.
    """

    vocabulary: dict[str, frozenset[str]]
    entries: dict[RelationKey, Relation] = field(default_factory=dict)

    def __post_init__(self):
        _check_fields(self, "action relations ", InvalidConfigError)
        # Read from the vocabulary: ``classes`` trusts checked entries.
        declared = {(kind, name) for kind, names in self.vocabulary.items()
                    for name in names}
        for pair, relation in self.entries.items():
            if not declared.issuperset(pair) or pair[0] > pair[1]:
                raise ReferentialIntegrityError(
                    "action relations entries must key sorted pairs of "
                    f"action classes of the vocabulary, not {pair!r}")
            if pair[0] == pair[1] and relation is not Relation.SAME:
                raise InvalidConfigError(
                    f"action relations entries must map {pair!r} to "
                    f"'same', not {relation.value!r}")

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
        for name, least in (("overlap_window", 1), ("duplicate_window", 1),
                            ("same_tick_epsilon", 0)):
            value = getattr(self, name)
            if value_problem(value, int) or value < least:
                raise InvalidConfigError(
                    f"{name} must be an integer >= {least}, not {value!r}")
        _check_fields(self, "detector ", InvalidConfigError)

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
