"""Online conflict detection over streams of triggered actions.

Seven safety policies are evaluated against a sliding window of recent
events and the actions they triggered:

* C1: two controllers drive one actuator simultaneously.
* C2: two controllers drive different actuators whose affected features are
  equal or dependent, simultaneously.
* C3: two overlapping events stack conflicting commands on one actuator
  (any distinct action pair, or the same command repeated a tick or more
  apart within the overlap window).
* C4: two overlapping events drive opposite actions touching equal or
  dependent features (the actuators may differ).
* C5: like C3 but for a pair of disjoint events arriving simultaneously.
* C6: like C4 but for a pair of disjoint events arriving simultaneously.
* C7: one sensor repeats the same reading within the duplicate window; the
  later event is marked suppressible.

``detect_at_tick`` takes one tick's events per call, matches them against
the ruleset's trigger index, classifies every candidate pair of firings
against C1 to C6 in one pass over the window, runs C7, and never stops at
the first hit, so the returned list is exhaustive for the tick. Each rule
is compiled once per stream, the first time it fires, into a
``RuleProfile``: what the policies read of it. ``policy_kinds`` is the one
statement of C1 to C6, and one ``PolicyTable`` per config holds its
answers per tuple of pair facts (read off two profiles) and gap class, so
classifying a pair takes two profile reads and one table read.
``DetectionWindow.admit`` takes each batch in one step: it checks the
events against the model's reading facts and the stream's invariants,
matches them and compiles the profiles of rules firing for the first time,
all before the window changes. ``DetectionWindow.firings_at`` hands a
tick's firings on, so the simulator applies the detector's own firings
and matches no event twice. Checks only consider pairs with an item from
the current call, so each violating pair is reported exactly once over
the lifetime of a stream. The window keeps each item only while a policy
can read it: firings for max(eps, W) ticks, filed by event signature,
and events for the config horizon, in (tick, id) order. Past
the epsilon only similar events pair: C1, C2, C5 and C6 need a gap within
the epsilon, and C3 and C4 need overlapping events, so
``DetectionWindow.candidate_pairs`` forms only the pairs some policy can
flag. C7 walks the window's events once per call, in the order its
findings are reported in, so they need no sort.

A finding costs about what its output costs: a ``Conflict`` is a slotted,
immutable record of its kind, tick and participants, and its ``note`` and
``suppressible`` are derived from those when read, so a caller that only
counts findings renders no text. Event signatures built once per trace
kind (``cli.parse_trace``) or per source (the simulator) compare by
identity before equality.

Policies C1 to C6 relate firings of two distinct rules. A single rule fired
twice by duplicate readings is the duplicate-event case and is covered by
C7 alone.
"""

from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, takewhile
from operator import attrgetter
from typing import Iterator

from .errors import (
    DuplicateEventIdError,
    DuplicateSensorReadingError,
    InvalidConfigError,
    InvalidEventError,
    OutOfOrderTickError,
)
from .model import (
    ActionSpec,
    Cmp,
    DetectorConfig,
    Event,
    EventSignature,
    Registry,
    Relation,
    Rule,
    RuleSet,
    Tick,
    check_reading,
    overlapping_events,
)


class ConflictKind(str, Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"
    C6 = "C6"
    C7 = "C7"


@dataclass(frozen=True)
class TriggeredAction:
    """One rule firing: the event, the rule that matched it, and the command
    the owning controller would issue. ``index`` is the rule's position in
    its ruleset, where the detector finds the rule's profile."""

    event: Event
    rule: str
    controller: str
    action: ActionSpec
    actuator_kind: str
    time: Tick
    index: int
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_key", (self.time, self.event.id, self.rule))

    def key(self) -> tuple:
        """The firing's identity and canonical order: (time, event id, rule
        id), built once."""
        return self._key


class Conflict:
    """A detected policy violation: an immutable record of ``kind``,
    ``tick`` and ``participants``, which alone make its identity
    (``==`` and ``hash``).

    ``participants`` holds the two triggered actions involved (two raw
    events for C7), stored in canonical order so a violation has a single
    identity. ``note`` and ``suppressible`` are derived from them when
    read. A pair's note names its firings in the order the detector met
    them, which ``_swapped`` records: true when that order is the reverse
    of ``participants``.
    """

    __slots__ = ("kind", "tick", "participants", "_swapped", "__weakref__")

    def __init__(self, kind: ConflictKind, tick: Tick, participants: tuple,
                 _swapped: bool = False):
        # The slot descriptors write past ``__setattr__``, which refuses.
        _set_kind(self, kind)
        _set_tick(self, tick)
        _set_participants(self, participants)
        _set_swapped(self, _swapped)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of Conflict")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of Conflict")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind is other.kind and self.tick == other.tick
                and self.participants == other.participants)

    def __hash__(self):
        return hash((self.kind, self.tick, self.participants))

    def __reduce__(self):
        return (Conflict, (self.kind, self.tick, self.participants,
                           self._swapped))

    def __repr__(self):
        return (f"Conflict(kind={self.kind!r}, tick={self.tick!r}, "
                f"participants={self.participants!r}, note={self.note!r})")

    @property
    def suppressible(self) -> tuple[str, ...]:
        """Event ids whose actions a downstream enforcement point may drop:
        the later event of a C7, none for C1 to C6."""
        if self.kind is ConflictKind.C7:
            return (self.participants[1].id,)
        return ()

    @property
    def note(self) -> str:
        """One line saying what the participants did."""
        kind = self.kind
        a, b = self.participants
        if kind is ConflictKind.C7:
            return (f"sensor {b.sensor} repeated value {a.value:g} after "
                    f"{b.time - a.time} tick(s)")
        if self._swapped:
            a, b = b, a
        if kind is ConflictKind.C1:
            return (f"controllers {a.controller} and {b.controller} both "
                    f"drive {a.action.actuator}")
        if kind is ConflictKind.C2:
            return (f"{a.action.actuator} and {b.action.actuator} touch "
                    f"related features under controllers {a.controller} "
                    f"and {b.controller}")
        if kind is ConflictKind.C3 or kind is ConflictKind.C5:
            how = "overlapping" if kind is ConflictKind.C3 else "disjoint"
            return (f"{how} events {a.event.id} and {b.event.id} command "
                    f"{a.action.actuator}: {a.action.action}/"
                    f"{b.action.action}")
        how = "overlapping" if kind is ConflictKind.C4 else "disjoint"
        return (f"{how} events push opposite actions "
                f"{a.action.action}/{b.action.action} on related features")

    def key(self) -> tuple:
        """Identity used to compare detector output against reference
        implementations: kind, detection tick, and participant keys."""
        a, b = self.participants
        if self.kind is ConflictKind.C7:
            return (self.kind.value, self.tick,
                    ((a.time, a.id), (b.time, b.id)))
        return (self.kind.value, self.tick, (a._key, b._key))


_set_kind = Conflict.kind.__set__
_set_tick = Conflict.tick.__set__
_set_participants = Conflict.participants.__set__
_set_swapped = Conflict._swapped.__set__


def match_rules(event: Event, ruleset: RuleSet) -> list[TriggeredAction]:
    """All rule firings for one event, in ruleset declaration order, read
    from the ruleset's trigger index. The event's sensor must be declared
    with the event's kind, location and unit, and each firing rule's
    actuator declared in the registry."""
    kind, location = event.signature.sensor_kind, event.signature.location
    sensor = ruleset.registry.reading_sensor(event.sensor, kind, location)
    if event.unit != sensor.unit:
        raise InvalidEventError(f"sensor {sensor.id!r} reads in "
                                f"{sensor.unit!r}, not {event.unit!r}")
    # Bisecting each comparator's thresholds leaves the triggers that hold
    # on the value; the location and schedule filters finish the test of
    # ``TriggerCondition.matches``.
    day = ruleset.day_length
    rules = ruleset.rules
    hits = []
    for holding_range, thresholds, indexes in ruleset.trigger_index.get(
            kind, ()):
        lo, hi = holding_range(thresholds, event.value)
        for i in indexes[lo:hi]:
            trigger = rules[i].trigger
            if ((trigger.location_filter is None
                 or trigger.location_filter == location)
                    and (trigger.schedule is None
                         or trigger.active_at(event.time, day))):
                hits.append(i)
    if not hits:
        return []
    hits.sort()
    return [_fire(i, rules[i], event, ruleset) for i in hits]


def _fire(i: int, rule: Rule, event: Event,
          ruleset: RuleSet) -> TriggeredAction:
    return TriggeredAction(
        event=event,
        rule=rule.id,
        controller=rule.controller,
        action=rule.action,
        actuator_kind=ruleset.registry.actuator_kind(rule.action.actuator),
        time=event.time,
        index=i,
    )


class RuleProfile:
    """What the pair policies read of one rule under one detector config:
    its actuator and controller, its action class (actuator kind, action)
    with that class's row of ``ActionRelationTable.classes``, and its
    affected features with the features equal or dependent to them.
    Building one rejects an undeclared action or feature."""

    __slots__ = ("actuator", "controller", "action_class", "relations",
                 "features", "near")

    def __init__(self, controller: str, action: ActionSpec,
                 actuator_kind: str, cfg: DetectorConfig):
        self.actuator = action.actuator
        self.controller = controller
        self.action_class = (actuator_kind, action.action)
        self.relations = cfg.action_relations.row(actuator_kind, action.action)
        self.features = action.affected_features
        self.near = cfg.dependency_graph.related_to_any(self.features)

    @classmethod
    def of(cls, firing: TriggeredAction, cfg: DetectorConfig) -> "RuleProfile":
        return cls(firing.controller, firing.action, firing.actuator_kind, cfg)

    def facts(self, other: "RuleProfile") -> tuple:
        """The facts ``policy_kinds`` reads of a pair of these two rules,
        besides its gap and events: same actuator, rival controllers, the
        relation of their actions, and related features."""
        return (self.actuator == other.actuator,
                self.controller != other.controller,
                self.relations.get(other.action_class, Relation.DIFFERENT),
                not self.near.isdisjoint(other.features))


_time = attrgetter("time")
_id = attrgetter("id")


def _between(actions: list[TriggeredAction] | None, start: Tick,
             stop: Tick) -> list[TriggeredAction]:
    """The actions of a tick-ordered list with start <= time < stop."""
    if not actions or actions[0].time >= stop:
        return []
    return actions[bisect_left(actions, start, key=_time):
                   bisect_left(actions, stop, key=_time)]


class DetectionWindow:
    """Sliding record of recent firings and raw events, sized by one
    detector config: firings are kept for its ``pair_reach`` (max(eps, W),
    the farthest a pair policy looks), events and their ids for its
    ``horizon`` (C7 and the unique-id check). Each firing is listed in
    tick order with all firings and with the firings of its exact event
    signature, so ``candidate_pairs`` reaches the firings past the epsilon
    whose events are similar without visiting the rest. Buckets are keyed
    by signature, not by similarity class: classes may share signatures,
    and a firing filed under two classes would pair twice. Single writer;
    call ``detect_at_tick`` serially per stream.

    ``cfg`` is the stream's one detector config: the window's reach, its
    candidate pairs, C7 and every ``detect_at_tick`` call read it.
    ``ruleset`` is the stream's one ruleset, set by the first ``admit``;
    ``profiles`` holds a ``RuleProfile`` per rule that has fired, at the
    rule's index, and ``table`` is the config's ``PolicyTable``.
    """

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.table = PolicyTable(cfg)
        self.ruleset: RuleSet | None = None
        self.profiles: list[RuleProfile | None] = []
        self.last_tick: Tick | None = None
        self._actions: list[TriggeredAction] = []  # in tick order
        self._by_signature = defaultdict(list)  # signature -> actions
        # Events in (tick, id) order, the order C7 reports them in, and each
        # id with its tick.
        self._events: deque[Event] = deque()
        self._event_times: dict[str, Tick] = {}  # id -> tick

    def admit(self, events: list[Event], ruleset: RuleSet) -> int:
        """Take in one tick's events, at least one, with the rule firings
        they trigger, after dropping the items past their reach; return the
        position in ``_actions`` of the first new firing. A later call may
        add events at this tick, never at an earlier one. Every check runs
        before the window changes, in this order: each event's tick and
        value (``check_reading``), and the types of its id and sensor (str)
        and signature (an ``EventSignature`` with a ``Cmp`` predicate),
        before anything hashes or compares them; the stream's invariants
        (ticks never decrease, one tick per batch, event ids unique in the
        window since pairs tell events apart by id, one reading per sensor
        per tick since C7 tells a sensor's readings apart by tick); each
        event's sensor, kind, location and unit (``match_rules``); the
        stream's ruleset; and the profile of each rule firing for the first
        time. The batch's events join ``_events`` in id order, and with the
        events an earlier call admitted at this tick they are sorted
        again."""
        for event in events:
            check_reading(event.time, event.value)
            if not isinstance(event.id, str):
                raise InvalidEventError(
                    f"event id {event.id!r} is not a string")
            if not isinstance(event.sensor, str):
                raise InvalidEventError(
                    f"event {event.id!r} sensor {event.sensor!r} is not a "
                    "string")
            signature = event.signature
            if not (isinstance(signature, EventSignature)
                    and isinstance(signature.predicate, Cmp)):
                raise InvalidEventError(
                    f"event {event.id!r} signature {signature!r} is not an "
                    "EventSignature with a Cmp predicate")
        tick = events[0].time
        if self.last_tick is not None and tick < self.last_tick:
            raise OutOfOrderTickError(
                f"tick {tick} arrived after tick {self.last_tick}")
        cutoff = tick - self.cfg.horizon
        # The events an earlier call admitted at this tick, the tail of
        # ``_events``, one per sensor.
        sensors = set()
        if tick == self.last_tick:
            sensors.update(event.sensor for event in takewhile(
                lambda event: event.time == tick, reversed(self._events)))
        tail = len(sensors)
        ids = set()
        for event in events:
            if event.time != tick:
                raise OutOfOrderTickError(
                    f"events in one batch span ticks {tick} and {event.time}")
            seen = self._event_times.get(event.id)
            if event.id in ids or (seen is not None and seen >= cutoff):
                raise DuplicateEventIdError(
                    f"event id {event.id!r} at tick {event.time} repeats an "
                    "event id in the detection window")
            ids.add(event.id)
            if event.sensor in sensors:
                raise DuplicateSensorReadingError(
                    f"sensor {event.sensor!r} emits twice at tick {tick}")
            sensors.add(event.sensor)
        actions = [ta for event in events
                   for ta in match_rules(event, ruleset)]
        if ruleset is not self.ruleset:
            if self.ruleset is None:
                self.ruleset = ruleset
                self.profiles = [None] * len(ruleset.rules)
            elif ruleset != self.ruleset:
                raise InvalidConfigError(
                    "detect_at_tick got a ruleset other than its window's")
        profiles, cfg = self.profiles, self.cfg
        for action in actions:
            if profiles[action.index] is None:
                profiles[action.index] = RuleProfile.of(action, cfg)
        self.last_tick = tick
        self._evict(tick)
        start = len(self._actions)
        self._actions.extend(actions)
        by_signature = self._by_signature
        for action in actions:
            by_signature[action.event.signature].append(action)
        fresh = [self._events.pop() for _ in range(tail)]
        fresh.extend(events)
        fresh.sort(key=_id)
        self._events.extend(fresh)
        for event in events:
            self._event_times[event.id] = event.time
        return start

    def firings_at(self, tick: Tick) -> list[TriggeredAction]:
        """The firings admitted at ``tick``, in the order they were
        admitted: per batch, event by event in batch order, each event's in
        ruleset declaration order. Empty for a tick nothing fired at, and
        for one past ``pair_reach``, whose firings have left the window."""
        return _between(self._actions, tick, tick + 1)

    def _evict(self, now: Tick) -> None:
        expired = bisect_left(self._actions, now - self.cfg.pair_reach,
                              key=_time)
        # Buckets keep the order of ``_actions``, so each expired action,
        # taken oldest first, is at the head of its bucket.
        by_signature = self._by_signature
        for action in self._actions[:expired]:
            bucket = by_signature[action.event.signature]
            del bucket[0]
            if not bucket:
                del by_signature[action.event.signature]
        del self._actions[:expired]
        cutoff = now - self.cfg.horizon
        events = self._events
        while events and events[0].time < cutoff:
            del self._event_times[events.popleft().id]

    def candidate_pairs(self, start: int) -> Iterator[tuple]:
        """Unordered action pairs with at least one new member, the actions
        from ``start`` on, that some pair policy can flag, each once, as
        (older, new) or as two new actions in arrival order.

        Within ``same_tick_epsilon`` of a new action every action pairs
        with it. Past the epsilon, up to max(epsilon, overlap window), only
        actions whose events are similar to its event do, read from the
        buckets of the signatures in ``DetectorConfig.similar_signatures``:
        C1, C2, C5 and C6 need a gap within the epsilon, and C3 and C4
        need overlapping events. Farther pairs violate nothing."""
        cfg = self.cfg
        eps = cfg.same_tick_epsilon
        reach = cfg.pair_reach
        similar = cfg.similar_signatures
        by_signature = self._by_signature
        actions = self._actions
        end = len(actions)
        for i in range(start, end):
            a = actions[i]
            near = a.time - eps
            for j in range(bisect_left(actions, near, 0, start, key=_time),
                           start):
                yield actions[j], a
            if reach > eps:
                # The buckets hold the new actions too, at the tick, so at
                # or past ``near``: ``_between`` leaves them out.
                far = a.time - reach
                signature = a.event.signature
                for sig in similar.get(signature, (signature,)):
                    for b in _between(by_signature.get(sig), far, near):
                        yield b, a
            for j in range(i + 1, end):
                yield a, actions[j]


def policy_kinds(same_actuator: bool, rival_controllers: bool,
                 relation: Relation, related: bool, dt: int, overlap: bool,
                 distinct_events: bool,
                 cfg: DetectorConfig) -> list[ConflictKind]:
    """The C1 to C6 policies, in kind order, that two firings of distinct
    rules violate, decided from the facts of the pair.

    The tick gap is read only against the epsilon and the overlap window W,
    so the answer is the same for every gap in 0, in 1..min(eps, W) and in
    min+1..max(eps, W), and empty past max(eps, W). The detector asks about
    one firing pair; the static analyzer asks about one shape at a time: a
    gap range with similar or dissimilar events, or one reading shared by
    both rules at tick 0.
    """
    simultaneous = dt <= cfg.same_tick_epsilon
    kinds = []
    if simultaneous and rival_controllers:
        if same_actuator:
            kinds.append(ConflictKind.C1)
        elif related:
            kinds.append(ConflictKind.C2)
    # Any non-identical command pair conflicts on a shared actuator; an
    # identical command conflicts only when staggered inside the overlap
    # window (the repeated-command case).
    stacked = same_actuator and (relation is not Relation.SAME
                                 or 0 < dt <= cfg.overlap_window)
    opposed = related and relation is Relation.OPPOSITE
    if overlap or (simultaneous and distinct_events):
        if stacked:
            kinds.append(ConflictKind.C3 if overlap else ConflictKind.C5)
        if opposed:
            kinds.append(ConflictKind.C4 if overlap else ConflictKind.C6)
    return kinds


class PolicyTable(dict):
    """``policy_kinds`` compiled for one detector config, filled as pairs
    ask for it: each fact tuple (``RuleProfile.facts``) maps to its rows.

    The policies read a tick gap only against the epsilon and the overlap
    window W, so the gaps up to max(eps, W) fall into three classes inside
    which every policy answers alike: 0, 1..min(eps, W) and
    min+1..max(eps, W) (``gaps``; the second is empty at eps = 0, the third
    at eps = W, and an empty class has no rows). Per gap class a fact tuple
    has three rows of kinds: for overlapping events, for disjoint distinct
    events, and for one event shared by both firings. Past W no events
    overlap, so there the first row is the second. Where the two are equal
    they are one object, and a pair needs no overlap test."""

    def __init__(self, cfg: DetectorConfig):
        super().__init__()
        self.cfg = cfg
        self.lo, self.hi = sorted((cfg.same_tick_epsilon, cfg.overlap_window))
        self.gaps = ((0, 0), (1, self.lo), (self.lo + 1, self.hi))

    def __missing__(self, facts: tuple) -> tuple:
        entry = self[facts] = tuple(self._rows(facts, dmin) if dmin <= dmax
                                    else None for dmin, dmax in self.gaps)
        return entry

    def _rows(self, facts: tuple, dt: int) -> tuple:
        cfg = self.cfg

        def kinds(overlap, distinct_events):
            return tuple(policy_kinds(*facts, dt, overlap, distinct_events,
                                      cfg))

        disjoint = kinds(False, True)
        overlapping = (kinds(True, True) if dt <= cfg.overlap_window
                       else disjoint)
        if overlapping == disjoint:
            overlapping = disjoint
        return overlapping, disjoint, kinds(False, False)


def _classify(a: TriggeredAction, b: TriggeredAction, pa: RuleProfile,
              pb: RuleProfile, table: PolicyTable) -> list[Conflict]:
    """``classify_pair`` given the firings' rule profiles and the config's
    policy table."""
    if a.rule == b.rule:
        return []
    dt = abs(a.time - b.time)
    if dt == 0:
        gap_class = 0
    elif dt <= table.lo:
        gap_class = 1
    elif dt <= table.hi:
        gap_class = 2
    else:
        return []
    overlapping, disjoint, shared = table[pa.facts(pb)][gap_class]
    if dt == 0 and a.event.id == b.event.id:
        kinds = shared
    elif overlapping is disjoint or not overlapping_events(a.event, b.event,
                                                           table.cfg):
        kinds = disjoint
    else:
        kinds = overlapping
    if not kinds:
        return []
    tick = max(a.time, b.time)
    if b._key < a._key:
        return [Conflict(kind, tick, (b, a), True) for kind in kinds]
    return [Conflict(kind, tick, (a, b)) for kind in kinds]


def classify_pair(a: TriggeredAction, b: TriggeredAction,
                  cfg: DetectorConfig) -> list[Conflict]:
    """Every conflict among C1 to C6 that one pair of firings forms: the
    row of the config's ``PolicyTable`` for the facts of the two rules, the
    gap class of the pair and its events (one shared event, or distinct
    events, overlapping or not). The overlap test runs only when the
    overlapping and disjoint rows differ."""
    return _classify(a, b, RuleProfile.of(a, cfg), RuleProfile.of(b, cfg),
                     PolicyTable(cfg))


def check_c7(window: DetectionWindow, events: list[Event],
             registry: Registry) -> list[Conflict]:
    """One sensor repeats a reading within the window config's duplicate
    window, up to the sensor's declared tolerance. The later event is
    marked suppressible so enforcement can drop its actions. ``events``,
    the batch the window last admitted, is compared in one walk over the
    window's events: each meets the batch's reading of its sensor, if any.
    One sensor emits once per tick, so the events at the batch's tick
    never pair with each other. The walk visits the events in (tick, id)
    order, so the findings come out in the canonical order of
    ``Conflict.key``."""
    if not events:
        return []
    tick = events[0].time
    span = window.cfg.duplicate_window
    sensors = registry.sensors
    fresh = {later.sensor: (later, sensors[later.sensor].tolerance)
             for later in events}
    c7 = ConflictKind.C7
    out = []
    # The events at this tick end the window: the walk leaves out as many
    # as the batch holds, and the gap test rejects the others (those an
    # earlier call admitted at this tick).
    history = window._events
    for earlier in islice(history, len(history) - len(events)):
        sensor = earlier.sensor
        if sensor in fresh:
            later, tolerance = fresh[sensor]
            # On a chatty sensor most pairs fail the value test, the
            # cheapest. Interned signatures compare by identity.
            if (abs(earlier.value - later.value) <= tolerance
                    and 0 < tick - earlier.time <= span
                    and (earlier.signature is later.signature
                         or earlier.signature == later.signature)):
                out.append(Conflict(c7, tick, (earlier, later)))
    return out


def _pair_order(conflict: Conflict) -> tuple:
    """The C1 to C6 order within one tick: the kind, then the participants'
    keys. Kinds are strings, so the members compare as their names."""
    a, b = conflict.participants
    return (conflict.kind, a._key, b._key)


def detect_at_tick(new_events: list[Event], ruleset: RuleSet,
                   window: DetectionWindow,
                   cfg: DetectorConfig) -> list[Conflict]:
    """Process one tick of events and return every conflict they complete.

    One call takes the events of one tick; a later call may add events at
    that tick but never go back. Each sensor emits at most once per tick,
    and event ids are unique within the config horizon. An empty batch is
    a no-op. ``cfg`` must be the window's config, or equal to it, and
    ``ruleset`` the ruleset of the window's first call, or equal to it: a
    stream has one config and one ruleset, and any other raises
    ``InvalidConfigError``. A rule's profile is built the first time the
    rule fires, before the window changes, so an undeclared action or
    feature raises at that call whether or not the firing pairs. C1 to C6
    are evaluated in one pass over the candidate pairs, then C7; findings
    come back each (kind, pair) once, in the canonical order of
    ``Conflict.key``.

    That order is reached without a ``Conflict.key`` tuple per finding.
    Every finding of one call has the call's tick, and the kind names sort
    C7 after C1 to C6, so the C1 to C6 findings, sorted by kind and
    participant keys, come first. Each C7 finding pairs a new reading, at
    this tick, with an earlier reading of the same sensor; a sensor emits
    once per tick and ids are unique in the window (both checked by
    ``admit``), so the earlier reading names the finding, and its (time,
    id) orders the C7 findings as their keys would. Ids compare as
    strings, as in the key: "e10" < "e9". The window keeps its events in
    that order, so ``check_c7`` meets them in it and needs no sort.
    """
    if cfg is not window.cfg and cfg != window.cfg:
        raise InvalidConfigError(
            "detect_at_tick got a detector config other than its window's")
    if not new_events:
        return []
    start = window.admit(new_events, ruleset)
    profiles, table = window.profiles, window.table
    conflicts = []
    for a, b in window.candidate_pairs(start):
        conflicts.extend(_classify(a, b, profiles[a.index], profiles[b.index],
                                   table))
    conflicts.sort(key=_pair_order)
    conflicts += check_c7(window, new_events, ruleset.registry)
    return conflicts

