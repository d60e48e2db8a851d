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
the first hit, so the returned list is exhaustive for the tick.
``policy_kinds`` is the one statement of C1 to C6, and ``PolicyTable`` is
one ruleset compiled under one config: each rule's ``RuleProfile`` (what
the policies read of it), its profile class, and ``policy_kinds``'
answers per tuple of pair facts and gap class, memoised per pair of
classes, so ``detect_at_tick`` classifies a pair inline with one memo
read, its gap class and, where the rows differ, an overlap test.
``static_check`` builds the same table. ``classify_pair`` answers for one
pair from ``policy_kinds`` directly. ``DetectionWindow.admit`` takes each
batch in one step: it checks the events, each of which checked itself as
it was built, against the stream's invariants and the registry, matches
them and, at the stream's first batch, builds the table, all before the
window changes.
``DetectionWindow.firings_at`` hands a tick's firings on, so the simulator
applies the detector's own firings and matches no event twice. Checks
only consider pairs with an item from the current call, so each
violating pair is reported exactly once over the lifetime of a stream.
The window keeps each item only while a policy can read it: firings for
max(eps, W) ticks, filed by event signature, and events for the config
horizon, in (tick, id) order. Past the epsilon only similar events pair:
C1, C2, C5 and C6 need a gap within the epsilon, and C3 and C4 need
overlapping events, so ``DetectionWindow.candidate_pairs`` forms only the
pairs some policy can flag. The window counts the readings its events
hold, keyed by (sensor, float(value)). C7 walks the window's events once
per call, in the order its findings are reported in, so they need no
sort, and only for the batch readings that can repeat: those of a sensor
with a tolerance above 0, and those the count shows an earlier equal
reading of. A batch with none makes no walk.

A finding costs about what its output costs: a ``Conflict`` is a
``model.Record`` of its kind and two participants, and its tick is the
later participant's time. The pair pass and ``check_c7`` each collect
their findings as columns, kinds, earlier and later participants and
swap flags, and ``_findings`` fills a call's records column by column
with no Python frame per finding; a call that finds nothing builds
nothing. Its ``tick``, ``participants`` pair, ``note`` and
``suppressible`` are derived when read, so a caller that only counts
findings renders no text.
Event signatures built once per trace kind (``cli.parse_trace``) or per
source (the simulator) compare by identity before equality.

Policies C1 to C6 relate firings of two distinct rules. A single rule fired
twice by duplicate readings is the duplicate-event case and is covered by
C7 alone.
"""

from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass
from enum import Enum
from itertools import islice, repeat, takewhile
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
    DetectorConfig,
    Event,
    Record,
    Registry,
    Relation,
    Rule,
    RuleSet,
    Tick,
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


# Each kind's text, read per finding without the enum's value descriptor.
KIND_TEXT = {kind: kind.value for kind in ConflictKind}


@dataclass(eq=False)
class TriggeredAction(Record, identity=("event", "rule", "controller",
                                        "action", "actuator_kind", "time",
                                        "index")):
    """One rule firing: the event, the rule that matched it, and the command
    the owning controller would issue. ``index`` is the rule's position in
    its ruleset, where the detector finds the rule's profile. A ``Record``,
    which ``match_rules`` fills slot by slot."""

    __slots__ = ("event", "rule", "controller", "action", "actuator_kind",
                 "time", "index", "_key")

    event: Event
    rule: str
    controller: str
    action: ActionSpec
    actuator_kind: str
    time: Tick
    index: int

    def __init__(self, event: Event, rule: str, controller: str,
                 action: ActionSpec, actuator_kind: str, time: Tick,
                 index: int):
        self._fill(event, rule, controller, action, actuator_kind, time,
                   index, (time, event.id, rule))

    def key(self) -> tuple:
        """The firing's identity and canonical order: (time, event id, rule
        id), built once."""
        return self._key


# ``_fire`` fills each firing's slots through these, with no ``__init__``
# frame: ``_new_firing(TriggeredAction)``, then each setter.
_new_firing = object.__new__
(_set_event, _set_rule, _set_controller, _set_action, _set_actuator_kind,
 _set_time, _set_index, _set_key) = TriggeredAction.setters


class Conflict(Record, identity=("kind", "first", "second")):
    """A detected policy violation: a ``Record`` of ``kind`` and
    ``participants``, which alone make its identity (``==`` and ``hash``).

    ``participants`` holds the two triggered actions involved (two raw
    events for C7), stored in canonical order so a violation has a single
    identity. The record keeps them in two slots, ``first`` and
    ``second``, and builds the ``participants`` pair when it is read.
    ``tick``, the detection tick, is the later participant's time,
    ``second.time``: every finding pairs an item of the call that found it
    with one no later. ``note`` and ``suppressible`` are derived from the
    participants when read too. A pair's note names its firings in the
    order the detector met them, which ``_swapped`` records: true when that
    order is the reverse of ``participants``.
    """

    __slots__ = ("kind", "first", "second", "_swapped")

    def __init__(self, kind: ConflictKind, participants: tuple,
                 _swapped: bool = False):
        first, second = participants
        self._fill(kind, first, second, _swapped)

    @property
    def tick(self) -> Tick:
        """The detection tick: the later participant's time."""
        return self.second.time

    @property
    def participants(self) -> tuple:
        """``(first, second)``, built when read."""
        return (self.first, self.second)

    def __repr__(self):
        return (f"Conflict(kind={self.kind!r}, tick={self.tick!r}, "
                f"participants={self.participants!r}, note={self.note!r})")

    @property
    def suppressible(self) -> tuple[str, ...]:
        """Event ids whose actions a downstream enforcement point may drop:
        the later event of a C7, none for C1 to C6."""
        if self.kind is ConflictKind.C7:
            return (self.second.id,)
        return ()

    @property
    def note(self) -> str:
        """One line saying what the participants did (``NOTES``)."""
        kind = self.kind
        a, b = self.first, self.second
        if self._swapped and kind is not ConflictKind.C7:
            a, b = b, a
        return NOTES[kind](a, b)

    def key(self) -> tuple:
        """Identity used to compare detector output against reference
        implementations: kind, detection tick, and participant keys."""
        a, b = self.first, self.second
        if self.kind is ConflictKind.C7:
            return (self.kind.value, b.time,
                    ((a.time, a.id), (b.time, b.id)))
        return (self.kind.value, b.time, (a._key, b._key))


# Each kind's note, one line saying what the participants did: the two
# raw events of a C7, and the two firings of a pair in the order the
# detector met them. ``Conflict.note`` reads every entry and
# ``cli.format_conflict_row`` the pair kinds'; it writes the C7 text in
# the f-string of its row, and a test holds every logged note to ``note``.
# Every name a note carries is row-checked, so no note holds a comma or a
# line break.
NOTES = {
    ConflictKind.C1: lambda a, b: (
        f"controllers {a.controller} and {b.controller} both drive "
        f"{a.action.actuator}"),
    ConflictKind.C2: lambda a, b: (
        f"{a.action.actuator} and {b.action.actuator} touch related "
        f"features under controllers {a.controller} and {b.controller}"),
    ConflictKind.C3: lambda a, b: (
        f"overlapping events {a.event.id} and {b.event.id} command "
        f"{a.action.actuator}: {a.action.action}/{b.action.action}"),
    ConflictKind.C4: lambda a, b: (
        f"overlapping events push opposite actions "
        f"{a.action.action}/{b.action.action} on related features"),
    ConflictKind.C5: lambda a, b: (
        f"disjoint events {a.event.id} and {b.event.id} command "
        f"{a.action.actuator}: {a.action.action}/{b.action.action}"),
    ConflictKind.C6: lambda a, b: (
        f"disjoint events push opposite actions "
        f"{a.action.action}/{b.action.action} on related features"),
    ConflictKind.C7: lambda a, b: (
        f"sensor {b.sensor} repeated value {a.value:g} after "
        f"{b.time - a.time} tick(s)"),
}


_set_kind, _set_first, _set_second, _set_swapped = Conflict.setters
# Drains an iterator at C level, keeping nothing.
_drain = deque(maxlen=0).extend


def _findings(count: int, kinds, firsts, seconds, swapped) -> list[Conflict]:
    """``count`` records, the records ``Conflict(kind, (first, second),
    swapped)`` would build from each position of the five columns, filled
    column by column through ``Conflict.setters`` with no Python frame per
    finding. A column may be longer than ``count``, or endless."""
    records = list(map(object.__new__, repeat(Conflict, count)))
    _drain(map(_set_kind, records, kinds))
    _drain(map(_set_first, records, firsts))
    _drain(map(_set_second, records, seconds))
    _drain(map(_set_swapped, records, swapped))
    return records


def match_rules(event: Event, ruleset: RuleSet) -> list[TriggeredAction]:
    """All rule firings for one event, in ruleset declaration order, read
    from the ruleset's trigger index. The event's sensor must be declared
    with the event's kind, location and unit."""
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
    """The firing the public constructor would build, slot by slot."""
    firing = _new_firing(TriggeredAction)
    _set_event(firing, event)
    _set_rule(firing, rule.id)
    _set_controller(firing, rule.controller)
    _set_action(firing, rule.action)
    _set_actuator_kind(
        firing, ruleset.registry.actuators[rule.action.actuator].kind)
    _set_time(firing, event.time)
    _set_index(firing, i)
    _set_key(firing, (event.time, event.id, rule.id))
    return firing


class RuleProfile:
    """What the pair policies read of one rule under one detector config:
    its actuator and controller, its action class (actuator kind, action)
    with that class's row of ``ActionRelationTable.classes``, and its
    affected features with the features equal or dependent to them.
    Building one rejects a config that lacks its action or a feature."""

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


def _not_an_event(events: list) -> InvalidEventError:
    """The error for a batch's first entry that is not an ``Event``.
    ``admit`` tests each entry in its own loop over the batch: a separate
    pass made ``simulate``, whose batches hold one or two events, slower."""
    position, entry = next((position, entry)
                           for position, entry in enumerate(events)
                           if not isinstance(entry, Event))
    return InvalidEventError(
        f"batch entry {position} is not an Event: {entry!r}")


class DetectionWindow:
    """Sliding record of recent firings and raw events, sized by one
    detector config: firings are kept for its ``pair_reach`` (max(eps, W),
    the farthest a pair policy looks), events and their ids for its
    ``horizon`` (C7 and the unique-id check), with a count of the events
    per reading (``check_c7``'s test for a repeat). Each firing is listed in
    tick order with all firings and with the firings of its exact event
    signature, so ``candidate_pairs`` reaches the firings past the epsilon
    whose events are similar without visiting the rest. Buckets are keyed
    by signature, not by similarity class: classes may share signatures,
    and a firing filed under two classes would pair twice. Single writer;
    call ``detect_at_tick`` serially per stream.

    ``cfg`` is the stream's one detector config: the window's reach, its
    candidate pairs, C7 and every ``detect_at_tick`` call read it.
    ``ruleset`` is the stream's one ruleset, bound by the first ``admit``
    with ``table``, its ``PolicyTable`` under ``cfg`` (None until then);
    the window itself keeps only sliding state.
    """

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.ruleset: RuleSet | None = None
        self.table: PolicyTable | None = None
        self.last_tick: Tick | None = None
        self._actions: list[TriggeredAction] = []  # in tick order
        self._by_signature = defaultdict(list)  # signature -> actions
        # Events in (tick, id) order, the order C7 reports them in, and each
        # id with its tick.
        self._events: deque[Event] = deque()
        self._event_times: dict[str, Tick] = {}  # id -> tick
        # How many of ``_events`` hold each reading, keyed by (sensor,
        # float(value)), so ``check_c7`` sees which readings repeat. Two
        # values within tolerance 0 of each other are equal as floats.
        self._readings: dict[tuple, int] = {}

    def admit(self, events: list[Event], ruleset: RuleSet) -> int:
        """Take in one tick's events, at least one, with the rule firings
        they trigger, after dropping the items past their reach; return the
        position in ``_actions`` of the first new firing. A later call may
        add events at this tick, never at an earlier one. Each ``Event``
        checked itself as it was built; what a stream adds is checked here,
        before the window changes, in this order: the stream's invariants
        (ticks never decrease, one tick per batch, event ids unique in the
        window since pairs tell events apart by id, one reading per sensor
        per tick since C7 tells a sensor's readings apart by tick); each
        event's sensor, kind, location and unit (``match_rules``); and the
        stream's ruleset, whose ``PolicyTable`` the first call builds. The
        batch's events join ``_events`` in id order, and with the events an
        earlier call admitted at this tick they are sorted again; each joins
        the count of its reading. An entry that is not an ``Event`` raises
        ``InvalidEventError`` naming its position and repr, as the checks
        of the stream's invariants reach it."""
        if not isinstance(events[0], Event):
            raise _not_an_event(events)
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
            if not isinstance(event, Event):
                raise _not_an_event(events)
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
        actions = []
        for event in events:
            actions += match_rules(event, ruleset)
        if ruleset is not self.ruleset:
            if self.ruleset is None:
                self.table = PolicyTable(ruleset, self.cfg)
                self.ruleset = ruleset
            elif ruleset != self.ruleset:
                raise InvalidConfigError(
                    "detect_at_tick got a ruleset other than its window's")
        self.last_tick = tick
        self._evict(tick)
        start = len(self._actions)
        self._actions.extend(actions)
        by_signature = self._by_signature
        for action in actions:
            by_signature[action.event.signature].append(action)
        fresh = events
        if tail:
            fresh = [self._events.pop() for _ in range(tail)] + events
        self._events.extend(sorted(fresh, key=_id))
        event_times, readings = self._event_times, self._readings
        for event in events:
            event_times[event.id] = event.time
            reading = (event.sensor, float(event.value))
            readings[reading] = readings.get(reading, 0) + 1
        return start

    def firings_at(self, tick: Tick) -> list[TriggeredAction]:
        """The firings admitted at ``tick``, in the order they were
        admitted: per batch, event by event in batch order, each event's in
        ruleset declaration order. Empty for a tick nothing fired at, and
        for one past ``pair_reach``, whose firings have left the window."""
        return _between(self._actions, tick, tick + 1)

    def _evict(self, now: Tick) -> None:
        actions = self._actions
        oldest = now - self.cfg.pair_reach
        if actions and actions[0].time < oldest:
            expired = bisect_left(actions, oldest, key=_time)
            # Buckets keep the order of ``_actions``, so each expired
            # action, taken oldest first, is at the head of its bucket.
            by_signature = self._by_signature
            for action in actions[:expired]:
                bucket = by_signature[action.event.signature]
                del bucket[0]
                if not bucket:
                    del by_signature[action.event.signature]
            del actions[:expired]
        cutoff = now - self.cfg.horizon
        events = self._events
        readings = self._readings
        while events and events[0].time < cutoff:
            event = events.popleft()
            del self._event_times[event.id]
            reading = (event.sensor, float(event.value))
            held = readings[reading] - 1
            if held:
                readings[reading] = held
            else:
                del readings[reading]

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
    """One ruleset compiled under one detector config, as the window and
    ``static_check`` read it. ``profiles`` holds each rule's
    ``RuleProfile``, at its index; building them rejects a config that
    lacks a rule's action or feature. Rules whose profiles hold the same
    actuator, controller, action class and features are one profile class
    (``classes`` numbers each rule's, ``width`` counts them): every pair of
    their rules has the same facts.

    Each fact tuple (``RuleProfile.facts``, at most 32) maps to its entry,
    filled when first asked for. The policies read a tick gap only against
    the epsilon and the overlap window W, so the gaps up to max(eps, W)
    fall into three classes inside which every policy answers alike: 0,
    1..min(eps, W) and min+1..max(eps, W) (``gaps``; the second is empty at
    eps = 0, the third at eps = W, and an empty class has no rows). Per gap
    class an entry has three rows of kinds: for overlapping events, for
    disjoint distinct events, and for one event shared by both firings.
    Past W no events overlap, so there the first row is the second. Where
    the two are equal they are one object, and a pair needs no overlap
    test. An entry in which no row holds a kind is ().

    ``entry(i, j)`` files a rule pair's entry in ``memo`` under its class
    pair, so the memo grows with the class pairs met, never with ticks."""

    def __init__(self, ruleset: RuleSet, cfg: DetectorConfig):
        super().__init__()
        self.cfg = cfg
        self.lo, self.hi = sorted((cfg.same_tick_epsilon, cfg.overlap_window))
        self.gaps = ((0, 0), (1, self.lo), (self.lo + 1, self.hi))
        actuators = ruleset.registry.actuators
        self.profiles = [RuleProfile(r.controller, r.action,
                                     actuators[r.action.actuator].kind, cfg)
                         for r in ruleset.rules]
        numbers = {}
        self.classes = [numbers.setdefault(
            (p.actuator, p.controller, p.action_class, p.features),
            len(numbers)) for p in self.profiles]
        self.width = len(numbers)
        self.memo: dict[int, tuple] = {}

    def __missing__(self, facts: tuple) -> tuple:
        entry = tuple(self._rows(facts, dmin) if dmin <= dmax else None
                      for dmin, dmax in self.gaps)
        if not any(kinds for rows in entry if rows for kinds in rows):
            entry = ()
        self[facts] = entry
        return entry

    def entry(self, i: int, j: int) -> tuple:
        """The entry of rules ``i`` and ``j``, met in that order, filed in
        ``memo`` under ``classes[i] * width + classes[j]``."""
        profiles, classes = self.profiles, self.classes
        entry = self.memo[classes[i] * self.width + classes[j]] = self[
            profiles[i].facts(profiles[j])]
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


def classify_pair(a: TriggeredAction, b: TriggeredAction,
                  cfg: DetectorConfig) -> list[Conflict]:
    """Every conflict among C1 to C6 that one pair of firings forms, asked
    of ``policy_kinds`` directly: the facts of the two rules, the pair's
    gap, and its events (one shared event, or distinct events, overlapping
    or not)."""
    if a.rule == b.rule:
        return []
    dt = abs(a.time - b.time)
    shared = dt == 0 and a.event.id == b.event.id
    kinds = policy_kinds(
        *RuleProfile.of(a, cfg).facts(RuleProfile.of(b, cfg)), dt,
        not shared and overlapping_events(a.event, b.event, cfg),
        not shared, cfg)
    if b._key < a._key:
        return [Conflict(kind, (b, a), True) for kind in kinds]
    return [Conflict(kind, (a, b)) for kind in kinds]


def check_c7(window: DetectionWindow, events: list[Event],
             registry: Registry) -> list[Conflict]:
    """One sensor repeats a reading within the window config's duplicate
    window, up to the sensor's declared tolerance. The later event is
    marked suppressible so enforcement can drop its actions. ``events``,
    the batch the window last admitted, is compared in one walk over the
    window's events: each meets the batch's reading of its sensor, if any,
    whose value, signature and tolerance are read once per batch. A reading
    joins the walk only if its sensor has a tolerance above 0 or the
    window's count of readings shows an earlier equal one; with none, there
    is no walk. One sensor emits once per tick, so the events at the
    batch's tick never pair with each other. The walk visits the events in
    (tick, id) order, so the findings come out in the canonical order of
    ``Conflict.key``."""
    sensors = registry.sensors
    readings = window._readings
    fresh = {}
    for later in events:
        tolerance = sensors[later.sensor].tolerance
        # The count holds the batch's own reading too.
        if tolerance > 0 or readings[later.sensor, float(later.value)] > 1:
            fresh[later.sensor] = (later, later.value, later.signature,
                                   tolerance)
    if not fresh:
        return []
    reading_of = fresh.get
    tick = events[0].time
    since = tick - window.cfg.duplicate_window
    firsts, seconds = [], []
    # The events at this tick end the window: the walk leaves out as many
    # as the batch holds, and the gap test rejects the others (those an
    # earlier call admitted at this tick).
    history = window._events
    for earlier in islice(history, len(history) - len(events)):
        hit = reading_of(earlier.sensor)
        if hit is not None:
            later, value, signature, tolerance = hit
            # On a chatty sensor most pairs fail the value test, the
            # cheapest. Interned signatures compare by identity.
            if (abs(earlier.value - value) <= tolerance
                    and since <= earlier.time < tick
                    and (earlier.signature is signature
                         or earlier.signature == signature)):
                firsts.append(earlier)
                seconds.append(later)
    if not firsts:
        return []
    return _findings(len(firsts), repeat(ConflictKind.C7), firsts, seconds,
                     repeat(False))


# The C1 to C6 order within one tick: the kind, then the participants'
# keys. Kinds are strings, so the members compare as their names.
_pair_order = attrgetter("kind", "first._key", "second._key")


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
    ``InvalidConfigError``. The first call builds the window's
    ``PolicyTable``, so a config that lacks a rule's action or feature
    raises there. C1 to C6 are evaluated in one pass over the candidate
    pairs, then C7; findings come back each (kind, pair) once, in the
    canonical order of ``Conflict.key``.

    Each candidate pair is classified inline, as ``classify_pair`` would:
    one read of the table's ``memo`` (``PolicyTable.entry`` on a miss) for
    its rows, and its gap class from ``b.time - a.time``, never negative
    as ``candidate_pairs`` yields the older firing first.

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
    cfg = window.cfg
    table = window.table
    lo, memo, classes, width = table.lo, table.memo, table.classes, table.width
    overlap = overlapping_events
    # The findings' columns, made by the first pair that yields kinds: most
    # calls of a small stream find nothing, and they build nothing.
    kinds_of = None
    # A batch that fired nothing forms no pair.
    pairs = (window.candidate_pairs(start)
             if start < len(window._actions) else ())
    for a, b in pairs:
        i, j = a.index, b.index
        if i == j:
            continue
        entry = memo.get(classes[i] * width + classes[j])
        if entry is None:
            entry = table.entry(i, j)
        if not entry:
            continue
        dt = b.time - a.time
        overlapping, disjoint, shared = entry[
            0 if dt == 0 else 1 if dt <= lo else 2]
        # Ids are unique in the window, so firings at one tick share an
        # event exactly when they hold the same one.
        if dt == 0 and a.event is b.event:
            kinds = shared
        elif overlapping is disjoint or not overlap(a.event, b.event, cfg):
            kinds = disjoint
        else:
            kinds = overlapping
        if kinds:
            if kinds_of is None:
                kinds_of, firsts, seconds, swaps = [], [], [], []
            swapped = b._key < a._key
            if swapped:
                a, b = b, a
            for kind in kinds:
                kinds_of.append(kind)
                firsts.append(a)
                seconds.append(b)
                swaps.append(swapped)
    c7 = check_c7(window, new_events, ruleset.registry)
    if kinds_of is None:
        return c7
    conflicts = _findings(len(kinds_of), kinds_of, firsts, seconds, swaps)
    if len(conflicts) > 1:
        conflicts.sort(key=_pair_order)
    conflicts += c7
    return conflicts
