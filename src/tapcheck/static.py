"""Static pairwise misconfiguration analysis of a ruleset.

Without seeing a single event, ``static_check`` flags every pair of rules
that could fire together in a way that violates one of the safety policies:
it tags the pair with the union of the policy kinds over every shape its
triggers can realise, so it over-approximates the dynamic checks. The
kinds come from the ruleset's ``PolicyTable``, which the detector builds
too: per pair facts, read off two rules' profiles, the kinds per gap class
(0 | 1..min(eps, W) | min+1..max(eps, W); past max(eps, W) none fires)
for overlapping, disjoint and shared events. A shape is one gap class
with similar or dissimilar firing events, or one reading shared by both
rules at tick 0.

Co-satisfiability facts used throughout:

* A sensor emits at most one event per tick, so two rules forced through
  exactly one shared sensor at the same tick share a single reading and
  their threshold intervals must intersect. A second sensor or a one-tick
  stagger makes the readings independent.
* An event's signature predicate is chosen by whatever generated the event,
  not by the rule comparators, so similarity and dissimilarity of the
  firing events are free choices within the sensors' kinds and locations.
* Daily schedules constrain which tick gaps are achievable; gaps repeat
  modulo the day length.
"""

from functools import total_ordering
from typing import Iterator

from .detector import ConflictKind, PolicyTable
from .model import (
    Cmp,
    DetectorConfig,
    Record,
    Rule,
    RuleSet,
    Sensor,
)


@total_ordering
class PotentialConflict(Record, identity=("kind", "rule_a", "rule_b")):
    """A rule pair that could violate a policy if events line up: a
    ``Record`` of ``kind``, ``rule_a`` and ``rule_b`` (the two rule ids in
    string order), which alone make its identity (``==``, ``hash`` and the
    ``<`` order).

    ``rules`` holds the pair's two rules in declaration order, or None for
    a record built from ids alone; ``note`` is derived from them when read,
    and names the rules in that order.
    """

    __slots__ = ("kind", "rule_a", "rule_b", "rules")

    def __init__(self, kind: ConflictKind, rule_a: str, rule_b: str,
                 rules: tuple[Rule, Rule] | None = None):
        _set_kind(self, kind)
        _set_rule_a(self, rule_a)
        _set_rule_b(self, rule_b)
        _set_rules(self, rules)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity(self) < self._identity(other)

    def __repr__(self):
        return (f"PotentialConflict(kind={self.kind!r}, "
                f"rule_a={self.rule_a!r}, rule_b={self.rule_b!r}, "
                f"note={self.note!r})")

    @property
    def note(self) -> str:
        """One line saying how the pair could conflict; empty when the
        record holds no rules."""
        if self.rules is None:
            return ""
        return NOTES[self.kind](*self.rules)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.rule_a, self.rule_b)


_set_kind, _set_rule_a, _set_rule_b, _set_rules = PotentialConflict.setters


# Each kind's note, one line saying how the pair's two rules, in
# declaration order, could conflict. ``PotentialConflict.note`` reads it.
NOTES = {
    ConflictKind.C1: lambda a, b: (
        f"controllers {a.controller} and {b.controller} can drive "
        f"{a.action.actuator} at the same time"),
    ConflictKind.C2: lambda a, b: (
        f"{a.action.actuator} and {b.action.actuator} can touch related "
        "features at the same time"),
    ConflictKind.C3: lambda a, b: (
        f"overlapping events can stack {a.action.action}/{b.action.action} "
        f"on {a.action.actuator}"),
    ConflictKind.C4: lambda a, b: (
        "overlapping events can push opposite actions on related features"),
    ConflictKind.C5: lambda a, b: (
        f"disjoint events can stack {a.action.action}/{b.action.action} "
        f"on {a.action.actuator}"),
    ConflictKind.C6: lambda a, b: (
        "disjoint events can push opposite actions on related features"),
}


def _scope(rule: Rule, ruleset: RuleSet) -> tuple[Sensor, ...]:
    """Sensors whose events could fire the rule."""
    out = []
    for sensor in ruleset.registry.sensors_by_kind.get(
            rule.trigger.sensor_kind, ()):
        if (rule.trigger.location_filter is None
                or sensor.location == rule.trigger.location_filter):
            out.append(sensor)
    return tuple(out)


def _interval(rule: Rule) -> tuple[float, float, bool]:
    """(low, high, closed) satisfying set of the trigger over the reals."""
    c, t = rule.trigger.comparator, rule.trigger.threshold
    if c is Cmp.GT:
        return (t, float("inf"), False)
    if c is Cmp.LT:
        return (float("-inf"), t, False)
    return (t, t, True)


def _intervals_intersect(r1: Rule, r2: Rule) -> bool:
    lo1, hi1, point1 = _interval(r1)
    lo2, hi2, point2 = _interval(r2)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo < hi:
        return True
    if lo > hi:
        return False
    # Interval tips touch; the shared point is a witness only when both
    # sides actually contain it (equality triggers do, strict ones do not).
    in1 = point1 or lo1 < lo < hi1
    in2 = point2 or lo2 < lo < hi2
    return in1 and in2


def gap_achievable(r1: Rule, r2: Rule, dmin: int, dmax: int,
                   day_length: int) -> bool:
    """Can the two triggers be active at ticks whose gap lies in
    [dmin, dmax]? Schedules repeat daily, so achievable gaps are unions of
    integer intervals shifted by multiples of the day length."""
    if dmax < dmin:
        return False
    sch1, sch2 = r1.trigger.schedule, r2.trigger.schedule
    if sch1 is None or sch2 is None:
        return True
    lo1, hi1 = sch1
    lo2, hi2 = sch2
    # d1 - d2 over active ticks of day spans [a, b], a <= b; some shift
    # [a + k*day, b + k*day] meets [lo, hi] when the least k with
    # b + k*day >= lo has a + k*day <= hi. Integer division keeps this
    # exact for windows of any size.
    a = lo1 - (hi2 - 1)
    b = (hi1 - 1) - lo2
    return any(-((b - lo) // day_length) <= (hi - a) // day_length
               for lo, hi in ((dmin, dmax), (-dmax, -dmin)))


def _similar_predicates(cfg: DetectorConfig) -> dict[tuple, set[tuple]]:
    """Per place pair (kind1, location1, kind2, location2), the predicate
    pairs (p1, p2) whose signatures the config's similarity classes make
    similar. Equal signatures are similar too, which no entry lists."""
    table: dict[tuple, set[tuple]] = {}
    for a, similar in cfg.similar_signatures.items():
        for b in similar:
            table.setdefault(
                (a.sensor_kind, a.location, b.sensor_kind, b.location),
                set()).add((a.predicate, b.predicate))
    return table


_DIAGONAL = frozenset((p, p) for p in Cmp)
_PREDICATE_PAIRS = len(Cmp) ** 2


# Signature requirement on the firing event pair: no constraint, must be
# similar, or must be dissimilar; or one reading that fires both rules.
_ANY, _SIMILAR, _DISSIMILAR = "any", "similar", "dissimilar"
_SHARED = "shared"
_SHARED_SHAPE = (0, 0, _SHARED)


class _Analysis:
    """State of one ``static_check`` call: the ruleset's ``PolicyTable``
    with each rule's profile, each rule's scope, the similar-predicate
    table, and the memos. The call drops it on return, so nothing grows."""

    def __init__(self, ruleset: RuleSet, cfg: DetectorConfig):
        self.rules = ruleset.rules
        self.day = ruleset.day_length
        # Built for every rule, so a config that does not cover a rule's
        # action or features raises even when pruning leaves it no pair.
        self.table = PolicyTable(ruleset, cfg)
        self.profiles = self.table.profiles
        self.scopes = [_scope(rule, ruleset) for rule in self.rules]
        self.scope_keys = [(r.trigger.sensor_kind, r.trigger.location_filter)
                           for r in self.rules]
        self.similar_predicates = _similar_predicates(cfg)
        self._sig_memo: dict[tuple, int] = {}
        self._scope_memo: dict[tuple, bool] = {}
        # The shapes of each non-empty gap class: any events, similar
        # events, dissimilar events.
        self.gap_shapes = [
            (g, (dmin, dmax, _ANY), (dmin, dmax, _SIMILAR),
             (dmin, dmax, _DISSIMILAR))
            for g, (dmin, dmax) in enumerate(self.table.gaps) if dmin <= dmax]

    def candidate_pairs(self) -> Iterator[tuple[int, int]]:
        """Index pairs i < j, in declaration order, of rules that share an
        actuator or touch related features. C1, C3 and C5 need the former,
        C2, C4 and C6 the latter, so no other pair can be tagged."""
        by_actuator: dict[str, list[int]] = {}
        by_feature: dict[str, list[int]] = {}
        for i, rule in enumerate(self.rules):
            by_actuator.setdefault(rule.action.actuator, []).append(i)
            for f in rule.action.affected_features:
                by_feature.setdefault(f, []).append(i)
        for i, rule in enumerate(self.rules):
            partners = set(by_actuator[rule.action.actuator])
            for f in self.profiles[i].near:
                partners.update(by_feature.get(f, ()))
            for j in sorted(partners):
                if j > i:
                    yield i, j

    def sig_ok(self, s1: Sensor, s2: Sensor, mode: str) -> bool:
        """Can events from the two sensors meet the signature requirement?
        Each event's predicate is free, so similar events need one similar
        predicate pair of the two places, and dissimilar events one that is
        not. Memoised per place pair, as the count of similar pairs."""
        if mode == _ANY:
            return True
        key = (s1.kind, s1.location, s2.kind, s2.location)
        similar = self._sig_memo.get(key)
        if similar is None:
            pairs = self.similar_predicates.get(key, set())
            if s1.kind == s2.kind and s1.location == s2.location:
                pairs = pairs | _DIAGONAL
            similar = self._sig_memo[key] = len(pairs)
        if mode == _SIMILAR:
            return similar > 0
        return similar < _PREDICATE_PAIRS

    def scopes_meet(self, i: int, j: int, mode: str, distinct: bool) -> bool:
        """Can a sensor in each rule's scope (two different sensors when
        ``distinct``) give events meeting the signature requirement?
        Memoised per pair of scopes, which rules share by trigger kind and
        location filter."""
        key = (self.scope_keys[i], self.scope_keys[j], mode, distinct)
        ok = self._scope_memo.get(key)
        if ok is None:
            ok = self._scope_memo[key] = any(
                self.sig_ok(a, b, mode)
                for a in self.scopes[i] for b in self.scopes[j]
                if not (distinct and a.id == b.id))
        return ok

    def shapes(self, facts: tuple) -> Iterator[tuple[tuple, tuple]]:
        """(shape, kinds) for each shape of a pair with these facts, read
        from the policy table; none when no shape violates a policy. A gap
        range whose similar and dissimilar events violate the same kinds is
        one shape, ``_ANY``; similar events overlap up to W and are disjoint
        past it."""
        entry = self.table[facts]
        if not entry:
            return
        for g, either, similar, dissimilar in self.gap_shapes:
            overlapping, disjoint, _ = entry[g]
            if overlapping is disjoint:
                yield either, disjoint
            else:
                yield similar, overlapping
                yield dissimilar, disjoint
        yield _SHARED_SHAPE, entry[0][2]

    def realisable(self, i: int, j: int, shape: tuple) -> bool:
        """Can the two rules fire in this shape? Distinct events at one tick
        need two sensors, and one shared reading must satisfy both
        triggers; staggered events may come from one sensor."""
        dmin, dmax, mode = shape
        r1, r2 = self.rules[i], self.rules[j]
        if not gap_achievable(r1, r2, dmin, dmax, self.day):
            return False
        if mode == _SHARED:
            return (any(a.id == b.id for a in self.scopes[i]
                        for b in self.scopes[j])
                    and _intervals_intersect(r1, r2))
        return self.scopes_meet(i, j, mode, distinct=dmin == 0)

    def pair_kinds(self, i: int, j: int) -> set[ConflictKind]:
        """The policies one candidate pair would violate: the union of
        ``policy_kinds`` over every shape the pair can realise. A shape is
        tested only when it would add a kind."""
        found: set[ConflictKind] = set()
        for shape, kinds in self.shapes(
                self.profiles[i].facts(self.profiles[j])):
            if (not found.issuperset(kinds)
                    and self.realisable(i, j, shape)):
                found.update(kinds)
        return found


def static_check(ruleset: RuleSet, cfg: DetectorConfig) -> list[PotentialConflict]:
    """Flag every unordered pair of distinct rules that could violate a
    policy, tagged with the policies it would violate. Only rules that
    share an actuator or touch related features are paired. The findings
    come in (kind, rule_a, rule_b) order."""
    analysis = _Analysis(ruleset, cfg)
    rules = ruleset.rules
    # One bucket of (rule_a, rule_b, rules) rows per kind, in kind order.
    buckets: dict[ConflictKind, list[tuple]] = {
        kind: [] for kind in ConflictKind if kind is not ConflictKind.C7}
    for i, j in analysis.candidate_pairs():
        r1, r2 = rules[i], rules[j]
        a, b = (r1.id, r2.id) if r1.id < r2.id else (r2.id, r1.id)
        row = (a, b, (r1, r2))
        for kind in analysis.pair_kinds(i, j):
            buckets[kind].append(row)
    out: list[PotentialConflict] = []
    for kind, rows in buckets.items():
        # Rule ids are unique and each pair meets once, so the id pair
        # orders a bucket and the rules are never compared.
        rows.sort()
        out.extend([PotentialConflict(kind, a, b, pair)
                    for a, b, pair in rows])
    return out
