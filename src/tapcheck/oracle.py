"""Brute-force reference implementations of the conflict checks.

These exist to pin down ground truth: ``oracle_detect`` materializes every
rule firing for a whole trace up front and tests every pair against the
policy definitions written out longhand, with none of the sliding-window
machinery the online detector uses. ``oracle_static`` decides rule-pair
co-satisfiability by sampling the trigger space on a value grid and scanning
ticks of day for schedule witnesses, instead of reasoning about intervals.
Property tests require the optimized paths to agree with these exactly.
"""

from itertools import combinations

from .detector import ConflictKind, TriggeredAction, match_rules
from .model import (
    Cmp,
    DetectorConfig,
    Event,
    EventSignature,
    Relation,
    Rule,
    RuleSet,
    Sensor,
    overlapping_events,
)
from .static import PotentialConflict


def _relation(a: TriggeredAction, b: TriggeredAction,
              cfg: DetectorConfig) -> Relation:
    return cfg.action_relations.relation(
        a.actuator_kind, a.action.action, b.actuator_kind, b.action.action)


def _pair_kinds(a: TriggeredAction, b: TriggeredAction,
                cfg: DetectorConfig) -> list[ConflictKind]:
    """Every pair policy the two firings violate, written longhand."""
    kinds = []
    dt = abs(a.time - b.time)
    eps = cfg.same_tick_epsilon
    distinct_rules = a.rule != b.rule
    same_actuator = a.action.actuator == b.action.actuator
    overlap = overlapping_events(a.event, b.event, cfg)
    related = cfg.features_related(a.action.affected_features,
                                   b.action.affected_features)
    relation = _relation(a, b, cfg)
    stacked = (relation is not Relation.SAME
               or 0 < dt <= cfg.overlap_window)

    if (distinct_rules and same_actuator and a.controller != b.controller
            and dt <= eps):
        kinds.append(ConflictKind.C1)
    if (distinct_rules and not same_actuator
            and a.controller != b.controller and dt <= eps and related):
        kinds.append(ConflictKind.C2)
    if distinct_rules and same_actuator and overlap and stacked:
        kinds.append(ConflictKind.C3)
    if (distinct_rules and overlap and relation is Relation.OPPOSITE
            and related):
        kinds.append(ConflictKind.C4)
    if (distinct_rules and same_actuator and a.event.id != b.event.id
            and not overlap and dt <= eps and stacked):
        kinds.append(ConflictKind.C5)
    if (distinct_rules and a.event.id != b.event.id and not overlap
            and dt <= eps and relation is Relation.OPPOSITE and related):
        kinds.append(ConflictKind.C6)
    return kinds


def _pair_key(kind: ConflictKind, a: TriggeredAction,
              b: TriggeredAction) -> tuple:
    ka, kb = a.key(), b.key()
    if kb < ka:
        ka, kb = kb, ka
    return (kind.value, max(a.time, b.time), (ka, kb))


def oracle_detect(trace: list[Event], ruleset: RuleSet,
                  cfg: DetectorConfig) -> set[tuple]:
    """The complete conflict set of a trace, as canonical conflict keys.

    Materializes all triggered actions first, then tests every unordered
    action pair and every ordered same-sensor event pair against the policy
    definitions. The trace must be sorted by tick.
    """
    actions: list[TriggeredAction] = []
    for event in trace:
        actions.extend(match_rules(event, ruleset))

    found: set[tuple] = set()
    bound = max(cfg.overlap_window, cfg.duplicate_window,
                cfg.same_tick_epsilon)
    for i, a in enumerate(actions):
        for b in actions[i + 1:]:
            if b.time - a.time > bound:
                # No policy looks farther back than this; later pairs in
                # the time-sorted list only grow the gap.
                break
            for kind in _pair_kinds(a, b, cfg):
                found.add(_pair_key(kind, a, b))

    sensors = ruleset.registry.sensors
    for i, e1 in enumerate(trace):
        for e2 in trace[i + 1:]:
            if e2.time - e1.time > cfg.duplicate_window:
                break
            if (e1.sensor == e2.sensor
                    and 0 < e2.time - e1.time
                    and e1.signature == e2.signature
                    and abs(e1.value - e2.value)
                    <= sensors[e1.sensor].tolerance):
                found.add((ConflictKind.C7.value, e2.time,
                           ((e1.time, e1.id), (e2.time, e2.id))))
    return found


def _grid(sensor: Sensor, thresholds: list[float]) -> list[float]:
    """Sample values for one sensor: its range endpoints, every relevant
    threshold with a point just below and above, and midpoints between
    adjacent points. Exact for interval triggers."""
    points = {sensor.range[0], sensor.range[1]}
    for t in thresholds:
        points.update((t - 1.0, t, t + 1.0))
    ordered = sorted(points)
    mids = [(x + y) / 2.0 for x, y in zip(ordered, ordered[1:])]
    return sorted(set(ordered + mids))


def _value_fires(rule: Rule, sensor: Sensor, value: float) -> bool:
    trig = rule.trigger
    return (trig.sensor_kind == sensor.kind
            and (trig.location_filter is None
                 or sensor.location == trig.location_filter)
            and trig.comparator.holds(value, trig.threshold))


def _tod_pair_exists(r1: Rule, r2: Rule, dmin: int, dmax: int,
                     day: int) -> bool:
    """Scan ticks of day for active instants with a gap in [dmin, dmax]."""
    if dmax < dmin:
        return False
    if r1.trigger.schedule is None or r2.trigger.schedule is None:
        return True
    for t1 in range(day):
        if not r1.trigger.active_at(t1, day):
            continue
        for d in range(dmin, dmax + 1):
            # Python's modulo keeps t1 - d in range for active_at.
            if (r2.trigger.active_at(t1 + d, day)
                    or r2.trigger.active_at(t1 - d, day)):
                return True
    return False


def _sig_witness(s1: Sensor, s2: Sensor, want_similar: bool,
                 cfg: DetectorConfig) -> bool:
    for p1 in Cmp:
        for p2 in Cmp:
            sim = cfg.similar(EventSignature(s1.kind, p1, s1.location),
                              EventSignature(s2.kind, p2, s2.location))
            if sim == want_similar:
                return True
    return False


class _BruteforcePair:
    """Witness search for one rule pair by explicit enumeration."""

    def __init__(self, r1: Rule, r2: Rule, ruleset: RuleSet,
                 cfg: DetectorConfig):
        self.r1, self.r2 = r1, r2
        self.cfg = cfg
        self.day = ruleset.day_length
        thresholds = [r1.trigger.threshold, r2.trigger.threshold]
        self.candidates1 = self._firing_sensors(r1, ruleset, thresholds)
        self.candidates2 = self._firing_sensors(r2, ruleset, thresholds)

    @staticmethod
    def _firing_sensors(rule: Rule, ruleset: RuleSet,
                        thresholds: list[float]):
        """(sensor, satisfying grid values) pairs for one trigger."""
        out = []
        for sensor in ruleset.registry.sensors.values():
            values = [v for v in _grid(sensor, thresholds)
                      if _value_fires(rule, sensor, v)]
            if values:
                out.append((sensor, values))
        return out

    def same_tick(self, mode: str, distinct_events: bool) -> bool:
        if not _tod_pair_exists(self.r1, self.r2, 0, 0, self.day):
            return False
        for s1, values1 in self.candidates1:
            for s2, values2 in self.candidates2:
                if s1.id == s2.id:
                    if distinct_events:
                        continue
                    # One sensor, one tick: a single shared reading.
                    if mode == "any" and any(v in values2 for v in values1):
                        return True
                    continue
                if self._sig_ok(s1, s2, mode):
                    return True
        return False

    def staggered(self, dmin: int, dmax: int, mode: str) -> bool:
        dmin = max(dmin, 1)
        if dmax < dmin:
            return False
        if not _tod_pair_exists(self.r1, self.r2, dmin, dmax, self.day):
            return False
        for s1, _ in self.candidates1:
            for s2, _ in self.candidates2:
                if self._sig_ok(s1, s2, mode):
                    return True
        return False

    def _sig_ok(self, s1: Sensor, s2: Sensor, mode: str) -> bool:
        if mode == "any":
            return True
        return _sig_witness(s1, s2, mode == "similar", self.cfg)


def oracle_static(ruleset: RuleSet,
                  cfg: DetectorConfig) -> set[PotentialConflict]:
    """Exhaustive pairwise co-satisfiability by explicit enumeration,
    tagged with the policies each pair would violate."""
    out: set[PotentialConflict] = set()
    eps = cfg.same_tick_epsilon
    win = cfg.overlap_window
    actuators = ruleset.registry.actuators

    for r1, r2 in combinations(ruleset.rules, 2):
        pair = _BruteforcePair(r1, r2, ruleset, cfg)
        same_actuator = r1.action.actuator == r2.action.actuator
        diff_controller = r1.controller != r2.controller
        related = cfg.features_related(r1.action.affected_features,
                                       r2.action.affected_features)
        relation = cfg.action_relations.relation(
            actuators[r1.action.actuator].kind, r1.action.action,
            actuators[r2.action.actuator].kind, r2.action.action)
        repeat = relation is Relation.SAME

        simultaneous = (pair.same_tick("any", distinct_events=False)
                        or pair.staggered(1, eps, "any"))
        overlap = (pair.same_tick("similar", distinct_events=True)
                   or pair.staggered(1, win, "similar"))
        overlap_staggered = pair.staggered(1, win, "similar")
        disjoint = (pair.same_tick("dissimilar", distinct_events=True)
                    or pair.staggered(1, eps, "dissimilar")
                    or pair.staggered(win + 1, eps, "similar"))
        disjoint_repeat = pair.staggered(1, min(eps, win), "dissimilar")

        a, b = sorted((r1.id, r2.id))

        def tag(kind, a=a, b=b):
            out.add(PotentialConflict(kind=kind, rule_a=a, rule_b=b))

        if same_actuator and diff_controller and simultaneous:
            tag(ConflictKind.C1)
        if (not same_actuator) and diff_controller and related and simultaneous:
            tag(ConflictKind.C2)
        if same_actuator and (overlap_staggered if repeat else overlap):
            tag(ConflictKind.C3)
        if relation is Relation.OPPOSITE and related and overlap:
            tag(ConflictKind.C4)
        if same_actuator and (disjoint_repeat if repeat else disjoint):
            tag(ConflictKind.C5)
        if relation is Relation.OPPOSITE and related and disjoint:
            tag(ConflictKind.C6)
    return out
