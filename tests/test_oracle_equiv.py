"""Detector-versus-oracle equivalence and stream-level invariants."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_home, ev
from gen import group_by_tick, random_ruleset, random_trace
from tapcheck.detector import (
    Conflict,
    DetectionWindow,
    PolicyTable,
    RuleProfile,
    classify_pair,
    detect_at_tick,
    match_rules,
)
from tapcheck.errors import (
    DuplicateEventIdError,
    DuplicateSensorReadingError,
    InvalidEventError,
    OutOfOrderTickError,
    UnknownSensorKindError,
)
from tapcheck.model import Cmp, Event, EventSignature, Relation
from tapcheck.oracle import _pair_kinds, oracle_detect
from tapcheck.scenarios import build, load_bundle
from tapcheck.simulator import run_arm


def run_detector(trace, rs, cfg):
    """The detector's findings over a stream, checking that each call
    returns its findings in canonical order."""
    window = DetectionWindow(cfg)
    out = []
    for batch in group_by_tick(trace):
        found = detect_at_tick(batch, rs, window, cfg)
        assert found == sorted(found, key=Conflict.key)
        out.extend(found)
    return out


class TestOracleBasics:
    def test_empty_trace(self, alarm_home):
        rs, cfg = alarm_home
        assert oracle_detect([], rs, cfg) == set()

    def test_single_event_no_pair(self, alarm_home):
        rs, cfg = alarm_home
        trace = [ev(rs, "e1", "smoke1", 3, 1)]
        assert oracle_detect(trace, rs, cfg) == set()

    def test_order_within_tick_is_irrelevant(self, alarm_home):
        rs, cfg = alarm_home
        e1 = ev(rs, "e1", "smoke1", 7, 1)
        e2 = ev(rs, "e2", "leak1", 7, 1)
        assert oracle_detect([e1, e2], rs, cfg) == oracle_detect(
            [e2, e1], rs, cfg)


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(120))
    def test_detector_equals_oracle(self, seed):
        rng = np.random.default_rng(60_000 + seed)
        rs, cfg = random_ruleset(rng)
        trace = random_trace(rng, rs)
        got = sorted(c.key() for c in run_detector(trace, rs, cfg))
        want = sorted(oracle_detect(trace, rs, cfg))
        assert got == want
        # Exactly-once reporting: no duplicate keys in the detector output.
        assert len(got) == len(set(got))

    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_detector_equals_oracle_hypothesis(self, seed, p_event):
        rng = np.random.default_rng(seed)
        rs, cfg = random_ruleset(rng, max_rules=6)
        trace = random_trace(rng, rs, max_ticks=60, p_event=p_event)
        got = sorted(c.key() for c in run_detector(trace, rs, cfg))
        assert got == sorted(oracle_detect(trace, rs, cfg))

    def test_classifier_equals_oracle_per_pair(self):
        # Every firing pair within max(epsilon, W) of each other, across
        # rulesets with epsilon > W and with similarity classes.
        seen = set()
        for seed in range(300):
            rng = np.random.default_rng(90_000 + seed)
            rs, cfg = random_ruleset(rng)
            trace = random_trace(rng, rs)
            actions = [ta for e in trace for ta in match_rules(e, rs)]
            reach = max(cfg.same_tick_epsilon, cfg.overlap_window)
            for i, a in enumerate(actions):
                for b in actions[i + 1:]:
                    if b.time - a.time > reach:
                        break
                    got = [c.kind for c in classify_pair(a, b, cfg)]
                    assert got == _pair_kinds(a, b, cfg), (seed, a, b)
                    seen.update(got)
                    if cfg.same_tick_epsilon > cfg.overlap_window:
                        seen.add("epsilon > W")
                    if cfg.similarity_classes:
                        seen.add("similarity classes")
        assert seen == {"C1", "C2", "C3", "C4", "C5", "C6", "epsilon > W",
                        "similarity classes"}

    def test_per_tick_outputs_partition_the_oracle_set(self, alarm_home):
        # Each call's findings are exactly the oracle conflicts whose
        # detection tick is that call's tick.
        rs, cfg = alarm_home
        rng = np.random.default_rng(17)
        trace = []
        seq = 0
        for tick in range(300):
            for sensor_id, p in (("smoke1", 0.1), ("leak1", 0.1),
                                 ("co1", 0.1)):
                if rng.random() < p:
                    seq += 1
                    value = 1 if sensor_id != "co1" else 80
                    trace.append(ev(rs, f"e{seq}", sensor_id, tick, value))
        want = oracle_detect(trace, rs, cfg)
        window = DetectionWindow(cfg)
        for batch in group_by_tick(trace):
            tick = batch[0].time
            got_now = {c.key() for c in detect_at_tick(batch, rs, window,
                                                       cfg)}
            want_now = {key for key in want if key[1] == tick}
            assert got_now == want_now

    def test_bernoulli_alarm_trace_matches(self, alarm_home):
        # Two independent detection streams over a long horizon.
        rs, cfg = alarm_home
        rng = np.random.default_rng(99)
        trace = []
        seq = 0
        for tick in range(2000):
            for sensor_id, p in (("smoke1", 0.05), ("leak1", 0.07)):
                if rng.random() < p:
                    seq += 1
                    trace.append(ev(rs, f"e{seq}", sensor_id, tick, 1))
        got = sorted(c.key() for c in run_detector(trace, rs, cfg))
        want = sorted(oracle_detect(trace, rs, cfg))
        assert got == want


def _arm(name):
    """The events, ruleset and config of one arm of a built-in scenario."""
    scenario = build(name)
    bundle = load_bundle(scenario.ruleset)
    report = run_arm(scenario, bundle.ruleset, bundle.config, bundle.house)
    return report.events, bundle.ruleset, bundle.config


class TestReadingCount:
    """The window's count of readings, which lets ``check_c7`` skip its
    walk, holds exactly the readings of the window's events."""

    def check_stream(self, trace, rs, cfg):
        want = oracle_detect(trace, rs, cfg)
        window = DetectionWindow(cfg)
        for batch in group_by_tick(trace):
            got = {c.key() for c in detect_at_tick(batch, rs, window, cfg)}
            counts = window._readings
            assert sum(counts.values()) == len(window._events)
            assert all(held > 0 for held in counts.values())
            assert counts == dict(Counter(
                (e.sensor, float(e.value)) for e in window._events))
            assert got == {key for key in want if key[1] == batch[0].time}

    @pytest.mark.parametrize("seed", range(120))
    def test_count_bound_on_random_streams(self, seed):
        rng = np.random.default_rng(60_000 + seed)
        rs, cfg = random_ruleset(rng)
        self.check_stream(random_trace(rng, rs), rs, cfg)

    @pytest.mark.parametrize("name,kinds", [
        # S6's temperature sensor repeats; S7's clock never repeats within
        # the window, so no C7 walk runs.
        ("S6", {"C2", "C3", "C4", "C7"}), ("S7", set())])
    def test_count_bound_on_a_scenario_arm(self, name, kinds):
        trace, rs, cfg = _arm(name)
        assert {key[0] for key in oracle_detect(trace, rs, cfg)} == kinds
        self.check_stream(trace, rs, cfg)


# The action of r_b that relates to r_a's "x" as each relation.
_ACTION_AT = {Relation.SAME: "x", Relation.OPPOSITE: "y",
              Relation.DEPENDENT: "z", Relation.DIFFERENT: "w"}


def fact_home(same_actuator, rival, relation, related, eps, w):
    """Rules r_a and r_b, both fired by any temperature reading, whose
    pair has the given facts. s1 and s2 read with one signature."""
    return build_home(
        sensors=[("s1", "temperature", "F", "room1"),
                 ("s2", "temperature", "F", "room1")],
        actuators=[("d1", "dev", "room1", ("x", "y", "z", "w")),
                   ("d2", "dev", "room1", ("x", "y", "z", "w"))],
        controllers=["c1", "c2"],
        features=["f1", "f2", "f3"],
        edges=[("f1", "f2")],
        rules=[("r_a", "c1", ("temperature", ">", 0), ("d1", "x", ["f1"])),
               ("r_b", "c2" if rival else "c1", ("temperature", ">", 0),
                ("d1" if same_actuator else "d2", _ACTION_AT[relation],
                 ["f2" if related else "f3"]))],
        relations={"dev": [("x", "y", "opposite"), ("x", "z", "dependent")]},
        overlap_window=w, epsilon=eps)


def firing(rs, rule, event):
    return next(f for f in match_rules(event, rs) if f.rule == rule)


class TestPolicyRows:
    @pytest.mark.parametrize("eps", range(4))
    @pytest.mark.parametrize("w", range(1, 4))
    def test_every_row_equals_the_oracle(self, eps, w):
        # One firing pair for every fact tuple, every gap up to one past
        # max(eps, W) (so every gap class that exists), and every event
        # shape: one shared event, overlapping events, and disjoint
        # distinct events (dissimilar, or similar past W).
        gap_classes = [(lo, hi) for lo, hi in PolicyTable(
            *fact_home(True, True, Relation.SAME, True, eps, w)).gaps
            if lo <= hi]
        seen = set()
        for same_actuator in (False, True):
            for rival in (False, True):
                for relation in Relation:
                    for related in (False, True):
                        facts = (same_actuator, rival, relation, related)
                        rs, cfg = fact_home(*facts, eps, w)
                        for dt in range(max(eps, w) + 2):
                            e1 = ev(rs, "e1", "s1", 10, 50)
                            shapes = {
                                "similar": ev(rs, "e2", "s2", 10 + dt, 50),
                                "dissimilar": ev(rs, "e2", "s2", 10 + dt, 50,
                                                 pred=">")}
                            if dt == 0:
                                shapes["shared"] = e1
                            for shape, e2 in shapes.items():
                                a = firing(rs, "r_a", e1)
                                b = firing(rs, "r_b", e2)
                                assert RuleProfile.of(a, cfg).facts(
                                    RuleProfile.of(b, cfg)) == facts
                                for x, y in ((a, b), (b, a)):
                                    got = [c.kind
                                           for c in classify_pair(x, y, cfg)]
                                    assert got == _pair_kinds(x, y, cfg), (
                                        facts, dt, shape)
                                    seen.update(got)
                                seen.update(
                                    (shape, g) for g, (lo, hi)
                                    in enumerate(gap_classes)
                                    if lo <= dt <= hi)
        assert {"C1", "C2", "C3", "C4", "C5", "C6"} <= seen
        assert ("shared", 0) in seen
        for g in range(len(gap_classes)):
            assert {("similar", g), ("dissimilar", g)} <= seen


def formed_pairs(trace, rs, cfg) -> list[frozenset]:
    """Every firing pair the window's index forms over a stream, as the
    set of the two firing keys, once per time it is formed."""
    window = DetectionWindow(cfg)
    formed = []
    for batch in group_by_tick(trace):
        start = window.admit(batch, rs)
        formed.extend(frozenset((a.key(), b.key()))
                      for a, b in window.candidate_pairs(start))
    return formed


def overlapping_classes(rs) -> tuple[frozenset, frozenset]:
    """Two similarity classes over every signature the ruleset's sensors
    can emit, sharing one signature: the first signature is similar to the
    shared one and the shared one to the last, but not the first to the
    last."""
    sigs = sorted({EventSignature(s.kind, cmp, s.location)
                   for s in rs.registry.sensors.values() for cmp in Cmp},
                  key=EventSignature.compact)
    mid = len(sigs) // 2
    return frozenset(sigs[:mid + 1]), frozenset(sigs[mid:])


class TestPairIndex:
    """The window files firings by event signature, so past the epsilon
    only similar events pair; every pair it skips must violate nothing.
    With eps >= W nothing lies past the epsilon, so nothing is skipped.
    Similarity classes that share a signature must not make a pair form
    twice."""

    @pytest.mark.parametrize("eps", ["0", "W", "W+2"])
    def test_unformed_pairs_violate_nothing(self, eps):
        self.check_index(eps, overlapping=False)

    @pytest.mark.parametrize("eps", ["0", "W", "W+2"])
    def test_overlapping_classes_form_each_pair_once(self, eps):
        self.check_index(eps, overlapping=True)

    def check_index(self, eps, overlapping):
        """Over the generated cases, no pair forms twice, every unformed
        pair violates nothing and the detector equals the oracle."""
        seen = set()
        for seed in range(150):
            rng = np.random.default_rng(95_000 + seed)
            rs, cfg = random_ruleset(rng)
            w = cfg.overlap_window
            cfg = replace(cfg, same_tick_epsilon={"0": 0, "W": w,
                                                  "W+2": w + 2}[eps])
            if overlapping:
                cfg = replace(cfg, similarity_classes=overlapping_classes(rs))
            trace = random_trace(rng, rs)
            formed = formed_pairs(trace, rs, cfg)
            assert len(formed) == len(set(formed)), seed
            formed = set(formed)
            actions = [ta for e in trace for ta in match_rules(e, rs)]
            reach = max(cfg.same_tick_epsilon, w)
            for i, a in enumerate(actions):
                for b in actions[i + 1:]:
                    dt = b.time - a.time
                    if dt > reach:
                        break
                    kinds = [c.kind for c in classify_pair(a, b, cfg)]
                    if frozenset((a.key(), b.key())) not in formed:
                        assert kinds == [], (seed, a, b)
                        seen.add("skipped")
                    elif kinds and dt > cfg.same_tick_epsilon:
                        seen.add("same actuator past eps"
                                 if a.action.actuator == b.action.actuator
                                 else "opposite past eps")
                        if a.event.signature != b.event.signature:
                            seen.add("similar signatures past eps")
                    elif kinds and dt == cfg.same_tick_epsilon > 0:
                        seen.add("gap of eps")
            got = sorted(c.key() for c in run_detector(trace, rs, cfg))
            assert got == sorted(oracle_detect(trace, rs, cfg)), seed
        assert seen == {"0": {"skipped", "same actuator past eps",
                              "opposite past eps",
                              "similar signatures past eps"},
                        "W": {"gap of eps"},
                        "W+2": {"gap of eps"}}[eps]


class TestTriggerIndex:
    def test_match_rules_equals_linear_scan(self):
        # Readings on, next to and far from every threshold, against a
        # linear scan in declaration order.
        seen = set()
        for seed in range(30):
            rng = np.random.default_rng(97_000 + seed)
            rs, _ = random_ruleset(rng, max_rules=20)
            trace = random_trace(rng, rs, max_ticks=100)
            thresholds = sorted({r.trigger.threshold for r in rs.rules})
            values = [v + d for v in thresholds for d in (-0.5, 0.0, 0.5)]
            values += [-1.0, 101.0]
            for event in trace[:40]:
                for value in (float("nan"), float("inf"), -float("inf")):
                    # No event holds a reading that is not finite.
                    with pytest.raises(InvalidEventError,
                                       match="value must be finite"):
                        replace(event, value=value)
                for value in values:
                    e = replace(event, value=value)
                    want = [r for r in rs.rules
                            if r.trigger.matches(e, rs.day_length)]
                    got = match_rules(e, rs)
                    assert [f.rule for f in got] == [r.id for r in want]
                    for r in rs.rules:
                        t = r.trigger
                        if t.sensor_kind != e.signature.sensor_kind:
                            continue
                        holds = t.comparator.holds(value, t.threshold)
                        if holds and r in want and t.comparator.value == "==":
                            seen.add("== hit")
                        if value == t.threshold and not holds:
                            seen.add("reading at a strict threshold")
                        if holds and not t.active_at(e.time, rs.day_length):
                            seen.add("outside schedule")
                        if (holds and t.location_filter is not None
                                and t.location_filter
                                != e.signature.location):
                            seen.add("other location")
                    order = [(r.trigger.comparator.value,
                              r.trigger.threshold) for r in want]
                    if order != sorted(order):
                        seen.add("declaration order is not index order")
        assert seen == {"== hit", "reading at a strict threshold",
                        "outside schedule", "other location",
                        "declaration order is not index order"}


def shift_trace(trace: list[Event], k: int) -> list[Event]:
    return [Event(id=e.id, sensor=e.sensor, time=e.time + k, value=e.value,
                  unit=e.unit, signature=e.signature) for e in trace]


def shift_key(key: tuple, k: int) -> tuple:
    kind, tick, parts = key
    return (kind, tick + k,
            tuple((t + k, *rest) for t, *rest in parts))


class TestTimeShift:
    @pytest.mark.parametrize("seed", range(20))
    def test_shift_by_whole_days(self, seed):
        # Shifting by a day multiple preserves schedules, so conflicts
        # shift along exactly.
        rng = np.random.default_rng(70_000 + seed)
        rs, cfg = random_ruleset(rng)
        trace = random_trace(rng, rs)
        k = 3 * rs.day_length
        base = {shift_key(key, k) for key in oracle_detect(trace, rs, cfg)}
        moved = oracle_detect(shift_trace(trace, k), rs, cfg)
        assert base == moved

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("k", [1, 17])
    def test_arbitrary_shift_without_schedules(self, seed, k):
        rng = np.random.default_rng(80_000 + seed)
        rs, cfg = random_ruleset(rng)
        # Drop schedules so tick-of-day alignment cannot matter.
        from dataclasses import replace
        rules = tuple(replace(r, trigger=replace(r.trigger, schedule=None))
                      for r in rs.rules)
        rs = replace(rs, rules=rules)
        trace = random_trace(rng, rs)
        base = {shift_key(key, k)
                for key in oracle_detect(trace, rs, cfg)}
        moved = oracle_detect(shift_trace(trace, k), rs, cfg)
        assert base == moved
        got = sorted(c.key() for c in run_detector(shift_trace(trace, k),
                                                   rs, cfg))
        assert got == sorted(moved)


class TestOutputOrder:
    def test_pair_and_repeat_findings_of_one_tick_in_key_order(self):
        # Twelve sensors read twice, so the earlier readings' ids (e1..e12)
        # sort as strings ("e10" < "e2"), not as numbers. Both readings of
        # every sensor fire rival rules on one actuator (C1, C3), and s0
        # drifts within its tolerance yet still repeats (C7).
        sensors = [(f"s{i}", "temperature", "F", "room1", 0.5 if i == 0
                    else 0.0) for i in range(12)]
        rs, cfg = build_home(
            sensors=sensors,
            actuators=[("th1", "thermostat", "room1", ("heat", "off"))],
            controllers=["app", "auto"],
            features=["temperature@room1"],
            rules=[("r_heat", "app", ("temperature", ">", 50),
                    ("th1", "heat", ["temperature@room1"])),
                   ("r_off", "auto", ("temperature", ">", 50),
                    ("th1", "off", ["temperature@room1"]))],
            relations={"thermostat": [("heat", "off", "different")]})
        trace = [ev(rs, f"e{12 * tick + i + 1}", f"s{i}", tick,
                    60.3 if tick and i == 0 else 60) for tick in (0, 1)
                 for i in range(12)]
        window = DetectionWindow(cfg)
        detect_at_tick(trace[:12], rs, window, cfg)
        found = detect_at_tick(trace[12:], rs, window, cfg)
        assert found == sorted(found, key=Conflict.key)
        kinds = {c.kind.value for c in found}
        assert {"C1", "C3", "C7"} <= kinds
        repeats = [c.participants for c in found if c.kind.value == "C7"]
        earlier = [a.id for a, _ in repeats]
        assert len(earlier) == 12
        assert earlier != sorted(earlier, key=lambda eid: int(eid[1:]))
        assert any(a.value != b.value for a, b in repeats)
        assert ({c.key() for c in found}
                == {key for key in oracle_detect(trace, rs, cfg)
                    if key[1] == 1})


class TestSameTickBatches:
    def test_split_batches_at_one_tick_report_once(self, alarm_home):
        # Feeding one tick in two calls behaves like one larger batch.
        rs, cfg = alarm_home
        e1 = ev(rs, "e1", "smoke1", 5, 1)
        e2 = ev(rs, "e2", "leak1", 5, 1)
        window = DetectionWindow(cfg)
        out = detect_at_tick([e1], rs, window, cfg)
        out += detect_at_tick([e2], rs, window, cfg)
        assert sorted([c.key() for c in out]) == sorted(
            oracle_detect([e1, e2], rs, cfg))

    def test_random_split_batches_equal_the_oracle(self):
        # Each tick's batch split at a random point into two calls, over
        # rulesets a third of which have eps > W: the findings equal the
        # oracle's, none twice, while rule profiles compile across calls.
        seen = set()
        for seed in range(400):
            rng = np.random.default_rng(120_000 + seed)
            rs, cfg = random_ruleset(rng)
            if seed % 3 == 0:
                cfg = replace(cfg, same_tick_epsilon=cfg.overlap_window
                              + int(rng.integers(1, 4)))
            trace = random_trace(rng, rs)
            window = DetectionWindow(cfg)
            got = []
            for batch in group_by_tick(trace):
                cut = int(rng.integers(0, len(batch) + 1))
                for part in (batch[:cut], batch[cut:]):
                    got.extend(c.key() for c in detect_at_tick(
                        part, rs, window, cfg))
                if 0 < cut < len(batch):
                    seen.add("split")
            assert len(got) == len(set(got)), seed
            assert sorted(got) == sorted(oracle_detect(trace, rs, cfg)), seed
            if got and cfg.same_tick_epsilon > cfg.overlap_window:
                seen.add("findings at eps > W")
        assert seen == {"split", "findings at eps > W"}


def bad_batch(fault, batches, cut, cfg):
    """The batch at ``batches[cut]`` with one fault, rejected by the window
    after the batches before it, or None when this cut cannot hold it. The
    fault sits in the batch's last event, after the good ones."""
    batch, last = batches[cut], batches[cut - 1][-1]
    *good, event = batch
    if fault == "undeclared sensor":
        return good + [replace(event, sensor="ghost")]
    if fault == "live id":
        if event.time - cfg.horizon > last.time:
            return None
        return good + [replace(event, id=last.id)]
    if fault == "second reading":
        return batch + [replace(batch[0], id="again")]
    if cut < 2:  # "lower tick": before the last tick, yet a valid one
        return None
    return [replace(e, time=batches[0][0].time) for e in batch]


class TestRejectedBatches:
    @pytest.mark.parametrize("value,message", [
        ("1", "value must be a number, not '1'"),
        (float("nan"), "value must be finite")],
        ids=["str value", "nan value"])
    def test_malformed_reading_rejected_when_built(self, value, message):
        # No batch can hold such a reading: its event refuses it as it is
        # built, before any window sees it.
        rng = np.random.default_rng(180_000)
        rs, _ = random_ruleset(rng)
        for event in random_trace(rng, rs)[:20]:
            with pytest.raises(InvalidEventError) as err:
                replace(event, value=value)
            assert str(err.value) == message

    @pytest.mark.parametrize("fault,error", [
        ("undeclared sensor", UnknownSensorKindError),
        ("live id", DuplicateEventIdError),
        ("second reading", DuplicateSensorReadingError),
        ("lower tick", OutOfOrderTickError)])
    def test_rejected_batch_leaves_the_stream_as_it_was(self, fault, error):
        # One bad batch inserted mid-stream, into a populated window, raises
        # and changes nothing: the stream then goes on to the same findings
        # as the stream without it.
        tried = 0
        for seed in range(60):
            rng = np.random.default_rng(180_000 + seed)
            rs, cfg = random_ruleset(rng)
            batches = group_by_tick(random_trace(rng, rs))
            if len(batches) < 3:
                continue
            cut = int(rng.integers(1, len(batches)))
            bad = bad_batch(fault, batches, cut, cfg)
            if bad is None:
                continue
            tried += 1
            window = DetectionWindow(cfg)
            got = []
            for i, batch in enumerate(batches):
                if i == cut:
                    with pytest.raises(error):
                        detect_at_tick(bad, rs, window, cfg)
                got.extend(detect_at_tick(batch, rs, window, cfg))
            want = run_detector([e for b in batches for e in b], rs, cfg)
            assert got == want, seed
            assert [c.note for c in got] == [c.note for c in want], seed
        assert tried >= 30
