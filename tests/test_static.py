"""Static misconfiguration analysis and its brute-force twin."""

import copy
import pickle
import weakref
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from conftest import build_home
from gen import group_by_tick, random_ruleset, random_trace
from tapcheck.detector import ConflictKind, DetectionWindow, detect_at_tick
from tapcheck.errors import (
    ReferentialIntegrityError,
    UnknownActionError,
    UnknownFeatureError,
)
from tapcheck.model import (
    ActionRelationTable,
    Cmp,
    EventSignature,
    FeatureDependencyGraph,
)
from tapcheck.oracle import _sig_witness, oracle_static
from tapcheck.static import (
    PotentialConflict,
    _Analysis,
    gap_achievable,
    static_check,
)


def tags(findings):
    return {(f.kind.value, f.rule_a, f.rule_b) for f in findings}


class TestStaticExamples:
    def test_seeded_same_actuator_two_controllers(self, alarm_home):
        rs, cfg = alarm_home
        found = tags(static_check(rs, cfg))
        assert ("C1", "r_leak", "r_smoke") in found

    def test_conflict_free_by_construction(self):
        # Every actuator owned by one controller, all features independent,
        # one rule per actuator.
        rules = []
        sensors = []
        actuators = []
        features = []
        for i in range(6):
            sensors.append((f"s{i}", f"kind{i}", "u", "room1"))
            actuators.append((f"a{i}", f"akind{i}", "room1", ("go", "stop")))
            features.append(f"f{i}@room1")
            rules.append((f"r{i}", "home", (f"kind{i}", ">", 10),
                          (f"a{i}", "go", [f"f{i}@room1"])))
        rs, cfg = build_home(sensors=sensors, actuators=actuators,
                             controllers=["home"], features=features,
                             rules=rules)
        assert static_check(rs, cfg) == []

    def test_window_vs_thermostat_schedule_pair(self):
        # A hot-day window rule and an evening thermostat-off rule touch the
        # same temperature through opposite actions on disjoint events.
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1"),
                     ("clock1", "clock", "tick", "room1")],
            actuators=[("window1", "window", "room1", ("open", "close")),
                       ("th1", "thermostat", "room1", ("heat", "off"))],
            controllers=["home", "mgmt"],
            features=["temperature@room1"],
            rules=[("r_hot_window", "home", ("temperature", ">", 80),
                    ("window1", "open", ["temperature@room1"])),
                   ("r_evening_off", "mgmt", ("clock", ">", 647),
                    ("th1", "off", ["temperature@room1"]))],
            relations={"window|thermostat": [("open", "off", "opposite")]})
        found = tags(static_check(rs, cfg))
        assert ("C6", "r_evening_off", "r_hot_window") in found

    def test_disjoint_intervals_on_one_sensor_excluded(self):
        # One shared sensor, one reading per tick: temp<60 and temp>80
        # cannot co-fire simultaneously.
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1")],
            actuators=[("a1", "alarm", "room1", ("sound",)),
                       ("a2", "siren", "room1", ("sound",))],
            controllers=["x", "y"],
            features=["alert@room1"],
            rules=[("r_cold", "x", ("temperature", "<", 60),
                    ("a1", "sound", ["alert@room1"])),
                   ("r_hot", "y", ("temperature", ">", 80),
                    ("a2", "sound", ["alert@room1"]))])
        found = tags(static_check(rs, cfg))
        assert not any(k in ("C1", "C2", "C5", "C6") for k, *_ in found)

    def test_different_sensors_decouple_readings(self):
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1"),
                     ("h1", "humidity", "pct", "room1")],
            actuators=[("a1", "alarm", "room1", ("sound",))],
            controllers=["x", "y"],
            features=["alert@room1"],
            rules=[("r_cold", "x", ("temperature", "<", 60),
                    ("a1", "sound", ["alert@room1"])),
                   ("r_dry", "y", ("humidity", "<", 20),
                    ("a1", "sound", ["alert@room1"]))])
        found = tags(static_check(rs, cfg))
        assert ("C1", "r_cold", "r_dry") in found

    def test_overlapping_intervals_on_one_sensor_included(self):
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1")],
            actuators=[("a1", "alarm", "room1", ("sound", "flash"))],
            controllers=["x", "y"],
            features=["alert@room1"],
            rules=[("r_a", "x", ("temperature", "<", 70),
                    ("a1", "sound", ["alert@room1"])),
                   ("r_b", "y", ("temperature", ">", 60),
                    ("a1", "flash", ["alert@room1"]))])
        found = tags(static_check(rs, cfg))
        assert ("C1", "r_a", "r_b") in found

    @pytest.mark.parametrize("cmp", [">", "<"])
    @pytest.mark.parametrize("equal_first", [False, True],
                             ids=["strict_first", "equal_first"])
    def test_touching_interval_tips_share_no_reading(self, cmp, equal_first):
        # ``temp > 50`` (or ``< 50``) and ``temp == 50`` meet only at 50,
        # which the strict trigger leaves out, so no one reading fires both:
        # the pair conflicts across readings (C3, C4), never on one (C1).
        rules = [("r_strict", "x", ("temperature", cmp, 50),
                  ("th1", "heat", ["temperature@room1"])),
                 ("r_eq", "y", ("temperature", "==", 50),
                  ("th1", "cool", ["temperature@room1"]))]
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1")],
            actuators=[("th1", "thermostat", "room1", ("heat", "cool"))],
            controllers=["x", "y"],
            features=["temperature@room1"],
            rules=rules[::-1] if equal_first else rules,
            relations={"thermostat": [("heat", "cool", "opposite")]})
        found = tags(static_check(rs, cfg))
        assert found == {(p.kind.value, p.rule_a, p.rule_b)
                         for p in oracle_static(rs, cfg)}
        assert {kind for kind, *_ in found} == {"C3", "C4"}


class TestSimilarEventsPastWindow:
    def test_one_similar_sensor_stacks_overlapping_and_disjoint(self):
        # Every reading of t1 is similar to every other, so the events of a
        # staggered pair overlap within W = 2 ticks and are disjoint at gaps
        # 3..4, inside epsilon = 4. One sensor gives no two events at one
        # tick, and one controller rules out C1.
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1")],
            actuators=[("a1", "alarm", "room1", ("sound", "flash"))],
            controllers=["x"],
            features=["alert@room1"],
            classes=[[("temperature", c, "room1") for c in (">", "<", "==")]],
            overlap_window=2, epsilon=4,
            rules=[("r_sound", "x", ("temperature", ">", 50),
                    ("a1", "sound", ["alert@room1"])),
                   ("r_flash", "x", ("temperature", ">", 50),
                    ("a1", "flash", ["alert@room1"]))])
        found = tags(static_check(rs, cfg))
        assert found == {("C3", "r_flash", "r_sound"),
                         ("C5", "r_flash", "r_sound")}
        assert found == {(p.kind.value, p.rule_a, p.rule_b)
                         for p in oracle_static(rs, cfg)}


class TestCandidatePruning:
    @pytest.mark.parametrize("relation,kinds", [
        ("opposite", {"C2", "C4", "C6"}),
        ("different", {"C2"}),
    ])
    def test_reverse_multi_hop_dependency_is_paired(self, relation, kinds):
        # f_a -> f_b -> f_c: the earlier rule touches only f_c and the later
        # only f_a, on different actuators, so only reachability followed
        # backwards over two hops relates them.
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1"),
                     ("t2", "temperature", "F", "room1")],
            actuators=[("heater1", "heater", "room1", ("heat", "idle")),
                       ("fan1", "fan", "room1", ("cool", "idle"))],
            controllers=["x", "y"],
            features=["f_a", "f_b", "f_c"],
            edges=[("f_a", "f_b"), ("f_b", "f_c")],
            rules=[("r_c", "x", ("temperature", ">", 50),
                    ("heater1", "heat", ["f_c"])),
                   ("r_a", "y", ("temperature", ">", 50),
                    ("fan1", "cool", ["f_a"]))],
            relations={"heater|fan": [("heat", "cool", relation)]})
        found = tags(static_check(rs, cfg))
        assert found == {(k, "r_a", "r_c") for k in kinds}

    @pytest.mark.parametrize("action,features,error", [
        ("explode", ["f2"], UnknownActionError),
        ("go", ["ghost"], UnknownFeatureError),
    ])
    def test_undeclared_name_raises_without_a_partner(self, action, features,
                                                      error):
        # The registry declares every name, and the config lacks r_bad's.
        # No other rule shares r_bad's actuator or features, so no candidate
        # pair reaches it; the check must still reject the config.
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1")],
            actuators=[("a1", "siren", "room1", ("go", "stop", "explode")),
                       ("a2", "siren", "room1", ("go", "stop", "explode"))],
            controllers=["x"],
            features=["f1", "f2", "ghost"],
            rules=[("r_ok", "x", ("temperature", ">", 50),
                    ("a1", "go", ["f1"])),
                   ("r_bad", "x", ("temperature", ">", 50),
                    ("a2", action, features))])
        cfg = replace(
            cfg, action_relations=ActionRelationTable(
                vocabulary={"siren": frozenset({"go", "stop"})}),
            dependency_graph=FeatureDependencyGraph(
                nodes=frozenset({"f1", "f2"}), edges=frozenset()))
        with pytest.raises(error):
            static_check(rs, cfg)

    def test_undeclared_actuator_raises(self, alarm_home):
        # The ruleset rejects the rule as it is built, so no check meets it.
        rs, _ = alarm_home
        rule = rs.rules[2]  # r_co
        with pytest.raises(ReferentialIntegrityError,
                           match="^rule 'r_co' references undeclared "
                                 "actuator 'nope'$"):
            replace(rs, rules=rs.rules[:2] + (replace(
                rule, action=replace(rule.action, actuator="nope")),))


class TestScheduleGaps:
    def brute(self, s1, s2, dmin, dmax, day):
        rs, _ = build_home(
            sensors=[("t1", "temperature", "F", "room1")],
            actuators=[("a1", "alarm", "room1", ("sound",))],
            controllers=["x"], features=["f@room1"],
            rules=[("r1", "x", ("temperature", ">", 0, None, s1),
                    ("a1", "sound", ["f@room1"])),
                   ("r2", "x", ("temperature", ">", 0, None, s2),
                    ("a1", "sound", ["f@room1"]))],
            day_length=day)
        r1, r2 = rs.rules
        hits = set()
        for t1 in range(3 * day):
            for t2 in range(3 * day):
                if (r1.trigger.active_at(t1, day)
                        and r2.trigger.active_at(t2, day)
                        and dmin <= abs(t1 - t2) <= dmax):
                    hits.add(True)
        return (r1, r2, bool(hits))

    @pytest.mark.parametrize("s1,s2,dmin,dmax", [
        ((0, 10), (20, 30), 0, 5),
        ((0, 10), (20, 30), 0, 11),
        ((0, 10), (0, 10), 1, 5),
        ((5, 6), (5, 6), 1, 5),
        ((5, 6), (5, 6), 0, 0),
        ((0, 5), (40, 48), 0, 10),
        ((40, 48), (0, 5), 0, 10),
    ])
    def test_matches_brute_force(self, s1, s2, dmin, dmax):
        day = 48
        r1, r2, expected = self.brute(s1, s2, dmin, dmax, day)
        assert gap_achievable(r1, r2, dmin, dmax, day) == expected

    @pytest.mark.parametrize("s1,s2", [((0, 10), (20, 30)), ((5, 6), (5, 6)),
                                       ((0, 5), (40, 48))])
    def test_window_beyond_the_float_range(self, s1, s2):
        # A window is any integer >= 0, so 10**400 is one. Gaps repeat
        # every day, so a far window answers as its shift into the second
        # day does; float division once overflowed on it.
        day, far = 48, 10**400
        for width in (0, 2, 40):
            near = (far - width) % day + day
            r1, r2, expected = self.brute(s1, s2, near, near + width, day)
            assert gap_achievable(r1, r2, far - width, far, day) == expected

    def test_random_against_brute_force(self):
        rng = np.random.default_rng(7)
        day = 24
        for _ in range(150):
            a = int(rng.integers(0, day - 1))
            s1 = (a, int(rng.integers(a + 1, day + 1)))
            b = int(rng.integers(0, day - 1))
            s2 = (b, int(rng.integers(b + 1, day + 1)))
            dmin = int(rng.integers(0, 4))
            dmax = dmin + int(rng.integers(0, 6))
            r1, r2, expected = self.brute(s1, s2, dmin, dmax, day)
            assert gap_achievable(r1, r2, dmin, dmax, day) == expected, (
                s1, s2, dmin, dmax)


class TestAgainstBruteForce:
    # random_ruleset rarely draws an epsilon past the overlap window, so
    # the second set of seeds forces one.
    @pytest.mark.parametrize(
        "seed,eps_past_window",
        [(s, False) for s in range(60)] + [(s, True) for s in range(30)],
        ids=[str(s) for s in range(60)]
        + [f"eps_past_window-{s}" for s in range(30)])
    def test_matches_sampling_oracle(self, seed, eps_past_window):
        rng = np.random.default_rng(40_000 + seed)
        rs, cfg = random_ruleset(rng, max_rules=8)
        if eps_past_window:
            cfg = replace(cfg, same_tick_epsilon=cfg.overlap_window
                          + 1 + seed % 3)
        got = tags(static_check(rs, cfg))
        want = {(p.kind.value, p.rule_a, p.rule_b)
                for p in oracle_static(rs, cfg)}
        assert got == want

    def test_matches_oracle_when_pairs_are_pruned(self):
        # Up to eight actuators over several feature components, so many
        # pairs share neither an actuator nor a related feature.
        all_pairs = candidates = 0
        for seed in range(60):
            rng = np.random.default_rng(60_000 + seed)
            rs, cfg = random_ruleset(rng, max_rules=16, max_actuators=8)
            n = len(rs.rules)
            all_pairs += n * (n - 1) // 2
            candidates += sum(1 for _ in _Analysis(rs, cfg).candidate_pairs())
            got = tags(static_check(rs, cfg))
            want = {(p.kind.value, p.rule_a, p.rule_b)
                    for p in oracle_static(rs, cfg)}
            assert got == want, seed
        assert candidates < 0.8 * all_pairs

    @pytest.mark.parametrize("seed", range(40))
    def test_covers_every_dynamic_pair_conflict(self, seed):
        rng = np.random.default_rng(50_000 + seed)
        rs, cfg = random_ruleset(rng)
        trace = random_trace(rng, rs)
        window = DetectionWindow(cfg)
        dynamic = []
        for batch in group_by_tick(trace):
            dynamic.extend(detect_at_tick(batch, rs, window, cfg))
        static_pairs = tags(static_check(rs, cfg))
        for conflict in dynamic:
            if conflict.kind is ConflictKind.C7:
                continue
            a, b = conflict.participants
            ra, rb = sorted((a.rule, b.rule))
            assert (conflict.kind.value, ra, rb) in static_pairs


def _sig_mismatches(rs, cfg):
    """Sensor pairs and modes on which the signature table disagrees with
    the brute-force search over predicate pairs; every pair of the
    registry's sensors, each sensor with itself included."""
    analysis = _Analysis(rs, cfg)
    sensors = list(rs.registry.sensors.values())
    return [(s1.id, s2.id, mode)
            for s1, s2 in product(sensors, repeat=2)
            for mode in ("similar", "dissimilar")
            if analysis.sig_ok(s1, s2, mode)
            != _sig_witness(s1, s2, mode == "similar", cfg)]


def _sig_home(classes):
    """Three temperature sensors: two in room1, one in room2."""
    return build_home(
        sensors=[("t1", "temperature", "F", "room1"),
                 ("t1b", "temperature", "F", "room1"),
                 ("t2", "temperature", "F", "room2")],
        actuators=[("a1", "alarm", "room1", ("sound",))],
        controllers=["x"], features=["f@room1"],
        classes=classes,
        rules=[("r1", "x", ("temperature", ">", 50),
                ("a1", "sound", ["f@room1"]))])


class TestSignatureTable:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_brute_force_on_random_classes(self, seed):
        # Up to three classes drawn over every (kind, predicate, location)
        # of the registry, so classes overlap and similarity is often not
        # transitive.
        rng = np.random.default_rng(70_000 + seed)
        rs, cfg = random_ruleset(rng)
        places = sorted({(s.kind, s.location)
                         for s in rs.registry.sensors.values()})
        universe = [EventSignature(kind, p, loc)
                    for kind, loc in places for p in Cmp]
        classes = tuple(
            frozenset(universe[k] for k in rng.choice(
                len(universe), size=int(rng.integers(1, 5)), replace=True))
            for _ in range(int(rng.integers(0, 4))))
        assert _sig_mismatches(rs, cfg) == []
        assert _sig_mismatches(
            rs, replace(cfg, similarity_classes=classes)) == [], classes

    def test_overlapping_classes_are_not_transitive(self):
        # t1 '>' ~ t2 '>' and t2 '>' ~ t1 '<', but t1 '>' and t1 '<' stay
        # dissimilar; t1b shares t1's place, so it reads alike.
        rs, cfg = _sig_home([
            [("temperature", ">", "room1"), ("temperature", ">", "room2")],
            [("temperature", ">", "room2"), ("temperature", "<", "room1")]])
        assert not cfg.similar(EventSignature("temperature", Cmp.GT, "room1"),
                               EventSignature("temperature", Cmp.LT, "room1"))
        assert _sig_mismatches(rs, cfg) == []
        analysis = _Analysis(rs, cfg)
        t1, t1b, t2 = rs.registry.sensors.values()
        for a, b in ((t1, t2), (t2, t1), (t1, t1b), (t1, t1)):
            assert analysis.sig_ok(a, b, "similar")
            assert analysis.sig_ok(a, b, "dissimilar")

    def test_place_with_itself_without_classes(self):
        # Equal signatures are similar, so one place pairs with itself both
        # ways, and two places with no class only dissimilarly.
        rs, cfg = _sig_home([])
        assert _sig_mismatches(rs, cfg) == []
        analysis = _Analysis(rs, cfg)
        t1, t1b, t2 = rs.registry.sensors.values()
        assert analysis.sig_ok(t1, t1, "similar")
        assert analysis.sig_ok(t1, t1b, "dissimilar")
        assert not analysis.sig_ok(t1, t2, "similar")
        assert analysis.sig_ok(t1, t2, "dissimilar")

    def test_class_making_every_predicate_pair_similar(self):
        # One class holds every predicate at both places, so all nine
        # predicate pairs of any two of the sensors are similar and no
        # choice of predicates makes their events dissimilar.
        rs, cfg = _sig_home([[("temperature", c, loc)
                              for c in (">", "<", "==")
                              for loc in ("room1", "room2")]])
        assert _sig_mismatches(rs, cfg) == []
        analysis = _Analysis(rs, cfg)
        for a, b in product(rs.registry.sensors.values(), repeat=2):
            assert analysis.sig_ok(a, b, "similar")
            assert not analysis.sig_ok(a, b, "dissimilar")


def _crossed_home():
    """Two rules on one alarm under two controllers, declared in the
    reverse of their id order."""
    return build_home(
        sensors=[("t1", "temperature", "F", "room1"),
                 ("h1", "humidity", "pct", "room1")],
        actuators=[("a1", "alarm", "room1", ("sound", "flash"))],
        controllers=["x", "y"],
        features=["alert@room1"],
        rules=[("r_z", "x", ("temperature", ">", 50),
                ("a1", "sound", ["alert@room1"])),
               ("r_a", "y", ("humidity", ">", 50),
                ("a1", "flash", ["alert@room1"]))])


class TestPotentialConflictRecord:
    def test_immutable_and_weakly_referable(self, alarm_home):
        rs, cfg = alarm_home
        finding = static_check(rs, cfg)[0]
        for name in ("kind", "rule_a", "rule_b", "rules", "note", "pair",
                     "other"):
            with pytest.raises(AttributeError):
                setattr(finding, name, None)
        for name in ("kind", "rule_a", "rules"):
            with pytest.raises(AttributeError):
                delattr(finding, name)
        assert weakref.ref(finding)() is finding

    def test_equal_and_hashed_by_kind_and_ids_alone(self, alarm_home):
        rs, cfg = alarm_home
        finding = static_check(rs, cfg)[0]
        bare = PotentialConflict(kind=finding.kind, rule_a=finding.rule_a,
                                 rule_b=finding.rule_b)
        assert finding.note and bare.note == ""
        assert bare == finding and hash(bare) == hash(finding)
        assert bare in set(static_check(rs, cfg))
        other = PotentialConflict(ConflictKind.C6, finding.rule_a,
                                  finding.rule_b)
        assert other != bare and bare < other and other > bare
        assert bare != (bare.kind, bare.rule_a, bare.rule_b)

    def test_order_is_irreflexive(self, alarm_home):
        # ``total_ordering`` derives ``<=``, ``>`` and ``>=`` from ``<`` and
        # ``==``, so each of them is wrong for equal records if ``<`` holds.
        rs, cfg = alarm_home
        finding = static_check(rs, cfg)[0]
        twin = PotentialConflict(finding.kind, finding.rule_a, finding.rule_b)
        for other in (finding, twin):
            assert not finding < other and not finding > other
            assert finding <= other and finding >= other
            assert finding == other

    def test_copy_and_pickle_round_trip(self, alarm_home):
        rs, cfg = alarm_home
        for finding in static_check(rs, cfg):
            for twin in (copy.copy(finding), copy.deepcopy(finding),
                         pickle.loads(pickle.dumps(finding))):
                assert twin == finding and hash(twin) == hash(finding)
                assert twin.rules == finding.rules
                assert twin.note == finding.note

    def test_pair(self, alarm_home):
        rs, cfg = alarm_home
        assert [f.pair for f in static_check(rs, cfg)
                if f.kind is ConflictKind.C1] == [
            ("r_co", "r_leak"), ("r_co", "r_smoke"), ("r_leak", "r_smoke")]

    def test_note_names_rules_in_declaration_order(self):
        rs, cfg = _crossed_home()
        by_kind = {f.kind: f for f in static_check(rs, cfg)}
        c1 = by_kind[ConflictKind.C1]
        assert c1.pair == ("r_a", "r_z")
        assert [r.id for r in c1.rules] == ["r_z", "r_a"]
        assert c1.note == "controllers x and y can drive a1 at the same time"
        assert by_kind[ConflictKind.C5].note == (
            "disjoint events can stack sound/flash on a1")

    def test_findings_come_in_record_order(self):
        for seed in range(20):
            rng = np.random.default_rng(90_000 + seed)
            rs, cfg = random_ruleset(rng, max_rules=12)
            found = static_check(rs, cfg)
            assert found == sorted(found), seed
            assert len(set(found)) == len(found), seed
