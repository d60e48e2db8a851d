"""Static misconfiguration analysis and its brute-force twin."""

from dataclasses import replace

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
from tapcheck.oracle import oracle_static
from tapcheck.static import _Analysis, gap_achievable, static_check


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
        # No other rule shares r_bad's actuator or features, so no candidate
        # pair reaches it; the check must still reject it.
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1")],
            actuators=[("a1", "siren", "room1", ("go", "stop")),
                       ("a2", "siren", "room1", ("go", "stop"))],
            controllers=["x"],
            features=["f1", "f2"],
            rules=[("r_ok", "x", ("temperature", ">", 50),
                    ("a1", "go", ["f1"])),
                   ("r_bad", "x", ("temperature", ">", 50),
                    ("a2", action, features))])
        with pytest.raises(error):
            static_check(rs, cfg)

    def test_undeclared_actuator_raises(self, alarm_home):
        rs, cfg = alarm_home
        rule = rs.rules[2]  # r_co
        rs = replace(rs, rules=rs.rules[:2] + (replace(
            rule, action=replace(rule.action, actuator="nope")),))
        with pytest.raises(ReferentialIntegrityError,
                           match="undeclared actuator 'nope'"):
            static_check(rs, cfg)


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
