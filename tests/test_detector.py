"""Policy checks and the tick-by-tick detection loop."""

import copy
import math
import pickle
import weakref
from dataclasses import replace

import pytest

from conftest import build_home, ev
from gen import group_by_tick
from tapcheck.detector import (
    Conflict,
    ConflictKind,
    DetectionWindow,
    check_c7,
    detect_at_tick,
    match_rules,
)
from tapcheck.errors import (
    DuplicateEventIdError,
    DuplicateSensorReadingError,
    InvalidConfigError,
    InvalidEventError,
    OutOfOrderTickError,
    ReferentialIntegrityError,
    UnknownActionError,
    UnknownFeatureError,
    UnknownSensorKindError,
)
from tapcheck.model import Cmp, EventSignature


def pairs_of(kind, rs, cfg, events):
    """The findings of one policy over a stream of tick-sorted events, fed
    to ``detect_at_tick`` one tick per call."""
    window = DetectionWindow(cfg)
    return [c for batch in group_by_tick(events)
            for c in detect_at_tick(batch, rs, window, cfg) if c.kind is kind]


def kinds_of(conflicts):
    return sorted(c.kind.value for c in conflicts)


def staged_at_zero(rs, cfg):
    """A window holding one smoke reading at tick 0 and its one firing,
    admitted without a detector call, with weak references to the two: the
    window holds the only strong ones."""
    window = DetectionWindow(cfg)
    event = ev(rs, "e1", "smoke1", 0, 1)
    assert window.admit([event], rs) == 0
    (firing,) = window._actions
    return window, weakref.ref(firing), weakref.ref(event)


class TestMatchRules:
    def test_single_match(self):
        rs, _ = build_home(
            sensors=[("t1", "temperature", "F", "room1")],
            actuators=[("th1", "thermostat", "room1",
                        ("increase", "decrease", "off"))],
            controllers=["hvac"], features=["temperature@room1"],
            rules=[("r1", "hvac", ("temperature", "<", 65),
                    ("th1", "increase", ["temperature@room1"]))])
        out = match_rules(ev(rs, "e1", "t1", 0, 60), rs)
        assert [ta.rule for ta in out] == ["r1"]
        assert out[0].controller == "hvac"
        assert out[0].time == 0

    def test_no_match(self):
        rs, _ = build_home(
            sensors=[("t1", "temperature", "F", "room1")],
            actuators=[("th1", "thermostat", "room1", ("increase",))],
            controllers=["hvac"], features=["temperature@room1"],
            rules=[("r1", "hvac", ("temperature", "<", 65),
                    ("th1", "increase", ["temperature@room1"]))])
        assert match_rules(ev(rs, "e1", "t1", 0, 70), rs) == []

    def test_declaration_order_preserved(self):
        rules = [(f"r{i}", "hvac", ("temperature", "<", 50 + 10 * i),
                  ("th1", "increase", ["temperature@room1"]))
                 for i in range(10)]
        rs, _ = build_home(
            sensors=[("t1", "temperature", "F", "room1")],
            actuators=[("th1", "thermostat", "room1", ("increase",))],
            controllers=["hvac"], features=["temperature@room1"],
            rules=rules)
        out = match_rules(ev(rs, "e1", "t1", 0, 115), rs)
        # 115 matches exactly three of the ten rules, declaration order.
        assert [ta.rule for ta in out] == ["r7", "r8", "r9"]

    def test_unknown_kind_raises(self):
        rs, _ = build_home(
            sensors=[("t1", "temperature", "F", "room1")],
            actuators=[("th1", "thermostat", "room1", ("increase",))],
            controllers=["hvac"], features=["temperature@room1"], rules=[])
        bogus = ev(rs, "e1", "t1", 0, 60)
        bogus = type(bogus)(id="e2", sensor="t1", time=0, value=1.0,
                            unit="x", signature=type(bogus.signature)(
                                "pressure", bogus.signature.predicate,
                                "room1"))
        with pytest.raises(UnknownSensorKindError):
            match_rules(bogus, rs)

    def test_unhashable_sensor_raises_tapcheck_error(self, alarm_home):
        rs, _ = alarm_home
        bad = replace(ev(rs, "e1", "smoke1", 0, 1), sensor=["smoke1"])
        with pytest.raises(InvalidEventError, match="not a sensor id"):
            match_rules(bad, rs)


class TestC1:
    def test_two_controllers_one_alarm(self, alarm_home):
        rs, cfg = alarm_home
        events = [ev(rs, "e1", "smoke1", 7, 1), ev(rs, "e2", "leak1", 7, 1)]
        out = pairs_of(ConflictKind.C1, rs, cfg, events)
        assert len(out) == 1
        assert out[0].tick == 7
        a, b = out[0].participants
        assert {a.controller, b.controller} == {"fire_ctrl", "water_ctrl"}

    def test_same_controller_is_fine(self):
        rs, cfg = build_home(
            sensors=[("smoke1", "smoke", "bool", "room1"),
                     ("leak1", "leak", "bool", "room1")],
            actuators=[("alarm1", "alarm", "room1", ("sound",))],
            controllers=["home"], features=["alert@room1"],
            rules=[("r_smoke", "home", ("smoke", "==", 1),
                    ("alarm1", "sound", ["alert@room1"])),
                   ("r_leak", "home", ("leak", "==", 1),
                    ("alarm1", "sound", ["alert@room1"]))])
        events = [ev(rs, "e1", "smoke1", 7, 1), ev(rs, "e2", "leak1", 7, 1)]
        assert pairs_of(ConflictKind.C1, rs, cfg, events) == []

    def test_elevator_door_lock_vs_unlock(self):
        rs, cfg = build_home(
            sensors=[("motion_e", "motion", "bool", "elevator"),
                     ("alarm_s", "alarm_state", "bool", "building")],
            actuators=[("door_e", "door", "elevator", ("lock", "unlock"))],
            controllers=["cab_ctrl", "safety_ctrl"],
            features=["access@elevator"],
            rules=[("r_keep_open", "cab_ctrl", ("motion", "==", 1),
                    ("door_e", "unlock", ["access@elevator"])),
                   ("r_lockdown", "safety_ctrl", ("alarm_state", "==", 1),
                    ("door_e", "lock", ["access@elevator"]))],
            relations={"door": [("lock", "unlock", "opposite")]})
        events = [ev(rs, "e1", "motion_e", 4, 1), ev(rs, "e2", "alarm_s", 4, 1)]
        out = pairs_of(ConflictKind.C1, rs, cfg, events)
        assert len(out) == 1

    def test_different_tick_not_simultaneous(self, alarm_home):
        rs, cfg = alarm_home
        events = [ev(rs, "e1", "smoke1", 7, 1), ev(rs, "e2", "leak1", 9, 1)]
        assert pairs_of(ConflictKind.C1, rs, cfg, events) == []

    def test_single_event_two_controllers(self):
        # One physical event routed to rules in two controllers still
        # counts: the actuator sees two simultaneous commands.
        rs, cfg = build_home(
            sensors=[("smoke1", "smoke", "bool", "room1")],
            actuators=[("alarm1", "alarm", "room1", ("sound", "flash"))],
            controllers=["a", "b"], features=["alert@room1"],
            rules=[("r1", "a", ("smoke", "==", 1),
                    ("alarm1", "sound", ["alert@room1"])),
                   ("r2", "b", ("smoke", "==", 1),
                    ("alarm1", "flash", ["alert@room1"]))])
        out = pairs_of(ConflictKind.C1, rs, cfg,
                       [ev(rs, "e1", "smoke1", 0, 1)])
        assert len(out) == 1


def window_thermostat_home(**kwargs):
    return build_home(
        sensors=[("occ1", "motion", "bool", "room1"),
                 ("t1", "temperature", "F", "room1")],
        actuators=[("window1", "window", "room1", ("open", "close")),
                   ("th1", "thermostat", "room1", ("heat", "off"))],
        controllers=["ctrl_a", "ctrl_b"],
        features=["temperature@room1", "luminance@room1"],
        rules=[("r_vent", "ctrl_a", ("motion", "==", 1),
                ("window1", "open", ["temperature@room1"])),
               ("r_warm", "ctrl_b", ("temperature", "<", 65),
                ("th1", "heat", ["temperature@room1"]))],
        **kwargs)


class TestC2:
    def test_shared_feature_two_actuators(self):
        rs, cfg = window_thermostat_home()
        events = [ev(rs, "e1", "occ1", 3, 1), ev(rs, "e2", "t1", 3, 60)]
        out = pairs_of(ConflictKind.C2, rs, cfg, events)
        assert len(out) == 1

    def test_unrelated_features_no_conflict(self):
        rs, cfg = build_home(
            sensors=[("occ1", "motion", "bool", "room1"),
                     ("t1", "temperature", "F", "room1")],
            actuators=[("light1", "light", "room1", ("on", "off")),
                       ("th1", "thermostat", "room1", ("heat", "off"))],
            controllers=["ctrl_a", "ctrl_b"],
            features=["temperature@room1", "luminance@room1"],
            rules=[("r_light", "ctrl_a", ("motion", "==", 1),
                    ("light1", "on", ["luminance@room1"])),
                   ("r_warm", "ctrl_b", ("temperature", "<", 65),
                    ("th1", "heat", ["temperature@room1"]))])
        events = [ev(rs, "e1", "occ1", 3, 1), ev(rs, "e2", "t1", 3, 60)]
        assert pairs_of(ConflictKind.C2, rs, cfg, events) == []

    def test_dependent_feature_chain(self):
        rs, cfg = build_home(
            sensors=[("occ1", "motion", "bool", "room1"),
                     ("h1", "humidity", "pct", "room1")],
            actuators=[("window1", "window", "room1", ("open", "close")),
                       ("hum1", "humidifier", "room1", ("on", "off"))],
            controllers=["ctrl_a", "ctrl_b"],
            features=["temperature@room1", "humidity@room1"],
            rules=[("r_vent", "ctrl_a", ("motion", "==", 1),
                    ("window1", "open", ["temperature@room1"])),
                   ("r_hum", "ctrl_b", ("humidity", "<", 45),
                    ("hum1", "on", ["humidity@room1"]))],
            edges=[("temperature@room1", "humidity@room1")])
        events = [ev(rs, "e1", "occ1", 3, 1), ev(rs, "e2", "h1", 3, 40)]
        out = pairs_of(ConflictKind.C2, rs, cfg, events)
        assert len(out) == 1


def corridor_home():
    return build_home(
        sensors=[("t1", "temperature", "F", "room1"),
                 ("t2", "temperature", "F", "room2")],
        actuators=[("th_c", "thermostat", "corridor",
                    ("increase", "decrease", "off"))],
        controllers=["hvac"],
        features=["temperature@corridor"],
        rules=[("r_up", "hvac", ("temperature", "<", 66, "room1"),
                ("th_c", "increase", ["temperature@corridor"])),
               ("r_down", "hvac", ("temperature", ">", 70, "room2"),
                ("th_c", "decrease", ["temperature@corridor"]))],
        relations={"thermostat": [("increase", "decrease", "opposite"),
                                  ("increase", "off", "different"),
                                  ("decrease", "off", "different")]},
        classes=[[("temperature", "==", "room1"),
                  ("temperature", "==", "room2")]])


class TestC3:
    def test_corridor_tug_of_war(self):
        rs, cfg = corridor_home()
        events = [ev(rs, "e1", "t1", 10, 60), ev(rs, "e2", "t2", 12, 75)]
        out = pairs_of(ConflictKind.C3, rs, cfg, events)
        assert len(out) == 1
        assert out[0].tick == 12

    def test_repeated_command_within_window(self):
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1"),
                     ("t2", "temperature", "F", "room1")],
            actuators=[("th1", "thermostat", "room1", ("increase", "off"))],
            controllers=["hvac", "hvac2"],
            features=["temperature@room1"],
            rules=[("r_a", "hvac", ("temperature", "<", 65),
                    ("th1", "increase", ["temperature@room1"])),
                   ("r_b", "hvac2", ("temperature", "<", 70),
                    ("th1", "increase", ["temperature@room1"]))])
        events = [ev(rs, "e1", "t1", 0, 60), ev(rs, "e2", "t2", 3, 60)]
        out = pairs_of(ConflictKind.C3, rs, cfg, events)
        # Both rules fire on both events. The staggered cross-rule pairs
        # conflict (same command repeated on one actuator); same-event and
        # same-rule pairings do not.
        assert all(c.participants[0].time != c.participants[1].time
                   for c in out)
        assert len(out) == 2

    def test_different_actuators_not_c3(self):
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1"),
                     ("t2", "temperature", "F", "room1")],
            actuators=[("th1", "thermostat", "room1",
                        ("increase", "decrease")),
                       ("th2", "thermostat", "room1",
                        ("increase", "decrease"))],
            controllers=["hvac"], features=["temperature@room1"],
            rules=[("r_a", "hvac", ("temperature", "<", 65),
                    ("th1", "increase", ["temperature@room1"])),
                   ("r_b", "hvac", ("temperature", "<", 70),
                    ("th2", "decrease", ["temperature@room1"]))])
        events = [ev(rs, "e1", "t1", 0, 60), ev(rs, "e2", "t2", 3, 60)]
        assert pairs_of(ConflictKind.C3, rs, cfg, events) == []

    def test_same_rule_twice_is_not_c3(self):
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1"),
                     ("t2", "temperature", "F", "room1")],
            actuators=[("th1", "thermostat", "room1", ("increase",))],
            controllers=["hvac"], features=["temperature@room1"],
            rules=[("r_a", "hvac", ("temperature", "<", 65),
                    ("th1", "increase", ["temperature@room1"]))])
        events = [ev(rs, "e1", "t1", 0, 60), ev(rs, "e2", "t2", 3, 61)]
        assert pairs_of(ConflictKind.C3, rs, cfg, events) == []


class TestC4:
    def test_blind_and_light_oppose_on_luminance(self):
        rs, cfg = build_home(
            sensors=[("occ1", "motion", "bool", "room1"),
                     ("occ2", "motion", "bool", "room1")],
            actuators=[("blind1", "blind", "room1", ("open", "close")),
                       ("light1", "light", "room1", ("on", "off"))],
            controllers=["home"],
            features=["luminance@room1"],
            rules=[("r_blind", "home", ("motion", "==", 1),
                    ("blind1", "open", ["luminance@room1"])),
                   ("r_light", "home", ("motion", "==", 0),
                    ("light1", "off", ["luminance@room1"]))],
            relations={"blind|light": [("open", "off", "opposite")]})
        events = [ev(rs, "e1", "occ1", 0, 1), ev(rs, "e2", "occ2", 2, 0)]
        out = pairs_of(ConflictKind.C4, rs, cfg, events)
        assert len(out) == 1

    def test_opposite_but_unrelated_features(self):
        rs, cfg = build_home(
            sensors=[("occ1", "motion", "bool", "room1"),
                     ("occ2", "motion", "bool", "room1")],
            actuators=[("blind1", "blind", "room1", ("open", "close")),
                       ("light1", "light", "room1", ("on", "off"))],
            controllers=["home"],
            features=["luminance@room1", "privacy@room1"],
            rules=[("r_blind", "home", ("motion", "==", 1),
                    ("blind1", "open", ["privacy@room1"])),
                   ("r_light", "home", ("motion", "==", 0),
                    ("light1", "off", ["luminance@room1"]))],
            relations={"blind|light": [("open", "off", "opposite")]})
        events = [ev(rs, "e1", "occ1", 0, 1), ev(rs, "e2", "occ2", 2, 0)]
        assert pairs_of(ConflictKind.C4, rs, cfg, events) == []

    def test_shared_humidifier_chain(self):
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1"),
                     ("t2", "temperature", "F", "room2")],
            actuators=[("hum1", "humidifier", "room2", ("on", "off"))],
            controllers=["home"],
            features=["humidity@room2"],
            rules=[("r_on", "home", ("temperature", ">", 75, "room1"),
                    ("hum1", "on", ["humidity@room2"])),
                   ("r_off", "home", ("temperature", "<", 72, "room2"),
                    ("hum1", "off", ["humidity@room2"]))],
            relations={"humidifier": [("on", "off", "opposite")]},
            classes=[[("temperature", "==", "room1"),
                      ("temperature", "==", "room2")]])
        events = [ev(rs, "e1", "t1", 5, 78), ev(rs, "e2", "t2", 7, 70)]
        out = pairs_of(ConflictKind.C4, rs, cfg, events)
        assert len(out) == 1  # also a C3 (same actuator), reported apart


def schedule_motion_home():
    # The two rules touch different features that interact only through
    # the temperature-to-humidity edge.
    return build_home(
        sensors=[("clock1", "clock", "tick", "room1"),
                 ("occ1", "motion", "bool", "room1")],
        actuators=[("th1", "thermostat", "room1", ("heat", "off"))],
        controllers=["mgmt", "ops"],
        features=["temperature@room1", "humidity@room1"],
        rules=[("r_evening_off", "mgmt", ("clock", ">", 647),
                ("th1", "off", ["temperature@room1"])),
               ("r_comfort", "ops", ("motion", "==", 1),
                ("th1", "heat", ["humidity@room1"]))],
        relations={"thermostat": [("heat", "off", "opposite")]},
        edges=[("temperature@room1", "humidity@room1")])


class TestC5:
    def test_schedule_event_vs_motion_event(self):
        rs, cfg = schedule_motion_home()
        events = [ev(rs, "e1", "clock1", 700, 700),
                  ev(rs, "e2", "occ1", 700, 1)]
        out = pairs_of(ConflictKind.C5, rs, cfg, events)
        assert len(out) == 1

    def test_smoke_and_co_on_one_alarm(self, alarm_home):
        rs, cfg = alarm_home
        events = [ev(rs, "e1", "smoke1", 10, 1), ev(rs, "e2", "co1", 10, 60)]
        out = pairs_of(ConflictKind.C5, rs, cfg, events)
        assert len(out) == 1  # sound vs flash on alarm1, disjoint events

    def test_different_actuators_no_c5(self):
        rs, cfg = build_home(
            sensors=[("smoke1", "smoke", "bool", "room1"),
                     ("co1", "co", "ppm", "room1")],
            actuators=[("alarm1", "alarm", "room1", ("sound",)),
                       ("fan1", "light", "room1", ("on", "off"))],
            controllers=["home"],
            features=["alert@room1", "air@room1"],
            rules=[("r_smoke", "home", ("smoke", "==", 1),
                    ("alarm1", "sound", ["alert@room1"])),
                   ("r_co", "home", ("co", ">", 50),
                    ("fan1", "on", ["air@room1"]))])
        events = [ev(rs, "e1", "smoke1", 10, 1), ev(rs, "e2", "co1", 10, 60)]
        assert pairs_of(ConflictKind.C5, rs, cfg, events) == []


class TestC6:
    def test_window_event_vs_thermostat_schedule(self):
        rs, cfg = build_home(
            sensors=[("wc1", "window_state", "bool", "room1"),
                     ("clock1", "clock", "tick", "room1")],
            actuators=[("window1", "window", "room1", ("open", "close")),
                       ("th1", "thermostat", "room1", ("heat", "off"))],
            controllers=["home", "mgmt"],
            features=["temperature@room1"],
            rules=[("r_open", "home", ("window_state", "==", 1),
                    ("window1", "open", ["temperature@room1"])),
                   ("r_evening_heat_off", "mgmt", ("clock", ">", 647),
                    ("th1", "off", ["temperature@room1"]))],
            relations={"window|thermostat": [("open", "off", "opposite")]})
        events = [ev(rs, "e1", "wc1", 650, 1),
                  ev(rs, "e2", "clock1", 650, 650)]
        out = pairs_of(ConflictKind.C6, rs, cfg, events)
        assert len(out) == 1

    def test_dependent_humidity_flagged_too(self):
        rs, cfg = schedule_motion_home()
        events = [ev(rs, "e1", "clock1", 700, 700),
                  ev(rs, "e2", "occ1", 700, 1)]
        out = pairs_of(ConflictKind.C6, rs, cfg, events)
        # heat/off are opposite and the features relate via the edge only
        assert len(out) == 1

    def test_not_simultaneous_no_c6(self):
        rs, cfg = schedule_motion_home()
        events = [ev(rs, "e1", "clock1", 700, 700),
                  ev(rs, "e2", "occ1", 703, 1)]
        assert pairs_of(ConflictKind.C6, rs, cfg, events) == []


class TestC7:
    def home(self, tolerance=0.0):
        return build_home(
            sensors=[("t1", "temperature", "F", "room1", tolerance)],
            actuators=[("th1", "thermostat", "room1", ("increase",))],
            controllers=["hvac"], features=["temperature@room1"],
            rules=[("r1", "hvac", ("temperature", ">", 50),
                    ("th1", "increase", ["temperature@room1"]))])

    def test_repeated_reading_flagged(self):
        rs, cfg = self.home()
        events = [ev(rs, "e1", "t1", 0, 60), ev(rs, "e2", "t1", 20, 60)]
        out = pairs_of(ConflictKind.C7, rs, cfg, events)
        assert len(out) == 1
        assert out[0].suppressible == ("e2",)
        assert out[0].tick == 20

    def test_outside_duplicate_window(self):
        rs, cfg = self.home()
        events = [ev(rs, "e1", "t1", 0, 60), ev(rs, "e2", "t1", 31, 60)]
        assert pairs_of(ConflictKind.C7, rs, cfg, events) == []

    def test_different_values_not_duplicates(self):
        rs, cfg = self.home()
        events = [ev(rs, "e1", "t1", 0, 60), ev(rs, "e2", "t1", 20, 64)]
        assert pairs_of(ConflictKind.C7, rs, cfg, events) == []

    def test_tolerance_widens_equality(self):
        rs, cfg = self.home(tolerance=0.5)
        events = [ev(rs, "e1", "t1", 0, 60), ev(rs, "e2", "t1", 20, 60.4)]
        assert len(pairs_of(ConflictKind.C7, rs, cfg, events)) == 1

    def test_different_sensors_never_duplicates(self):
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1"),
                     ("t2", "temperature", "F", "room1")],
            actuators=[("th1", "thermostat", "room1", ("increase",))],
            controllers=["hvac"], features=["temperature@room1"], rules=[])
        events = [ev(rs, "e1", "t1", 0, 60), ev(rs, "e2", "t2", 20, 60)]
        assert pairs_of(ConflictKind.C7, rs, cfg, events) == []

    def test_equal_but_distinct_signatures_repeat(self):
        rs, cfg = self.home()
        first, later = ev(rs, "e1", "t1", 0, 60), ev(rs, "e2", "t1", 20, 60)
        assert first.signature == later.signature
        assert first.signature is not later.signature
        (repeat,) = pairs_of(ConflictKind.C7, rs, cfg, [first, later])
        assert repeat.participants == (first, later)

    def test_tick_split_over_calls_reports_in_key_order(self):
        # Ids e9, e10 and e100 sort as strings, not in arrival order, and
        # tick 0 arrives in two calls.
        rs, cfg = build_home(
            sensors=[(f"t{i}", "temperature", "F", "room1")
                     for i in range(3)],
            actuators=[("th1", "thermostat", "room1", ("increase",))],
            controllers=["hvac"], features=["temperature@room1"], rules=[])
        window = DetectionWindow(cfg)
        assert detect_at_tick([ev(rs, "e9", "t0", 0, 60)], rs, window,
                              cfg) == []
        assert detect_at_tick([ev(rs, "e100", "t1", 0, 60),
                               ev(rs, "e10", "t2", 0, 60)], rs, window,
                              cfg) == []
        found = detect_at_tick([ev(rs, f"e{200 + i}", f"t{i}", 4, 60)
                                for i in range(3)], rs, window, cfg)
        assert found == sorted(found, key=Conflict.key)
        assert [c.participants[0].id for c in found] == ["e10", "e100",
                                                         "e9"]


def _notes_of(rs, cfg, events, kind):
    return [(c.note, c.suppressible)
            for c in pairs_of(kind, rs, cfg, events)]


class TestFiringsAt:
    def test_split_tick_gives_both_batches_in_admission_order(
            self, alarm_home):
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        detect_at_tick([ev(rs, "e0", "smoke1", 4, 1)], rs, window, cfg)
        first = [ev(rs, "e1", "leak1", 5, 1)]
        second = [ev(rs, "e3", "smoke1", 5, 1), ev(rs, "e2", "co1", 5, 80)]
        detect_at_tick(first, rs, window, cfg)
        detect_at_tick(second, rs, window, cfg)
        got = window.firings_at(5)
        assert [(ta.event.id, ta.rule) for ta in got] == [
            ("e1", "r_leak"), ("e3", "r_smoke"), ("e2", "r_co")]
        assert got == [ta for e in first + second
                       for ta in match_rules(e, rs)]

    def test_idle_tick_gives_nothing(self, alarm_home):
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        assert window.firings_at(0) == []
        detect_at_tick([ev(rs, "e1", "smoke1", 5, 1)], rs, window, cfg)
        assert window.firings_at(4) == []
        assert window.firings_at(6) == []
        # A reading that fires no rule leaves its tick idle too.
        detect_at_tick([ev(rs, "e2", "co1", 6, 10)], rs, window, cfg)
        assert window.firings_at(6) == []

    def test_tick_past_pair_reach_gives_nothing(self, alarm_home):
        rs, cfg = alarm_home
        window, _, _ = staged_at_zero(rs, cfg)
        assert len(window.firings_at(0)) == 1
        window.admit([ev(rs, "e2", "leak1", cfg.pair_reach + 1, 1)], rs)
        assert window.firings_at(0) == []
        assert len(window.firings_at(cfg.pair_reach + 1)) == 1


class TestConflictRecord:
    def test_immutable_weakly_referable_and_hashable(self, alarm_home):
        rs, cfg = alarm_home
        (c1,) = pairs_of(ConflictKind.C1, rs, cfg,
                         [ev(rs, "e1", "smoke1", 5, 1),
                          ev(rs, "e2", "leak1", 5, 1)])
        for name in ("kind", "tick", "participants", "note", "suppressible",
                     "_swapped", "other"):
            with pytest.raises(AttributeError):
                setattr(c1, name, None)
        with pytest.raises(AttributeError):
            del c1.tick
        assert weakref.ref(c1)() is c1
        assert c1 in {c1}
        for twin in (copy.copy(c1), pickle.loads(pickle.dumps(c1))):
            assert twin == c1 and hash(twin) == hash(c1)
            assert twin.note == c1.note

    def test_equal_by_kind_tick_and_participants(self, alarm_home):
        # Two streams of equal, not identical, events give equal findings.
        rs, cfg = alarm_home
        first, second = (
            detect_at_tick([ev(rs, "e9", "smoke1", 10, 1),
                            ev(rs, "e10", "co1", 10, 60)],
                           rs, DetectionWindow(cfg), cfg)
            for _ in range(2))
        assert first == second
        assert [hash(c) for c in first] == [hash(c) for c in second]
        assert all(a is not b for a, b in zip(first, second))
        c1, c5 = first
        assert (c1.kind, c5.kind) == (ConflictKind.C1, ConflictKind.C5)
        assert c1.participants == c5.participants and c1 != c5
        assert c1 != c1.key()

    @pytest.mark.parametrize("kind,home,events,want", [
        (ConflictKind.C1, "alarm", [("e9", "smoke1", 10, 1),
                                    ("e10", "co1", 10, 60)],
         "controllers fire_ctrl and air_ctrl both drive alarm1"),
        (ConflictKind.C5, "alarm", [("e9", "smoke1", 10, 1),
                                    ("e10", "co1", 10, 60)],
         "disjoint events e9 and e10 command alarm1: sound/flash"),
        (ConflictKind.C2, "window_thermostat", [("e1", "occ1", 3, 1),
                                                ("e2", "t1", 3, 60)],
         "window1 and th1 touch related features under controllers ctrl_a "
         "and ctrl_b"),
        (ConflictKind.C3, "corridor", [("e1", "t1", 10, 60),
                                       ("e2", "t2", 12, 75)],
         "overlapping events e1 and e2 command th_c: increase/decrease"),
        (ConflictKind.C4, "corridor", [("e1", "t1", 10, 60),
                                       ("e2", "t2", 12, 75)],
         "overlapping events push opposite actions increase/decrease on "
         "related features"),
        (ConflictKind.C6, "schedule_motion", [("e1", "clock1", 700, 700),
                                              ("e2", "occ1", 700, 1)],
         "disjoint events push opposite actions off/heat on related "
         "features")],
        ids=["C1", "C5-crossed-ids", "C2", "C3", "C4", "C6"])
    def test_pair_note_names_firings_in_detection_order(
            self, alarm_home, kind, home, events, want):
        rs, cfg = {"alarm": lambda: alarm_home,
                   "window_thermostat": window_thermostat_home,
                   "corridor": corridor_home,
                   "schedule_motion": schedule_motion_home}[home]()
        stream = [ev(rs, *spec) for spec in events]
        assert _notes_of(rs, cfg, stream, kind) == [(want, ())]

    def test_crossed_ids_are_stored_in_time_order(self, alarm_home):
        # e10 sorts before e9, so the record holds the pair reversed from
        # the order its note names it in.
        rs, cfg = alarm_home
        (c5,) = pairs_of(ConflictKind.C5, rs, cfg,
                         [ev(rs, "e9", "smoke1", 10, 1),
                          ev(rs, "e10", "co1", 10, 60)])
        assert [p.event.id for p in c5.participants] == ["e10", "e9"]

    def test_c7_note_and_suppressible(self):
        rs, cfg = TestC7().home()
        events = [ev(rs, "e1", "t1", 0, 60.5), ev(rs, "e2", "t1", 20, 60.5)]
        assert _notes_of(rs, cfg, events, ConflictKind.C7) == [
            ("sensor t1 repeated value 60.5 after 20 tick(s)", ("e2",))]


class TestDetectAtTick:
    def test_empty_batch_is_a_no_op(self, alarm_home):
        # An empty batch invents no tick, so a later batch at the last
        # tick seen is still accepted and pairs with that tick's firings.
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        assert detect_at_tick([], rs, window, cfg) == []
        assert window.last_tick is None
        detect_at_tick([ev(rs, "e1", "smoke1", 5, 1)], rs, window, cfg)
        assert detect_at_tick([], rs, window, cfg) == []
        assert window.last_tick == 5
        out = detect_at_tick([ev(rs, "e2", "leak1", 5, 1)], rs, window, cfg)
        assert kinds_of(out) == ["C1"]

    def test_batches_must_share_tick(self, alarm_home):
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        events = [ev(rs, "e1", "smoke1", 1, 1), ev(rs, "e2", "leak1", 2, 1)]
        with pytest.raises(OutOfOrderTickError):
            detect_at_tick(events, rs, window, cfg)

    def test_out_of_order_tick_rejected(self, alarm_home):
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        detect_at_tick([ev(rs, "e1", "smoke1", 5, 1)], rs, window, cfg)
        with pytest.raises(OutOfOrderTickError):
            detect_at_tick([ev(rs, "e2", "leak1", 4, 1)], rs, window, cfg)

    def test_multiple_policies_in_one_call(self):
        # One tick completes a C1 pair on the alarm and a C4 pair on the
        # blind/light; both come back from the same call.
        rs, cfg = build_home(
            sensors=[("smoke1", "smoke", "bool", "room1"),
                     ("leak1", "leak", "bool", "room1"),
                     ("occ1", "motion", "bool", "room1"),
                     ("occ2", "motion", "bool", "room1")],
            actuators=[("alarm1", "alarm", "room1", ("sound",)),
                       ("blind1", "blind", "room1", ("open", "close")),
                       ("light1", "light", "room1", ("on", "off"))],
            controllers=["fire", "water", "home"],
            features=["alert@room1", "luminance@room1"],
            rules=[("r_smoke", "fire", ("smoke", "==", 1),
                    ("alarm1", "sound", ["alert@room1"])),
                   ("r_leak", "water", ("leak", "==", 1),
                    ("alarm1", "sound", ["alert@room1"])),
                   ("r_blind", "home", ("motion", "==", 1),
                    ("blind1", "open", ["luminance@room1"])),
                   ("r_light", "home", ("motion", "==", 0),
                    ("light1", "off", ["luminance@room1"]))],
            relations={"blind|light": [("open", "off", "opposite")]})
        window = DetectionWindow(cfg)
        detect_at_tick([ev(rs, "e0", "occ1", 4, 1)], rs, window, cfg)
        out = detect_at_tick(
            [ev(rs, "e1", "smoke1", 6, 1), ev(rs, "e2", "leak1", 6, 1),
             ev(rs, "e3", "occ2", 6, 0)], rs, window, cfg)
        assert "C1" in kinds_of(out) and "C4" in kinds_of(out)

    def test_pair_reported_exactly_once_across_ticks(self):
        rs, cfg = corridor_home()
        window = DetectionWindow(cfg)
        all_out = []
        all_out += detect_at_tick([ev(rs, "e1", "t1", 10, 60)], rs, window, cfg)
        all_out += detect_at_tick([ev(rs, "e2", "t2", 12, 75)], rs, window, cfg)
        all_out += detect_at_tick([], rs, window, cfg)
        all_out += detect_at_tick([], rs, window, cfg)
        c3 = [c for c in all_out if c.kind is ConflictKind.C3]
        assert len(c3) == 1

    def test_deterministic_ordering(self, alarm_home):
        rs, cfg = alarm_home
        events = [ev(rs, "e1", "smoke1", 7, 1), ev(rs, "e2", "leak1", 7, 1),
                  ev(rs, "e3", "co1", 7, 80)]

        def run():
            window = DetectionWindow(cfg)
            return [c.key() for c in detect_at_tick(events, rs, window, cfg)]

        assert run() == run()

    def test_eviction_respects_horizon(self, alarm_home):
        # A reading stays for the horizon, so a repeat at the horizon is
        # still C7. One tick later the window holds nothing of tick 0, so
        # no pair or C7 query can reach it whatever the gap.
        rs, cfg = alarm_home
        window, firing, event = staged_at_zero(rs, cfg)
        e2 = ev(rs, "e2", "smoke1", cfg.horizon, 1)
        window.admit([e2], rs)
        assert firing() is None and event() is not None
        assert len(check_c7(window, [e2], rs.registry)) == 1
        e3 = ev(rs, "e3", "leak1", cfg.horizon + 1, 1)
        window.admit([e3], rs)
        assert event() is None

    @pytest.mark.parametrize("beyond", [0, 1])
    def test_firings_kept_for_pair_reach_only(self, alarm_home, beyond):
        # Firings are dropped once past max(eps, W), the farthest a pair
        # policy looks, though their events stay for the longer C7
        # horizon. Past the epsilon only similar events pair, so the
        # second reading is another smoke reading.
        rs, cfg = alarm_home
        assert cfg.pair_reach < cfg.horizon
        window, firing, event = staged_at_zero(rs, cfg)
        e2 = ev(rs, "e2", "smoke1", cfg.pair_reach + beyond, 1)
        start = window.admit([e2], rs)
        assert (firing() is None) == bool(beyond)
        assert event() is not None
        assert len(list(window.candidate_pairs(start))) == 1 - beyond

    def test_config_other_than_the_windows_rejected(self):
        # A window built at W=1 keeps each firing for one tick, so a call
        # asking for W=5 would miss the C3 and C4 two ticks apart that a
        # window built at W=5 finds.
        rs, cfg = corridor_home()
        events = [ev(rs, "e1", "t1", 10, 60), ev(rs, "e2", "t2", 12, 75)]
        window = DetectionWindow(cfg)
        assert kinds_of([c for e in events for c in detect_at_tick(
            [e], rs, window, cfg)]) == ["C3", "C4"]
        window = DetectionWindow(replace(cfg, overlap_window=1))
        with pytest.raises(InvalidConfigError, match="window"):
            detect_at_tick(events[:1], rs, window, cfg)
        assert window.last_tick is None

    def test_equal_copy_of_the_windows_config_accepted(self, alarm_home):
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        out = detect_at_tick([ev(rs, "e1", "smoke1", 5, 1),
                              ev(rs, "e2", "leak1", 5, 1)],
                             rs, window, replace(cfg))
        assert kinds_of(out) == ["C1"]

    def test_ruleset_other_than_the_windows_rejected(self, alarm_home):
        # Firings find their rule profiles by rule index, so a stream keeps
        # the ruleset of its first call; an equal copy is the same ruleset.
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        detect_at_tick([ev(rs, "e1", "smoke1", 5, 1)], rs, window, cfg)
        with pytest.raises(InvalidConfigError, match="ruleset"):
            detect_at_tick([ev(rs, "e2", "leak1", 5, 1)],
                           replace(rs, rules=rs.rules[1:]), window, cfg)
        assert window.last_tick == 5
        out = detect_at_tick([ev(rs, "e2", "leak1", 5, 1)], replace(rs),
                             window, cfg)
        assert kinds_of(out) == ["C1"]

    @pytest.mark.parametrize("action,features,error", [
        ("explode", ["alert@room1"], UnknownActionError),
        ("sound", ["ghost"], UnknownFeatureError)])
    @pytest.mark.parametrize("paired", [False, True])
    def test_undeclared_name_raises_when_its_rule_first_fires(
            self, action, features, error, paired):
        # r_bad fires on CO readings only. A tick without one passes; the
        # first CO reading raises before the window changes, whether or not
        # another firing pairs with it.
        rs, cfg = build_home(
            sensors=[("smoke1", "smoke", "bool", "room1"),
                     ("leak1", "leak", "bool", "room1"),
                     ("co1", "co", "ppm", "room1")],
            actuators=[("alarm1", "alarm", "room1", ("sound", "off"))],
            controllers=["fire_ctrl", "water_ctrl", "air_ctrl"],
            features=["alert@room1"],
            rules=[("r_smoke", "fire_ctrl", ("smoke", "==", 1),
                    ("alarm1", "sound", ["alert@room1"])),
                   ("r_leak", "water_ctrl", ("leak", "==", 1),
                    ("alarm1", "sound", ["alert@room1"])),
                   ("r_bad", "air_ctrl", ("co", ">", 50),
                    ("alarm1", action, features))])
        window = DetectionWindow(cfg)
        detect_at_tick([ev(rs, "e1", "smoke1", 5, 1)], rs, window, cfg)
        batch = [ev(rs, "e2", "co1", 9, 80)]
        if paired:
            batch.append(ev(rs, "e3", "leak1", 9, 1))
        with pytest.raises(error):
            detect_at_tick(batch, rs, window, cfg)
        assert window.last_tick == 5

    def test_undeclared_actuator_raises_before_the_window_changes(
            self, alarm_home):
        rs, cfg = alarm_home
        rule = rs.rules[2]  # r_co
        rs = replace(rs, rules=rs.rules[:2] + (replace(
            rule, action=replace(rule.action, actuator="nope")),))
        window = DetectionWindow(cfg)
        detect_at_tick([ev(rs, "e1", "smoke1", 5, 1)], rs, window, cfg)
        with pytest.raises(ReferentialIntegrityError,
                           match="undeclared actuator 'nope'"):
            detect_at_tick([ev(rs, "e2", "co1", 9, 80)], rs, window, cfg)
        assert window.last_tick == 5
        assert window.firings_at(9) == []

    def test_two_readings_of_one_sensor_in_batch_rejected(self, alarm_home):
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        events = [ev(rs, "e1", "smoke1", 5, 1), ev(rs, "e2", "leak1", 5, 1),
                  ev(rs, "e3", "smoke1", 5, 0)]
        with pytest.raises(DuplicateSensorReadingError, match="smoke1"):
            detect_at_tick(events, rs, window, cfg)
        assert window.last_tick is None

    def test_two_readings_of_one_sensor_across_split_batch_rejected(
            self, alarm_home):
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        detect_at_tick([ev(rs, "e1", "smoke1", 5, 1)], rs, window, cfg)
        detect_at_tick([ev(rs, "e2", "leak1", 5, 1)], rs, window, cfg)
        with pytest.raises(DuplicateSensorReadingError, match="smoke1"):
            detect_at_tick([ev(rs, "e3", "smoke1", 5, 0)], rs, window, cfg)
        detect_at_tick([ev(rs, "e3", "smoke1", 6, 0)], rs, window, cfg)

    def test_duplicate_id_in_batch_rejected(self, alarm_home):
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        events = [ev(rs, "e1", "smoke1", 5, 1), ev(rs, "e1", "smoke1", 5, 1),
                  ev(rs, "e2", "leak1", 5, 1)]
        with pytest.raises(DuplicateEventIdError):
            detect_at_tick(events, rs, window, cfg)

    def test_duplicate_id_across_split_batch_rejected(self, alarm_home):
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        detect_at_tick([ev(rs, "e1", "smoke1", 5, 1)], rs, window, cfg)
        with pytest.raises(DuplicateEventIdError):
            detect_at_tick([ev(rs, "e1", "leak1", 5, 1)], rs, window, cfg)

    def test_duplicate_id_across_ticks_in_window_rejected(self, alarm_home):
        # With epsilon 1, smoke e1@5 and leak e2@6 form C1 and C5. Pairs
        # tell events apart by id, so a second e1 would hide the C5.
        rs, cfg = alarm_home
        cfg = replace(cfg, same_tick_epsilon=1)
        window = DetectionWindow(cfg)
        detect_at_tick([ev(rs, "e1", "smoke1", 5, 1)], rs, window, cfg)
        assert kinds_of(detect_at_tick([ev(rs, "e2", "leak1", 6, 1)], rs,
                                       window, cfg)) == ["C1", "C5"]
        window = DetectionWindow(cfg)
        detect_at_tick([ev(rs, "e1", "smoke1", 5, 1)], rs, window, cfg)
        with pytest.raises(DuplicateEventIdError):
            detect_at_tick([ev(rs, "e1", "leak1", 6, 1)], rs, window, cfg)

    def test_id_reusable_once_evicted(self, alarm_home):
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        detect_at_tick([ev(rs, "e1", "smoke1", 5, 1)], rs, window, cfg)
        with pytest.raises(DuplicateEventIdError):
            detect_at_tick([ev(rs, "e1", "leak1", 5 + cfg.horizon, 1)], rs,
                           window, cfg)
        detect_at_tick([ev(rs, "e1", "leak1", 6 + cfg.horizon, 1)], rs,
                       window, cfg)

    @pytest.mark.parametrize("fault,error", [
        ({"signature": EventSignature("smoke", Cmp.EQ, "room2")},
         UnknownSensorKindError),
        ({"signature": EventSignature("leak", Cmp.EQ, "room1")},
         UnknownSensorKindError),
        ({"sensor": "ghost"}, UnknownSensorKindError),
        ({"time": -5}, InvalidEventError),
        ({"time": 2.5}, InvalidEventError),
        ({"time": True}, InvalidEventError),
        ({"value": math.nan}, InvalidEventError),
        ({"value": math.inf}, InvalidEventError),
        ({"value": -math.inf}, InvalidEventError),
        ({"value": "1"}, InvalidEventError),
        ({"value": None}, InvalidEventError),
        ({"time": "3"}, InvalidEventError),
        ({"id": 5}, InvalidEventError),
        ({"id": ["e1"]}, InvalidEventError),
        ({"sensor": ["smoke1"]}, InvalidEventError),
        ({"signature": None}, InvalidEventError),
        ({"signature": EventSignature("smoke", "==", "room1")},
         InvalidEventError),
        ({"unit": "F"}, InvalidEventError)],
        ids=["location", "kind", "undeclared", "negative", "fraction",
             "bool", "nan", "inf", "-inf", "str-value", "none-value",
             "str-tick", "int-id", "list-id", "list-sensor",
             "none-signature", "str-predicate", "unit"])
    def test_reading_off_its_sensor_or_domain_rejected(self, alarm_home,
                                                       fault, error):
        # The same checks a trace file's rows meet: each raises before the
        # window changes, so the stream goes on as if the batch never came.
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        bad = replace(ev(rs, "e1", "smoke1", 0, 1), **fault)
        with pytest.raises(error):
            detect_at_tick([bad], rs, window, cfg)
        assert window.last_tick is None
        assert kinds_of(detect_at_tick([ev(rs, "e1", "smoke1", 0, 1),
                                        ev(rs, "e2", "leak1", 0, 1)],
                                       rs, window, cfg)) == ["C1"]

    def test_each_event_dropped_exactly_past_the_horizon(self, alarm_home):
        # Sensors report on different ticks, so the oldest event often
        # belongs to a sensor that is silent at the tick that expires it.
        rs, cfg = alarm_home
        window = DetectionWindow(cfg)
        fed = []  # (tick, weak reference) per event
        for tick in range(3 * cfg.horizon):
            batch = [ev(rs, f"{sensor}@{tick}", sensor, tick, tick % 2)
                     for sensor, reports in (
                         ("smoke1", tick % 2 == 0), ("co1", tick % 2 == 1),
                         ("leak1", tick % 3 == 0)) if reports]
            detect_at_tick(batch, rs, window, cfg)
            fed += [(tick, weakref.ref(event)) for event in batch]
            assert all((ref() is None) == (time < tick - cfg.horizon)
                       for time, ref in fed)
