"""House physics, event sources, suppression, and determinism."""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from tapcheck import detector, simulator
from tapcheck.detector import match_rules
from tapcheck.errors import SimulationError, UnknownScenarioError
from tapcheck.scenarios import build, load_bundle, run_scenario, with_probability
from tapcheck.simulator import (
    HouseModel,
    HouseParams,
    RoomState,
    Scenario,
    SourceSpec,
    _source_rng,
    apply_action,
    humidity_step,
    luminance_of,
    run_arm,
    thermal_step,
)


def room(**kwargs):
    return RoomState(name=kwargs.pop("name", "room1"), **kwargs)


def house(rooms=(), **params):
    return HouseModel(rooms=tuple(rooms) or (room(),),
                      params=HouseParams(**params))


class TestThermalStep:
    def test_equilibrium_everything_off(self):
        r = room(temperature=70.0)
        h = house([r])
        assert thermal_step(r, h, t_out=70.0, neighbor_temps=()) == 70.0

    def test_heater_alone_adds_gain(self):
        r = room(temperature=70.0, thermostat="heat", window=False)
        h = house([r], g_heat=0.5)
        assert thermal_step(r, h, t_out=70.0,
                            neighbor_temps=()) == pytest.approx(70.5)

    def test_cooling_subtracts_gain(self):
        r = room(temperature=70.0, thermostat="cool")
        h = house([r], g_heat=0.5)
        assert thermal_step(r, h, t_out=70.0,
                            neighbor_temps=()) == pytest.approx(69.5)

    def test_corridor_between_two_rooms(self):
        # Interior corridor: only neighbor terms act on it.
        corridor = room(name="corridor", temperature=71.0,
                        outdoor_exposed=False)
        h = house([corridor], k_adj=0.1)
        expected = 71.0 + 0.1 * (68.0 - 71.0) + 0.1 * (75.0 - 71.0)
        got = thermal_step(corridor, h, t_out=0.0,
                           neighbor_temps=(68.0, 75.0))
        assert got == pytest.approx(expected)

    def test_open_window_couples_to_outdoors(self):
        r = room(temperature=70.0, window=True)
        h = house([r], k_loss=0.05, k_win=0.1)
        got = thermal_step(r, h, t_out=40.0, neighbor_temps=())
        assert got == pytest.approx(70.0 + 0.15 * (40.0 - 70.0))

    def test_unexposed_room_ignores_outdoors(self):
        r = room(temperature=70.0, window=True, outdoor_exposed=False)
        h = house([r], k_loss=0.05, k_win=0.1)
        assert thermal_step(r, h, t_out=40.0, neighbor_temps=()) == 70.0

    def test_occupant_heat(self):
        r = room(temperature=70.0, occupancy=True)
        h = house([r], occupant_heat=0.3)
        assert thermal_step(r, h, t_out=70.0,
                            neighbor_temps=()) == pytest.approx(70.3)


class TestHumidityStep:
    def test_no_change_without_drivers(self):
        r = room(humidity=50.0)
        assert humidity_step(r, house([r]), d_temp=0.0) == 50.0

    def test_warming_dries_the_air(self):
        r = room(humidity=50.0)
        h = house([r], k_h=1.5)
        assert humidity_step(r, h, d_temp=2.0) == pytest.approx(47.0)

    def test_clamped_at_zero(self):
        r = room(humidity=1.0)
        h = house([r], k_h=1.5)
        assert humidity_step(r, h, d_temp=5.0) == 0.0

    def test_clamped_at_hundred(self):
        r = room(humidity=99.5, humidifier=True)
        h = house([r], g_hum=2.0)
        assert humidity_step(r, h, d_temp=0.0) == 100.0

    def test_humidifier_gain(self):
        r = room(humidity=50.0, humidifier=True)
        h = house([r], g_hum=2.0)
        assert humidity_step(r, h, d_temp=0.0) == pytest.approx(52.0)


class TestLuminance:
    def test_everything_shut_gives_base(self):
        r = room(blind=False, light=False)
        h = house([r], l_base=100.0)
        assert luminance_of(r, h, daylight=300.0) == 100.0

    def test_blind_and_lamp_exceed_comfort_band(self):
        r = room(blind=True, light=True)
        h = house([r], l_base=100.0, l_window=250.0, l_lamp=250.0)
        assert luminance_of(r, h, daylight=300.0) == 600.0 > 450.0

    def test_dark_room_below_band(self):
        r = room(blind=False, light=False)
        h = house([r], l_base=100.0)
        assert luminance_of(r, h, daylight=300.0) == 100.0 < 200.0

    def test_daylight_capped_by_window(self):
        r = room(blind=True)
        h = house([r], l_base=100.0, l_window=250.0)
        assert luminance_of(r, h, daylight=80.0) == 180.0


# Every (kind, action) the simulator handles, the room it starts from, and
# the fields the action must leave changed.
_ACTION_CASES = [
    ("thermostat", "on", {}, {"thermostat": "heat"}),
    ("thermostat", "heat", {}, {"thermostat": "heat"}),
    ("thermostat", "cool", {}, {"thermostat": "cool"}),
    ("thermostat", "off", {"thermostat": "heat"}, {"thermostat": "off"}),
    ("thermostat", "increase", {}, {"thermostat": "heat", "setpoint": 72.5}),
    ("thermostat", "decrease", {}, {"thermostat": "cool", "setpoint": 67.5}),
    ("humidifier", "on", {}, {"humidifier": True}),
    ("humidifier", "off", {"humidifier": True}, {"humidifier": False}),
    ("light", "on", {}, {"light": True}),
    ("light", "off", {"light": True}, {"light": False}),
    ("blind", "open", {}, {"blind": True}),
    ("blind", "close", {"blind": True}, {"blind": False}),
    ("window", "open", {}, {"window": True}),
    ("window", "close", {"window": True}, {"window": False}),
    ("door", "open", {}, {"door": True}),
    ("door", "unlock", {}, {"door": True}),
    ("door", "close", {"door": True}, {"door": False}),
    ("door", "lock", {"door": True}, {"door": False}),
    ("alarm", "on", {}, {"alarm": True}),
    ("alarm", "sound", {}, {"alarm": True}),
    ("alarm", "beep", {}, {"alarm": True}),
    ("alarm", "flash", {}, {"alarm": True}),
    ("alarm", "off", {"alarm": True}, {"alarm": False}),
]


class TestApplyAction:
    @pytest.mark.parametrize("kind,action,start,changed", _ACTION_CASES,
                             ids=[f"{k}-{a}" for k, a, *_ in _ACTION_CASES])
    def test_action_sets_exactly_its_fields(self, kind, action, start,
                                            changed):
        r = room(**start)
        expected = {**asdict(r), **changed}
        apply_action(r, kind, action, step=2.5)
        assert asdict(r) == expected

    def test_thermostat_setpoint_steps(self):
        r = room(setpoint=60.0)
        apply_action(r, "thermostat", "increase", step=10.0)
        apply_action(r, "thermostat", "increase", step=10.0)
        assert r.setpoint == 80.0
        assert r.thermostat == "heat"
        apply_action(r, "thermostat", "decrease", step=10.0)
        assert r.setpoint == 70.0
        assert r.thermostat == "cool"

    def test_unsupported_action_raises(self):
        for kind, action in [("thermostat", "explode"), ("humidifier", "open"),
                             ("light", "open"), ("blind", "on"),
                             ("window", "on"), ("door", "on"),
                             ("alarm", "open")]:
            with pytest.raises(SimulationError,
                               match=f"unsupported {kind} action '{action}'"):
                apply_action(room(), kind, action, step=1.0)
        with pytest.raises(SimulationError, match="has no simulation effects"):
            apply_action(room(), "rocket", "launch", step=1.0)


class TestScenarioPlumbing:
    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenarioError):
            build("S99")

    def test_unknown_fixture(self):
        scenario = replace(build("S1"), ruleset="no_such_fixture")
        with pytest.raises(UnknownScenarioError):
            run_scenario(scenario)

    def test_zero_horizon_gives_empty_report(self):
        scenario = replace(build("S1"), horizon=0)
        report = run_scenario(scenario)
        assert report.events == [] and report.conflicts == []
        assert all(arr.size == 0
                   for rec in report.series.values()
                   for arr in rec.values())

    def test_with_probability_replaces_one_source(self):
        s = build("S1")
        s2 = with_probability(s, "blind_taps", 0.02)
        assert {src.name: src.p for src in s2.sources}["blind_taps"] == 0.02
        with pytest.raises(SimulationError):
            with_probability(s, "nope", 0.5)

    def test_bad_probability_rejected(self):
        with pytest.raises(SimulationError):
            SourceSpec(name="x", sensor="s", p=1.5)

    @pytest.mark.parametrize("min_delta", [math.nan, math.inf, -1.0])
    def test_bad_min_delta_rejected(self, min_delta):
        # With NaN a cov source would fire only once, and with -1 at every
        # tick.
        with pytest.raises(SimulationError, match="min_delta"):
            SourceSpec(name="x", sensor="s", mode="cov",
                       feature="temperature", min_delta=min_delta)

    def test_script_source_fires_exactly_when_told(self):
        bundle = load_bundle("c7_duplicate")
        scenario = Scenario(
            id="probe", ruleset="c7_duplicate",
            sources=(SourceSpec(name="readings", sensor="temp1",
                                mode="script",
                                at=((0, 60.0), (20, 60.0), (45, 60.0))),),
            horizon=40)
        report = run_arm(scenario, bundle.ruleset, bundle.config,
                         bundle.house)
        assert [(e.time, e.value) for e in report.events] == [(0, 60.0),
                                                              (20, 60.0)]

    def test_momentary_actuators_spring_back(self):
        report = run_scenario(build("S1", seed=5))
        blind = report.series["room1"]["blind"]
        light = report.series["room1"]["light"]
        # A pulse shows in its own tick's record and nowhere else.
        blind_ticks = {t for t, actuator, *_ in report.actuation_log
                       if actuator == "blind1"}
        light_ticks = {t for t, actuator, *_ in report.actuation_log
                       if actuator == "light1"}
        assert {int(t) for t in np.flatnonzero(blind)} == blind_ticks
        assert {int(t) for t in np.flatnonzero(light)} == light_ticks

    def test_momentary_thermostat_springs_back(self):
        # A pulse on a momentary thermostat shows its mode and stepped
        # setpoint in its own tick's record; the next tick both are back
        # at the room's initial values.
        bundle = load_bundle("c7_duplicate")
        scenario = Scenario(
            id="probe", ruleset="c7_duplicate",
            sources=(SourceSpec(name="readings", sensor="temp1",
                                mode="script", at=((3, 60.0),)),),
            horizon=6)
        house = replace(bundle.house, momentary=frozenset({"thermostat1"}))
        report = run_arm(scenario, bundle.ruleset, bundle.config, house)
        series = report.series["room1"]
        assert series["thermostat"].tolist() == [0, 0, 0, 1, 0, 0]
        assert series["setpoint"].tolist() == [60, 60, 60, 70, 60, 60]


def _probe_sources(*sources, horizon=30):
    """Run ``sources`` for ``horizon`` ticks in S7's room, which cools from
    70 F toward a 40 F outdoors, under a 10-tick day. No rule fires: the
    clock never passes 647 and the room never passes 72 F."""
    bundle = load_bundle("s7_thermostat_management")
    scenario = Scenario(id="probe", ruleset="s7_thermostat_management",
                        sources=sources, horizon=horizon, seed=3)
    return run_arm(scenario, replace(bundle.ruleset, day_length=10),
                   bundle.config,
                   replace(bundle.house, outdoor_temperature=40.0))


def _readings(report):
    return [(e.time, e.value) for e in report.events]


_EVERY_MODE = {
    "bernoulli": SourceSpec(name="crowd", sensor="occ1", p=0.3),
    "clock": SourceSpec(name="wall_clock", sensor="clock1", mode="clock"),
    "cov": SourceSpec(name="room_temp", sensor="temp1", mode="cov",
                      feature="temperature", min_delta=1.0),
    "script": SourceSpec(name="readings", sensor="occ1", mode="script",
                         at=((2, 1.0), (5, 0.0), (40, 1.0))),
}


class TestSourceModes:
    """What each source mode reads, and when it fires."""

    @pytest.mark.parametrize("choices", [None, (0.0, 1.0, 0.5)])
    def test_bernoulli_reads_on_its_draw_ticks(self, choices):
        src = SourceSpec(name="crowd", sensor="occ1", p=0.3, value=0.7,
                         choices=choices)
        rng = _source_rng(3, "crowd")
        ticks = np.flatnonzero(rng.random(30) < 0.3)
        values = ([choices[i] for i in rng.integers(0, len(choices), 30)]
                  if choices else [0.7] * 30)
        assert 0 < len(ticks) < 30
        assert _readings(_probe_sources(src)) == [(t, values[t])
                                                   for t in ticks]

    def test_clock_reads_the_tick_of_day_every_tick(self):
        report = _probe_sources(_EVERY_MODE["clock"], horizon=25)
        assert _readings(report) == [(t, t % 10) for t in range(25)]

    def test_cov_reads_at_its_first_tick_then_on_each_move(self):
        report = _probe_sources(_EVERY_MODE["cov"])
        # A tick's reading is the temperature the previous tick recorded.
        temps = [70.0, *report.series["room1"]["temperature"][:-1]]
        expected, last = [], None
        for tick, temp in enumerate(temps):
            if last is None or abs(temp - last) > 1.0:
                expected.append((tick, temp))
                last = temp
        assert 1 < len(expected) < 30
        assert _readings(report) == expected

    @pytest.mark.parametrize("mode", sorted(_EVERY_MODE))
    def test_occupancy_and_emission_hold_for_every_mode(self, mode):
        # The room is occupied exactly on the ticks the source fires, and
        # a source that does not emit only drives occupancy.
        src = replace(_EVERY_MODE[mode], occupancy_room="room1")
        emitting = _probe_sources(src)
        fired = [e.time for e in emitting.events]
        assert fired
        silent = _probe_sources(replace(src, emit_event=False))
        assert silent.events == []
        for report in (emitting, silent):
            occupied = report.series["room1"]["occupancy"]
            assert np.flatnonzero(occupied).tolist() == fired


class TestLibrarySetupChecks:
    """A scenario or house built in code meets the checks a document
    does, before tick 0."""

    def test_repeated_source_name_rejected(self):
        s5 = build("S5")
        twin = SourceSpec(name="smoke", sensor="leak1", p=0.05)
        with pytest.raises(SimulationError,
                           match="duplicate source name 'smoke'"):
            replace(s5, sources=(*s5.sources, twin))

    @pytest.mark.parametrize("at,problem", [
        (((3, 1.0), (-1, 0.0)), "tick -1 is not an integer >= 0"),
        ((("3", 1.0),), "tick '3' is not an integer >= 0"),
        (((True, 1.0),), "tick True is not an integer >= 0"),
        (((3, 1.0), (5, 1.0), (3, 0.0)), "lists tick 3 twice")])
    def test_bad_script_tick_rejected(self, at, problem):
        with pytest.raises(SimulationError,
                           match=f"script source 'x' {problem}"):
            SourceSpec(name="x", sensor="s", mode="script", at=at)

    @pytest.mark.parametrize("adjacency,problem", [
        ((("a", "b"), ("a", "a")), r"joins room a to itself"),
        ((("a", "b"), ("b", "a")), r"lists \(b, a\) twice"),
        ((("a", "b"), ("a", "b")), r"lists \(a, b\) twice")])
    def test_bad_adjacency_rejected(self, adjacency, problem):
        with pytest.raises(SimulationError, match=f"adjacency {problem}"):
            HouseModel(rooms=(room(name="a"), room(name="b")),
                       adjacency=adjacency)

    def test_unknown_thermostat_mode_rejected(self):
        with pytest.raises(SimulationError,
                           match="room 'room1' thermostat must be off, "
                                 "heat or cool, not 'hot'"):
            room(thermostat="hot")

    @pytest.mark.parametrize("name,value", [("occupant_heat", -1.0),
                                            ("setpoint_step", -10.0)])
    def test_negative_house_parameter_rejected(self, name, value):
        with pytest.raises(SimulationError,
                           match=f"house parameter {name} must be >= 0"):
            HouseParams(**{name: value})

    @pytest.mark.parametrize("name", ["k_loss", "occupant_heat"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_house_parameter_rejected(self, name, value):
        with pytest.raises(SimulationError,
                           match=f"house parameter {name} must be finite"):
            HouseParams(**{name: value})

    @pytest.mark.parametrize("name", ["temperature", "setpoint"])
    @pytest.mark.parametrize("value", [float("nan"), -float("inf")])
    def test_non_finite_room_temperature_rejected(self, name, value):
        with pytest.raises(SimulationError,
                           match=f"room 'room1' {name} must be finite"):
            room(**{name: value})

    @pytest.mark.parametrize("name,trace", [
        ("outdoor_temperature", float("nan")),
        ("outdoor_temperature", (60.0, float("inf"))),
        ("outdoor_temperature", ()),
        ("daylight", (300.0, float("nan")))])
    def test_non_finite_outdoor_trace_rejected(self, name, trace):
        with pytest.raises(SimulationError,
                           match=f"house {name} must be a finite number"):
            HouseModel(rooms=(room(),), **{name: trace})

    def test_undeclared_momentary_actuator_rejected(self):
        bundle = load_bundle("c7_duplicate")
        house = replace(bundle.house, momentary=frozenset({"lamp9"}))
        scenario = Scenario(id="probe", ruleset="c7_duplicate", sources=(),
                            horizon=1)
        with pytest.raises(SimulationError,
                           match="momentary actuator 'lamp9' is not "
                                 "declared"):
            run_arm(scenario, bundle.ruleset, bundle.config, house)

    def test_undeclared_rule_actuator_rejected(self):
        bundle = load_bundle("s5_alarm")
        rs = bundle.ruleset
        rule = rs.rules[1]  # r_alarm_leak
        rs = replace(rs, rules=(rs.rules[0], replace(
            rule, action=replace(rule.action, actuator="nope"))))
        scenario = Scenario(id="probe", ruleset="s5_alarm", sources=(),
                            horizon=1)
        with pytest.raises(SimulationError,
                           match="rule 'r_alarm_leak' drives undeclared "
                                 "actuator 'nope'"):
            run_arm(scenario, rs, bundle.config, bundle.house)

    @pytest.mark.parametrize("name,value", [
        ("horizon", 2.5), ("horizon", "10"), ("horizon", True),
        ("horizon", -1), ("seed", -1), ("seed", 1.5), ("seed", False)])
    def test_bad_horizon_or_seed_rejected(self, name, value):
        with pytest.raises(SimulationError,
                           match=f"{name} must be an integer >= 0"):
            Scenario(id="probe", ruleset="s5_alarm", sources=(),
                     **{"horizon": 1, name: value})

    def test_built_scenario_owns_its_overrides(self):
        first = build("S7")
        first.house_overrides["occupant_heat"] = 9.0
        first.baseline_overrides["occupant_heat"] = 9.0
        again = build("S7")
        assert again.house_overrides == {"occupant_heat": 0.3}
        assert again.baseline_overrides == {"occupant_heat": 0.0}


class TestDeterminismAndBounds:
    def test_identical_seeds_identical_reports(self):
        a = run_scenario(build("S2", seed=11))
        b = run_scenario(build("S2", seed=11))
        assert [c.key() for c in a.conflicts] == [c.key() for c in b.conflicts]
        assert a.actuations == b.actuations
        for roomname in a.series:
            for fieldname in a.series[roomname]:
                assert np.array_equal(a.series[roomname][fieldname],
                                      b.series[roomname][fieldname])

    def test_source_streams_independent_of_list_order(self):
        base = build("S5", seed=3)
        flipped = replace(base, sources=tuple(reversed(base.sources)))
        a = run_scenario(base)
        b = run_scenario(flipped)
        assert {(e.time, e.sensor) for e in a.events} == {
            (e.time, e.sensor) for e in b.events}

    @pytest.mark.parametrize("sid", ["S1", "S2", "S3", "S4"])
    def test_humidity_stays_in_bounds(self, sid):
        report = run_scenario(replace(build(sid, seed=2), horizon=300))
        for roomname in report.rooms:
            h = report.series[roomname]["humidity"]
            assert np.all(h >= 0.0) and np.all(h <= 100.0)

    def test_temperature_stays_in_envelope(self):
        scenario = replace(build("S2", seed=4), horizon=400)
        report = run_scenario(scenario)
        t = report.series["room1"]["temperature"]
        g_heat = 0.5
        assert np.all(t >= 40.0 - 5.0)
        assert np.all(t <= 70.0 + g_heat * scenario.horizon)


class TestSuppression:
    @pytest.mark.parametrize("sid,seeds", [("S1", range(6)),
                                           ("S5", range(6))])
    def test_enforcement_never_increases_actuations(self, sid, seeds):
        # Valid for scenarios whose event sources do not feed back through
        # room state, so both arms see identical event streams.
        for seed in seeds:
            observe = run_scenario(build(sid, seed=seed))
            enforce = run_scenario(replace(build(sid, seed=seed),
                                           detector="on"))
            for actuator, count in enforce.actuations.items():
                assert count <= observe.actuations.get(actuator, 0)

    # Per scenario at seed 1: total actuations, suppressed actions, and
    # those suppressed as duplicates.
    @pytest.mark.parametrize("sid,expected", [
        ("S1", (9, 77, 77)), ("S2", (196, 79, 54)), ("S3", (487, 21, 0)),
        ("S4", (33, 25, 20)), ("S5", (37, 204, 203)),
        ("S6", (1097, 321, 177)), ("S7", (440, 315, 0)),
        ("S8", (1987, 435, 0))])
    def test_enforcement_counts_pinned(self, sid, expected):
        report = run_scenario(replace(build(sid, seed=1), detector="on"))
        assert (sum(report.actuations.values()), report.suppressed_actions,
                report.suppressed_duplicates) == expected

    def test_each_event_matched_once(self, monkeypatch):
        # The run applies the firings the detector matched; nothing in the
        # simulator matches an event again.
        calls = 0

        def counted(event, ruleset):
            nonlocal calls
            calls += 1
            return match_rules(event, ruleset)

        monkeypatch.setattr(detector, "match_rules", counted)
        monkeypatch.setattr(simulator, "match_rules", counted)
        scenario = replace(build("S5", seed=1), horizon=300, detector="on")
        bundle = load_bundle(scenario.ruleset)
        report = run_arm(scenario, bundle.ruleset, bundle.config,
                         bundle.house)
        assert report.events and report.suppressed_actions
        assert calls == len(report.events)

    def test_detection_identical_under_enforcement(self):
        observe = run_scenario(build("S5", seed=8))
        enforce = run_scenario(replace(build("S5", seed=8), detector="on"))
        assert [c.key() for c in observe.conflicts] == [
            c.key() for c in enforce.conflicts]
        assert enforce.suppressed_actions > 0
