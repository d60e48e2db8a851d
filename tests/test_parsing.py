"""Document loading, validation errors, and canonical round-trips."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import FIXTURES, random_ruleset
from test_cli import MUTATION_ALPHABET, USER_SCENARIO, mutated
from tapcheck.cli import main
from tapcheck import parsing
from tapcheck.errors import (
    DuplicateIdError,
    InvalidConfigError,
    ParseError,
    ReferentialIntegrityError,
    SimulationError,
    TapcheckError,
)
from tapcheck.model import (
    ActionRelationTable,
    ActionSpec,
    Actuator,
    DetectorConfig,
    FeatureDependencyGraph,
    Registry,
    Relation,
    Rule,
    RuleSet,
    Sensor,
    TriggerCondition,
)
from tapcheck.parsing import _load_yaml, load_document, serialize_document
from tapcheck.scenarios import (
    fixture_text,
    load_bundle,
    load_scenario_bundle,
    run_scenario,
)
from tapcheck.simulator import run_arm

GENERATED = [f"generated{seed}" for seed in range(10)]
needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                   reason="PyYAML is built without libyaml")

MINIMAL = """
registry:
  locations: [room1]
  controllers: [ctrl]
  sensors:
    - {id: t1, kind: temperature, unit: F, location: room1}
  actuators:
    - {id: th1, kind: thermostat, location: room1, actions: [heat, "off"]}
  features: [temperature@room1]
rules:
  - id: r1
    controller: ctrl
    trigger: {sensor_kind: temperature, comparator: "<", threshold: 65}
    action: {actuator: th1, action: heat, affected_features: [temperature@room1]}
"""


class TestParseRuleset:
    def test_minimal_document(self):
        rs = load_document(MINIMAL).ruleset
        assert len(rs.rules) == 1
        assert rs.rules[0].trigger.unit == "F"
        assert rs.registry.sensors["t1"].kind == "temperature"

    def test_dangling_actuator_named(self):
        doc = MINIMAL.replace("actuator: th1", "actuator: thermo9")
        with pytest.raises(ReferentialIntegrityError, match="thermo9"):
            load_document(doc)

    def test_dangling_controller_named(self):
        doc = MINIMAL.replace("controller: ctrl\n", "controller: ghost\n")
        with pytest.raises(ReferentialIntegrityError, match="ghost"):
            load_document(doc)

    def test_dangling_feature_named(self):
        doc = MINIMAL.replace("affected_features: [temperature@room1]",
                              "affected_features: [temperature@room9]")
        with pytest.raises(ReferentialIntegrityError, match="temperature@room9"):
            load_document(doc)

    def test_duplicate_rule_id(self):
        extra = MINIMAL + """
  - id: r1
    controller: ctrl
    trigger: {sensor_kind: temperature, comparator: ">", threshold: 75}
    action: {actuator: th1, action: "off", affected_features: [temperature@room1]}
"""
        with pytest.raises(DuplicateIdError, match="^duplicate rule id 'r1'$"):
            load_document(extra)

    def test_duplicate_sensor_id(self):
        doc = MINIMAL.replace(
            "- {id: t1, kind: temperature, unit: F, location: room1}",
            "- {id: t1, kind: temperature, unit: F, location: room1}\n"
            "    - {id: t1, kind: humidity, unit: pct, location: room1}")
        with pytest.raises(DuplicateIdError, match="t1"):
            load_document(doc)

    def test_yaml_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            load_document("registry: [\n  oops")
        assert str(err.value) == ("invalid YAML: expected ',' or ']', but "
                                  "got '<stream end>' (line 2, column 7)")
        assert (err.value.line, err.value.column) == (2, 7)

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError, match="unknown top-level"):
            load_document(MINIMAL + "\nmystery: 1\n")

    def test_threshold_unit_mismatch(self):
        doc = MINIMAL.replace("threshold: 65", "threshold: 65, unit: C")
        with pytest.raises(ReferentialIntegrityError,
                           match="^rule 'r1' threshold unit 'C' does not "
                                 "match sensor kind 'temperature' unit 'F'$"):
            load_document(doc)

    def test_action_outside_vocabulary(self):
        doc = MINIMAL.replace("action: heat", "action: explode")
        with pytest.raises(ReferentialIntegrityError, match="explode"):
            load_document(doc)

    def test_bad_schedule_rejected(self):
        doc = MINIMAL.replace(
            "trigger: {sensor_kind: temperature, comparator: \"<\", threshold: 65}",
            "trigger: {sensor_kind: temperature, comparator: \"<\", "
            "threshold: 65, schedule: [900, 100]}")
        with pytest.raises(InvalidConfigError,
                           match=r"^rule 'r1' schedule must be a pair of "
                                 r"integers with 0 <= start < end <= 864, "
                                 r"not \(900, 100\)$"):
            load_document(doc)

    def test_identity_relation_must_be_same(self):
        doc = MINIMAL + """
action_relations:
  thermostat:
    - [heat, heat, opposite]
"""
        with pytest.raises(InvalidConfigError,
                           match=r"^action relations entries must map "
                                 r"\(\('thermostat', 'heat'\), "
                                 r"\('thermostat', 'heat'\)\) to 'same', "
                                 r"not 'opposite'$"):
            load_document(doc)

    def test_similarity_class_checks_registry(self):
        doc = MINIMAL + """
detector:
  similarity_classes:
    - ["temperature:==:room1", "pressure:==:room1"]
"""
        with pytest.raises(ReferentialIntegrityError, match="pressure"):
            load_document(doc)

    @pytest.mark.parametrize("deps,error,message", [
        ("[[temperature@room1, temperature@room1]]", InvalidConfigError,
         "self-loop on feature 'temperature@room1'"),
        ("[[temperature@room1, ghost]]", ReferentialIntegrityError,
         "dependency edge references undeclared feature 'ghost'"),
        ("[[ghost, temperature@room1]]", ReferentialIntegrityError,
         "dependency edge references undeclared feature 'ghost'"),
    ], ids=["self_loop", "undeclared_to", "undeclared_from"])
    def test_bad_dependency_edge_rejected_by_the_graph(self, deps, error,
                                                       message):
        with pytest.raises(error, match=f"^{message}$"):
            load_document(f"{MINIMAL}feature_deps: {deps}\n")

    @pytest.mark.parametrize("deps", ["[temp]", "[[temperature@room1, 5]]"])
    def test_malformed_dependency_edge_rejected(self, deps):
        with pytest.raises(ParseError, match=r"at feature_deps\[0\]"):
            load_document(f"{MINIMAL}feature_deps: {deps}\n")

    @pytest.mark.parametrize("detector,windows", [
        ("{}", (5, 30, 0)),
        ("{overlap_window: 7}", (7, 30, 0)),
        ("{duplicate_window: 9, same_tick_epsilon: 2}", (5, 9, 2)),
    ])
    def test_unset_windows_take_the_config_defaults(self, detector,
                                                    windows):
        cfg = load_document(f"{MINIMAL}detector: {detector}\n").config
        assert (cfg.overlap_window, cfg.duplicate_window,
                cfg.same_tick_epsilon) == windows

    @pytest.mark.parametrize("value", ["abc", "2.5", "true", "null", "-1"])
    def test_window_type_checked_by_the_config(self, value):
        with pytest.raises(InvalidConfigError) as err:
            load_document(f"{MINIMAL}detector: {{overlap_window: {value}}}\n")
        assert str(err.value) == ("overlap_window must be an integer >= 1, "
                                  f"not {yaml.safe_load(value)!r}")

    @pytest.mark.parametrize("needle,bogus", [
        ("threshold: 65", "threshold: .nan"),
        ("threshold: 65", "threshold: -.inf"),
        ("threshold: 65", "threshold: 1" + "0" * 400),
    ])
    def test_non_finite_number_rejected(self, needle, bogus):
        # A NaN threshold compares false with every reading, so its rule
        # could never fire.
        doc = MINIMAL.replace(needle, bogus)
        assert doc != MINIMAL
        with pytest.raises(InvalidConfigError) as err:
            load_document(doc)
        assert str(err.value) == "rule 'r1' trigger.threshold must be finite"

    @pytest.mark.parametrize("bogus,message", [
        pytest.param("range: [0, .inf]", "sensor 't1' range[1] must be finite",
                     id="range"),
        ("tolerance: .nan", "sensor 't1' tolerance must be finite"),
    ])
    def test_non_finite_sensor_value_rejected_by_the_sensor(self, bogus,
                                                            message):
        # An infinite range or tolerance is no bound.
        needle = "location: room1}\n  actuators"
        doc = MINIMAL.replace(
            needle, f"location: room1, {bogus}}}\n  actuators")
        assert doc != MINIMAL
        with pytest.raises(InvalidConfigError) as err:
            load_document(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("leaf", ["true", "'5'", "null"])
    def test_threshold_that_is_not_a_number_rejected(self, leaf):
        doc = MINIMAL.replace("threshold: 65", f"threshold: {leaf}")
        with pytest.raises(InvalidConfigError) as err:
            load_document(doc)
        assert str(err.value) == (
            "rule 'r1' trigger.threshold must be a number, not "
            f"{yaml.safe_load(leaf)!r}")

    def test_negative_tolerance_rejected(self):
        # With tolerance -1 no two readings are within tolerance, so the
        # sensor's repeats would never be C7 duplicates.
        text = fixture_text("c7_duplicate")
        needle = "location: room1, range: [30, 100]}"
        assert needle in text
        with pytest.raises(InvalidConfigError,
                           match=r"^sensor 'temp1' tolerance must be >= 0$"):
            load_document(text.replace(
                needle, "location: room1, range: [30, 100], tolerance: -1}"))

    @pytest.mark.parametrize("needle,bogus", [
        ("controller: ctrl\n", "controller: ghost\n"),
        ("actuator: th1", "actuator: ghost"),
        ("action: heat", "action: ghost"),
        ("sensor_kind: temperature, c", "sensor_kind: ghost, c"),
        ("affected_features: [temperature@room1]",
         "affected_features: [ghost]"),
        ("location: room1}\n  actuators", "location: ghost}\n  actuators"),
    ])
    def test_any_single_dangling_reference_is_fatal(self, needle, bogus):
        # Injecting one dangling reference anywhere yields an error that
        # names it, never a ruleset.
        doc = MINIMAL.replace(needle, bogus)
        assert doc != MINIMAL
        with pytest.raises((ReferentialIntegrityError, ParseError),
                           match="ghost"):
            load_document(doc)


def _rule(ruleset, trigger=(), action=(), **fields):
    """``ruleset`` with its one rule given other field values."""
    (rule,) = ruleset.rules
    return replace(ruleset, rules=(replace(
        rule, trigger=replace(rule.trigger, **dict(trigger)),
        action=replace(rule.action, **dict(action)), **fields),))


def _registry(ruleset, sensors=(), actuators=()):
    """``ruleset``'s registry with sensors and actuators added or
    replaced."""
    registry = ruleset.registry
    return replace(
        registry, sensors={**registry.sensors, **{s.id: s for s in sensors}},
        actuators={**registry.actuators, **{a.id: a for a in actuators}})


class TestReferenceChecks:
    """``RuleSet`` checks each name a rule gives, and ``Registry`` its own
    cross-references, once: a library caller, a document and the CLI get
    one error with the same text."""

    @pytest.mark.parametrize("build,needle,bogus,message", [
        (lambda rs: _rule(rs, controller="ghost"),
         "controller: ctrl\n", "controller: ghost\n",
         "rule 'r1' references undeclared controller 'ghost'"),
        (lambda rs: _rule(rs, trigger={"sensor_kind": "ghost"}),
         "sensor_kind: temperature", "sensor_kind: ghost",
         "rule 'r1' triggers on undeclared sensor kind 'ghost'"),
        (lambda rs: _rule(rs, trigger={"unit": "C"}),
         "threshold: 65}", "threshold: 65, unit: C}",
         "rule 'r1' threshold unit 'C' does not match sensor kind "
         "'temperature' unit 'F'"),
        (lambda rs: _rule(rs, trigger={"location_filter": "ghost"}),
         "threshold: 65}", "threshold: 65, location_filter: ghost}",
         "rule 'r1' filters on undeclared location 'ghost'"),
        (lambda rs: _rule(rs, action={"actuator": "ghost"}),
         "actuator: th1", "actuator: ghost",
         "rule 'r1' references undeclared actuator 'ghost'"),
        (lambda rs: _rule(rs, action={"action": "ghost"}),
         "action: heat", "action: ghost",
         "rule 'r1' uses action 'ghost' not declared for actuator 'th1'"),
        (lambda rs: _rule(rs, action={"location": "ghost"}),
         "{actuator: th1,", "{location: ghost, actuator: th1,",
         "rule 'r1' action location 'ghost' does not match actuator 'th1' "
         "location 'room1'"),
        (lambda rs: _rule(rs, action={
            "affected_features": frozenset({"ghost"})}),
         "affected_features: [temperature@room1]",
         "affected_features: [ghost]",
         "rule 'r1' affects undeclared feature 'ghost'"),
        (lambda rs: _registry(rs, sensors=[Sensor(
            id="t1", kind="temperature", unit="F", location="ghost")]),
         "unit: F, location: room1}", "unit: F, location: ghost}",
         "sensor 't1' placed in undeclared location 'ghost'"),
        (lambda rs: _registry(rs, actuators=[Actuator(
            id="th1", kind="thermostat", location="ghost",
            actions=("heat", "off"))]),
         "thermostat, location: room1", "thermostat, location: ghost",
         "actuator 'th1' placed in undeclared location 'ghost'"),
        (lambda rs: _registry(rs, sensors=[Sensor(
            id="t2", kind="temperature", unit="C", location="room1")]),
         "  actuators:\n",
         "    - {id: t2, kind: temperature, unit: C, location: room1}\n"
         "  actuators:\n",
         "sensor kind 'temperature' declared with conflicting units 'F' "
         "and 'C'"),
        (lambda rs: _registry(rs, actuators=[Actuator(
            id="th2", kind="thermostat", location="room1",
            actions=("heat",))]),
         "  features:", "    - {id: th2, kind: thermostat, location: room1, "
         "actions: [heat]}\n  features:",
         "actuator kind 'thermostat' declared with differing action "
         "vocabularies"),
    ], ids=["controller", "sensor_kind", "unit", "location_filter",
            "actuator", "action", "action_location", "affected_features",
            "sensor_location", "actuator_location", "kind_unit",
            "vocabulary"])
    def test_library_and_document_share_one_error(self, build, needle, bogus,
                                                  message, tmp_path, capsys):
        ruleset = load_document(MINIMAL).ruleset
        with pytest.raises(ReferentialIntegrityError) as built:
            build(ruleset)
        assert MINIMAL.count(needle) == 1
        text = MINIMAL.replace(needle, bogus)
        with pytest.raises(ReferentialIntegrityError) as loaded:
            load_document(text)
        assert str(built.value) == str(loaded.value) == message
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        assert main(["check", "--ruleset", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("base,build,needle,bogus,error,message", [
        (MINIMAL, lambda doc: replace(doc.ruleset.registry.sensors["t1"],
                                      range=(5, 1)),
         "unit: F, location: room1}", "unit: F, location: room1, "
         "range: [5, 1]}", InvalidConfigError,
         "sensor 't1' range must be two finite numbers with low < high, "
         "not (5, 1)"),
        (MINIMAL, lambda doc: replace(doc.ruleset.registry.sensors["t1"],
                                      range=(1, 2, 3)),
         "unit: F, location: room1}", "unit: F, location: room1, "
         "range: [1, 2, 3]}", InvalidConfigError,
         "sensor 't1' range must be a pair of numbers, not (1, 2, 3)"),
        (MINIMAL, lambda doc: replace(doc.ruleset.registry.sensors["t1"],
                                      tolerance=-1),
         "unit: F, location: room1}", "unit: F, location: room1, "
         "tolerance: -1}", InvalidConfigError,
         "sensor 't1' tolerance must be >= 0"),
        (MINIMAL, lambda doc: replace(doc.ruleset.registry.actuators["th1"],
                                      actions=("heat", "heat")),
         'actions: [heat, "off"]', "actions: [heat, heat]", DuplicateIdError,
         "duplicate action name on actuator 'th1'"),
        (MINIMAL, lambda doc: replace(doc.config.action_relations, entries={
            ActionRelationTable.key("thermostat", "heat", "thermostat",
                                    "heat"): Relation.OPPOSITE}),
         "rules:\n", "action_relations:\n  thermostat:\n"
         "    - [heat, heat, opposite]\nrules:\n", InvalidConfigError,
         "action relations entries must map (('thermostat', 'heat'), "
         "('thermostat', 'heat')) to 'same', not 'opposite'"),
        (MINIMAL, lambda doc: replace(doc.config.dependency_graph,
                                      edges=frozenset({("a", "b", "c")})),
         "rules:\n", "feature_deps: [[a, b, c]]\nrules:\n",
         InvalidConfigError, "dependency graph edges entry ('a', 'b', 'c') "
         "must be a pair of names, not ('a', 'b', 'c')"),
        (MINIMAL, lambda doc: _rule(doc.ruleset, trigger={"threshold": "abc"}),
         "threshold: 65}", "threshold: abc}", InvalidConfigError,
         "rule 'r1' trigger.threshold must be a number, not 'abc'"),
        (MINIMAL, lambda doc: _rule(doc.ruleset, trigger={"threshold": True}),
         "threshold: 65}", "threshold: true}", InvalidConfigError,
         "rule 'r1' trigger.threshold must be a number, not True"),
        (MINIMAL, lambda doc: _rule(doc.ruleset,
                                    trigger={"schedule": (1, 2, 3)}),
         "threshold: 65}", "threshold: 65, schedule: [1, 2, 3]}",
         InvalidConfigError, "rule 'r1' schedule must be a pair of integers "
         "with 0 <= start < end <= 864, not (1, 2, 3)"),
        # A bool is an int to Python, so [false, true] once read as [0, 1).
        (MINIMAL, lambda doc: _rule(doc.ruleset,
                                    trigger={"schedule": (False, True)}),
         "threshold: 65}", "threshold: 65, schedule: [false, true]}",
         InvalidConfigError, "rule 'r1' schedule must be a pair of integers "
         "with 0 <= start < end <= 864, not (False, True)"),
        (MINIMAL, lambda doc: _rule(doc.ruleset,
                                    trigger={"location_filter": 5}),
         "threshold: 65}", "threshold: 65, location_filter: 5}",
         ReferentialIntegrityError,
         "rule 'r1' filters on undeclared location 5"),
        (MINIMAL, lambda doc: _rule(doc.ruleset, action={
            "affected_features": frozenset()}),
         "affected_features: [temperature@room1]", "affected_features: []",
         InvalidConfigError,
         "rule 'r1' action.affected_features must be non-empty"),
        (USER_SCENARIO, lambda scenario, bundle: replace(
            scenario, baseline_overrides={"k_los": 1}),
         "  seed: 4\n", "  seed: 4\n  baseline_overrides: {k_los: 1}\n",
         SimulationError, "scenario 'night_light_race' baseline_overrides "
         "has unknown key 'k_los'"),
        (USER_SCENARIO, lambda scenario, bundle: run_arm(
            scenario, bundle.ruleset, bundle.config,
            replace(bundle.house, momentary=frozenset({"ghost"}))),
         "momentary: [lampA, lampB]", "momentary: [ghost]", SimulationError,
         "momentary actuator 'ghost' is not declared"),
    ], ids=["range", "range_triple", "tolerance", "actions", "identical_pair",
            "edge_triple", "threshold_text", "threshold_bool",
            "schedule_triple", "schedule_bools", "location_filter_number",
            "affected_features_empty", "override_key", "momentary_ghost"])
    def test_library_and_document_share_one_record_error(
            self, base, build, needle, bogus, error, message, tmp_path,
            capsys):
        # The records judge what the parser once did, with one text. A
        # scenario document is read and run, as ``simulate`` does.
        path = tmp_path / "bad.yaml"
        path.write_text(base, encoding="utf-8")
        ruleset = base is MINIMAL
        if ruleset:
            good = (load_document(base),)
            argv = ["check", "--ruleset", str(path)]
        else:
            good = load_scenario_bundle(str(path))
            argv = ["simulate", "--scenario", str(path),
                    "--out", str(tmp_path / "out")]
        with pytest.raises(error) as built:
            build(*good)
        assert base.count(needle) == 1
        path.write_text(base.replace(needle, bogus), encoding="utf-8")
        with pytest.raises(error) as loaded:
            if ruleset:
                load_document(base.replace(needle, bogus))
            else:
                run_scenario(*load_scenario_bundle(str(path)))
        assert str(built.value) == str(loaded.value) == message
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


# Wrong values for each field of a rule, its trigger and its action; the
# few a field may hold are left out. The fields in ``_BY_REFERENCE`` must
# equal a declared name, and that check judges them.
_WRONG_FIELD = {"list": ["x"], "int": 5, "empty": "", "none": None}
_FIELD_MAY_HOLD = {("threshold", "int"), ("location_filter", "none"),
                   ("schedule", "none")}
_BY_REFERENCE = {"unit", "location_filter", "location"}


def _rule_field_cases():
    for cls, part in ((Rule, None), (TriggerCondition, "trigger"),
                      (ActionSpec, "action")):
        for f in fields(cls):
            for label, value in _WRONG_FIELD.items():
                if (f.name, label) not in _FIELD_MAY_HOLD:
                    yield pytest.param(part, f.name, value,
                                       id=f"{cls.__name__}.{f.name}-{label}")


class TestRuleFieldTypes:
    """``RuleSet`` checks the type of each field of a rule before it hashes
    any, so a library rule of the wrong shape ends in one error that names
    the rule and the field, never in a bare ``TypeError``."""

    @pytest.mark.parametrize("part,name,value", list(_rule_field_cases()))
    def test_field_of_the_wrong_type_rejected(self, part, name, value):
        ruleset = load_document(MINIMAL).ruleset
        (rule,) = ruleset.rules
        changes = {name: value}
        if part is not None:
            changes = {part: replace(getattr(rule, part), **changes)}
        with pytest.raises(TapcheckError) as err:
            replace(ruleset, rules=(replace(rule, **changes),))
        message = str(err.value)
        assert message.startswith("rule ") and "\n" not in message
        if name in _BY_REFERENCE:
            assert isinstance(err.value, ReferentialIntegrityError)
        else:
            assert isinstance(err.value, InvalidConfigError)
            assert f"{name} must be " in message


# Each config record as S5's bundle holds it, and the words that start its
# errors. The windows and ``day_length`` keep texts that start with the
# field, a name no other record has.
_RECORDS = {
    Sensor: (lambda rs, cfg: rs.registry.sensors["smoke1"], "sensor "),
    Actuator: (lambda rs, cfg: rs.registry.actuators["alarm1"], "actuator "),
    Registry: (lambda rs, cfg: rs.registry, "registry "),
    FeatureDependencyGraph: (lambda rs, cfg: cfg.dependency_graph,
                             "dependency graph "),
    ActionRelationTable: (lambda rs, cfg: cfg.action_relations,
                          "action relations "),
    DetectorConfig: (lambda rs, cfg: cfg, "detector "),
    RuleSet: (lambda rs, cfg: rs, "ruleset "),
}
_OWN_TEXT = {"overlap_window", "duplicate_window", "same_tick_epsilon",
             "day_length"}
_RECORD_MAY_HOLD = {("tolerance", "int"), ("overlap_window", "int"),
                    ("duplicate_window", "int"), ("same_tick_epsilon", "int"),
                    ("day_length", "int")}


def _record_field_cases():
    for cls in _RECORDS:
        for f in fields(cls):
            for label, value in _WRONG_FIELD.items():
                if (f.name, label) not in _RECORD_MAY_HOLD:
                    yield pytest.param(cls, f.name, value, None,
                                       id=f"{cls.__name__}.{f.name}-{label}")


# Faults of one record that its type alone lets through; each once ended
# in a bare TypeError, ValueError or AttributeError, or was accepted.
_RECORD_FAULTS = [
    pytest.param(Sensor, "range", (5.0, 1.0),
                 "sensor 'smoke1' range must be two finite numbers with "
                 "low < high, not (5.0, 1.0)", id="range_reversed"),
    pytest.param(Sensor, "range", ("a", "b"),
                 "sensor 'smoke1' range[0] must be a number, not 'a'",
                 id="range_text"),
    pytest.param(Sensor, "range", (float("nan"), 1.0),
                 "sensor 'smoke1' range[0] must be finite", id="range_nan"),
    pytest.param(Actuator, "actions", (),
                 "actuator 'alarm1' actions must hold at least one action",
                 id="no_actions"),
    pytest.param(Actuator, "actions", ("sound", "sound"),
                 "duplicate action name on actuator 'alarm1'",
                 id="action_twice"),
    pytest.param(Registry, "locations", ("room1", ["x"]),
                 "registry locations[1] must be a non-empty string, not "
                 "['x']", id="location_list"),
    pytest.param(Registry, "sensors",
                 lambda rs: {"zz": rs.registry.sensors["smoke1"]},
                 "registry sensors key 'zz' holds sensor 'smoke1'",
                 id="sensor_key"),
    pytest.param(FeatureDependencyGraph, "edges",
                 frozenset({("alert@room1", "a", "b")}),
                 "dependency graph edges entry ('alert@room1', 'a', 'b') must "
                 "be a pair of names, not ('alert@room1', 'a', 'b')",
                 id="edge_triple"),
    pytest.param(FeatureDependencyGraph, "nodes", frozenset({5}),
                 "dependency graph nodes entry 5 must be a non-empty string, "
                 "not 5", id="node_number"),
    pytest.param(DetectorConfig, "dependency_graph", "x",
                 "detector dependency_graph must be a "
                 "FeatureDependencyGraph, not 'x'", id="graph_text"),
    pytest.param(RuleSet, "rules", ("x",),
                 "ruleset rules[0] must be a Rule, not 'x'", id="rule_text"),
    pytest.param(ActionRelationTable, "entries", {ActionRelationTable.key(
        "alarm", "sound", "alarm", "sound"): Relation.OPPOSITE},
                 "action relations entries must map (('alarm', 'sound'), "
                 "('alarm', 'sound')) to 'same', not 'opposite'",
                 id="identical_pair_opposite"),
    pytest.param(ActionRelationTable, "entries", {ActionRelationTable.key(
        "alarm", "sound", "lamp", "on"): Relation.OPPOSITE},
                 "action relations entries must key sorted pairs of action "
                 "classes of the vocabulary, not (('alarm', 'sound'), "
                 "('lamp', 'on'))", id="undeclared_class"),
]


class TestRecordFieldChecks:
    """Each config record checks its own fields as it is built, so a
    library record of the wrong shape ends in one error line that names
    the record and the field, as a document's does."""

    @pytest.mark.parametrize("cls,name,value,message",
                             [*_record_field_cases(), *_RECORD_FAULTS])
    def test_wrong_field_rejected(self, cls, name, value, message):
        bundle = load_bundle("s5_alarm")
        rs, cfg = bundle.ruleset, bundle.config
        get, words = _RECORDS[cls]
        if callable(value):
            value = value(rs)
        with pytest.raises(TapcheckError) as err:
            replace(get(rs, cfg), **{name: value})
        text = str(err.value)
        assert "\n" not in text
        if message is not None:
            assert text == message
        elif name in _OWN_TEXT:
            assert text.startswith(f"{name} must be ")
        else:
            assert text.startswith(words) and f" {name} must be " in text


SCENARIO_TAIL = """
house:
  rooms: [{id: room1}]
  outdoor: {temperature: 60}
scenario: {id: typo, horizon: 5}
"""


class TestUndeclaredKeys:
    """Every mapping of a document rejects a key it does not declare, so a
    misspelled optional key is an error, not a silently applied default."""

    @pytest.mark.parametrize("needle,typo,key,path", [
        ("  features:", "  featurs:", "featurs", "registry"),
        ("unit: F,", "unit: F, tolerence: 1,", "tolerence",
         "registry.sensors[0]"),
        ("location: room1, actions:", "locaton: room1, actions:", "locaton",
         "registry.actuators[0]"),
        ("controller: ctrl\n", "controler: ctrl\n", "controler", "rules[0]"),
        ("threshold: 65}", "threshold: 65, locaton_filter: room1}",
         "locaton_filter", "rules[0].trigger"),
        ("action: heat,", "action: heat, locaton: room1,", "locaton",
         "rules[0].action"),
        ("rules:", "detector: {overlap_windw: 2}\nrules:", "overlap_windw",
         "detector"),
        ("  rooms:", "  roms:", "roms", "house"),
        ("{temperature: 60}", "{temprature: 60}", "temprature",
         "house.outdoor"),
    ], ids=["registry", "sensor", "actuator", "rule", "trigger", "action",
            "detector", "house", "outdoor"])
    def test_misspelled_key_named_with_its_path(self, needle, typo, key,
                                                path, tmp_path):
        text = MINIMAL + SCENARIO_TAIL
        assert text.count(needle) == 1
        doc = tmp_path / "typo.yaml"
        doc.write_text(text.replace(needle, typo), encoding="utf-8")
        with pytest.raises(ParseError, match=f"unknown .* key '{key}'") as err:
            load_scenario_bundle(str(doc))
        assert err.value.path == path

    def test_correct_document_loads(self, tmp_path):
        doc = tmp_path / "ok.yaml"
        doc.write_text(MINIMAL + SCENARIO_TAIL, encoding="utf-8")
        scenario, bundle = load_scenario_bundle(str(doc))
        assert scenario.id == "typo"
        assert bundle.house.outdoor_temperature == 60.0

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "expected a mapping"),
        (MINIMAL.replace("    controller: ctrl\n", ""),
         "missing required key 'controller'"),
        (MINIMAL + "\n5: 1\n", "unknown top-level key 5"),
        (MINIMAL.replace("trigger: {", "trigger: [").replace(
            "threshold: 65}", "threshold: 65]"), "expected a mapping"),
    ], ids=["document_list", "rule_missing_key", "integer_key",
            "trigger_list"])
    def test_one_message_per_problem(self, text, message):
        with pytest.raises(ParseError, match=message):
            load_document(text)


class TestBundledFixtures:
    def test_house_fixture_shape(self):
        doc = load_document(fixture_text("house"))
        registry = doc.ruleset.registry
        assert set(registry.locations) == {"room1", "room2", "room3",
                                           "corridor"}
        assert len(doc.ruleset.rules) >= 10
        assert doc.config.overlap_window == 5
        assert doc.config.duplicate_window == 30

    @pytest.mark.parametrize("name", FIXTURES)
    def test_all_fixtures_parse(self, name):
        doc = load_document(fixture_text(name))
        assert doc.ruleset.rules


class TestRoundTrip:
    def test_fixed_point_on_house(self):
        doc = load_document(fixture_text("house"))
        text1 = serialize_document(doc.ruleset, doc.config)
        doc2 = load_document(text1)
        assert doc2.ruleset == doc.ruleset
        assert doc2.config == doc.config
        assert serialize_document(doc2.ruleset, doc2.config) == text1

    @pytest.mark.parametrize("seed", range(25))
    def test_fixed_point_on_random_rulesets(self, seed):
        rng = np.random.default_rng(seed)
        rs, cfg = random_ruleset(rng)
        text = serialize_document(rs, cfg)
        doc = load_document(text)
        assert doc.ruleset == rs
        assert doc.config == cfg
        assert serialize_document(doc.ruleset, doc.config) == text

    def test_integer_threshold_kept(self):
        # A threshold keeps the number its document gives, as a range does.
        doc = load_document(MINIMAL)
        threshold = doc.ruleset.rules[0].trigger.threshold
        assert type(threshold) is int and threshold == 65
        text = serialize_document(doc.ruleset, doc.config)
        assert "    threshold: 65\n" in text
        again = load_document(text)
        assert serialize_document(again.ruleset, again.config) == text

    def test_integer_threshold_outputs_match_its_float(self, tmp_path,
                                                       capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("tick,sensor,kind,predicate,value,location\n"
                         "0,t1,temperature,<,60.0,room1\n"
                         "2,t1,temperature,<,60.0,room1\n"
                         "3,t1,temperature,==,65.0,room1\n",
                         encoding="utf-8")
        outputs = []
        for threshold in ("65", "65.0"):
            path = tmp_path / f"threshold_{threshold}.yaml"
            path.write_text(MINIMAL.replace(
                "threshold: 65", f"threshold: {threshold}"), encoding="utf-8")
            assert main(["check", "--ruleset", str(path)]) == 0
            assert main(["monitor", "--ruleset", str(path),
                         "--trace", str(trace)]) == 1
            outputs.append(capsys.readouterr())
        assert ",C7," in outputs[0].out
        assert outputs[0] == outputs[1]


def _source_text(source: str) -> str:
    """A bundled fixture, or the serialized ``generatedN`` ruleset."""
    if source in GENERATED:
        rng = np.random.default_rng(int(source.removeprefix("generated")))
        return serialize_document(*random_ruleset(rng))
    return fixture_text(source)


def _pure_error(text: str) -> tuple:
    """The message, line and column of the pure parser's error."""
    with pytest.raises(yaml.MarkedYAMLError) as err:
        yaml.safe_load(text)
    mark = err.value.problem_mark
    return f"invalid YAML: {err.value.problem}", mark.line + 1, mark.column + 1


# Run with PyYAML's C classes deleted before tapcheck picks its loader.
WITHOUT_LIBYAML = """
import json, sys
import yaml
libyaml = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
for name in ("CSafeLoader", "CSafeDumper"):
    if hasattr(yaml, name):
        delattr(yaml, name)
from tapcheck import parsing
from tapcheck.scenarios import fixture_text
assert parsing._LOADER is yaml.SafeLoader
assert parsing._DUMPER is yaml.SafeDumper
out = {}
for name in sys.argv[1:]:
    text = fixture_text(name)
    assert parsing._load_yaml(text) == yaml.load(text, Loader=libyaml), name
    doc = parsing.load_document(text)
    out[name] = parsing.serialize_document(doc.ruleset, doc.config)
print(json.dumps(out))
"""


class TestYamlLoaders:
    """Documents are read and written with libyaml when PyYAML has it; what
    a document loads to, the bytes written and every YAML error's text and
    position are those of PyYAML's pure-Python classes."""

    @pytest.mark.parametrize("source", FIXTURES + GENERATED)
    def test_loads_what_the_pure_parser_loads(self, source):
        text = _source_text(source)
        assert _load_yaml(text) == yaml.safe_load(text)

    @pytest.mark.parametrize("text", [
        "a: [\n\ufeffb]",
        "a: b\n\ufeffc: d",
        "\ufeff\ufeffa: b",
        "x: {a:[b, c]}",
    ], ids=["bom_in_flow", "bom_at_line_start", "two_leading_boms",
            "flow_colon_without_space"])
    def test_where_libyaml_differs_the_pure_parser_decides(self, text):
        # libyaml skips a byte-order mark that starts a line, and rejects a
        # flow mapping's ':' that no space follows.
        expected = yaml.safe_load(text)
        assert _load_yaml(text) == expected
        if hasattr(yaml, "CSafeLoader"):
            try:
                assert yaml.load(text, Loader=yaml.CSafeLoader) != expected
            except yaml.YAMLError:
                pass

    @pytest.mark.parametrize("text", [
        "registry: [\n  oops",
        "x: y: z",
        "a: b\n\tc: d",
        "a: b\n  c: d",
        "{a: 1",
        "[a, b]]",
        "- a\nb: c",
        '"unterminated',
        "a: &x 1\nb: *y",
        "a: !!python/object:os.system x",
    ], ids=["unclosed_flow", "nested_mapping_value", "tab_indent",
            "indented_key", "unclosed_mapping", "extra_bracket",
            "sequence_then_mapping", "unterminated_quote", "unknown_alias",
            "unsafe_tag"])
    def test_errors_are_the_pure_parsers(self, text):
        with pytest.raises(ParseError) as err:
            _load_yaml(text)
        message, line, column = _pure_error(text)
        assert str(err.value) == f"{message} (line {line}, column {column})"
        assert (err.value.line, err.value.column) == (line, column)
        if hasattr(yaml, "CSafeLoader"):
            with pytest.raises(yaml.YAMLError):
                yaml.load(text, Loader=yaml.CSafeLoader)

    @pytest.mark.parametrize("text", [
        "a: \x00",
        "a: b\r\nc: \x01",
        "\ufeffa: \x02",
        "a:\u2028 \x1b",
        "a: \ud800",
    ], ids=["nul", "crlf", "leading_bom", "line_separator", "surrogate"])
    def test_forbidden_character_named_on_one_line(self, text):
        with pytest.raises(ParseError) as err:
            _load_yaml(text)
        # The same place as the pure parser's mark for a stray '`' there.
        _, line, column = _pure_error(text[:-1] + "`")
        assert str(err.value) == (
            f"invalid YAML: unacceptable character #x{ord(text[-1]):04x}: "
            f"special characters are not allowed (line {line}, "
            f"column {column})")

    @needs_libyaml
    @pytest.mark.parametrize("text,loaded", [
        ("a:\tb", {"a": "b"}),
        ("features: [temperature?room1]",
         {"features": ["temperature?room1"]}),
    ], ids=["tab_after_colon", "question_mark_in_flow_scalar"])
    def test_libyaml_reads_what_the_pure_parser_rejects(self, text, loaded):
        with pytest.raises(yaml.YAMLError):
            yaml.safe_load(text)
        assert _load_yaml(text) == loaded

    @needs_libyaml
    def test_documents_libyaml_reads_are_checked_as_usual(self):
        tabbed = MINIMAL.replace("threshold: 65", "threshold:\t65")
        assert load_document(tabbed) == load_document(MINIMAL)
        needle = "features: [temperature@room1]\n"
        assert MINIMAL.count(needle) == 1
        with pytest.raises(ReferentialIntegrityError,
                           match="temperature@room1"):
            load_document(MINIMAL.replace(
                needle, "features: [temperature?room1]\n"))

    @pytest.mark.parametrize("source", FIXTURES + GENERATED)
    def test_dumpers_write_equal_bytes(self, source, monkeypatch):
        doc = load_document(_source_text(source))
        text = serialize_document(doc.ruleset, doc.config)
        monkeypatch.setattr(parsing, "_DUMPER", yaml.SafeDumper)
        assert serialize_document(doc.ruleset, doc.config) == text

    def test_pure_classes_when_libyaml_is_absent(self):
        src = str(Path(parsing.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", WITHOUT_LIBYAML, *FIXTURES],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        written = json.loads(proc.stdout)
        for name in FIXTURES:
            doc = load_document(fixture_text(name))
            assert written[name] == serialize_document(doc.ruleset,
                                                       doc.config)


def _same(a, b) -> bool:
    """Equal in values, types and key order, a NaN included."""
    return repr(a) == repr(b)


def _walked(text: str):
    """A 1-tuple of what the event walk builds (``None`` for an empty
    document), or ``None`` where the walk declines."""
    try:
        return (parsing._walk_events(text),)
    except Exception:
        return None


# Each scalar as a mapping value and as a list item.
YAML11_SCALARS = ["on", "yes", "0o12", "012", "1_000", "1e3", "1.0e3",
                  ".inf", "-.nan", "~", "", "2001-12-14", "1:20", "0x1f",
                  "'on'", '"1"']


class TestEventWalk:
    """``_load_yaml`` first builds a document from the loader's event
    stream. Where the walk answers, it gives what ``yaml.load`` gives; where
    it declines, the pure parser decides."""

    @needs_libyaml
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_walk_agrees_with_both_parsers(self, data):
        source = data.draw(st.sampled_from(FIXTURES + GENERATED))
        text = mutated(data, _source_text(source), MUTATION_ALPHABET)
        walked = _walked(text)
        if walked is not None:
            assert _same(walked[0], yaml.load(text, Loader=yaml.CSafeLoader))
        try:
            pure = yaml.safe_load(text)
            yaml.load(text, Loader=yaml.CSafeLoader)
        except Exception:
            return  # TestYamlLoaders pins what one parser alone accepts
        assert _same(_load_yaml(text), pure)

    @pytest.mark.parametrize("source", FIXTURES + GENERATED)
    def test_walk_answers_every_fixture(self, source):
        text = _source_text(source)
        walked = _walked(text)
        assert walked is not None
        assert _same(walked[0], yaml.load(text, Loader=parsing._LOADER))

    @pytest.mark.parametrize("loader", ["libyaml", "pure"])
    @pytest.mark.parametrize("scalar", YAML11_SCALARS)
    def test_yaml11_scalars(self, scalar, loader, monkeypatch):
        if loader == "pure":
            monkeypatch.setattr(parsing, "_LOADER", yaml.SafeLoader)
        text = f"a: {scalar}\nb:\n  - {scalar}\n"
        walked = _walked(text)
        assert walked is not None
        assert _same(walked[0], yaml.load(text, Loader=parsing._LOADER))
        assert _same(_load_yaml(text), yaml.safe_load(text))

    @pytest.mark.parametrize("text", ["a: 1\nb: 2\na: 3\n",
                                      "{a: 1, b: 2, a: 3}"],
                             ids=["block", "flow"])
    def test_repeated_key_keeps_first_place_and_last_value(self, text):
        walked = _walked(text)
        assert walked is not None
        assert list(walked[0].items()) == [("a", 3), ("b", 2)]
        assert _same(_load_yaml(text), yaml.safe_load(text))

    @pytest.mark.parametrize("text", [
        "a: &x 1\nb: 2\n",
        "a: &x 1\nb: *x\n",
        "a: !!str 1\n",
        "<<: {x: 1}\ny: 2\n",
        "=: 1\n",
        "? [a]\n: 1\n",
        "a: 1\n---\nb: 2\n",
        "a: " + "[" * (parsing._MAX_DEPTH + 1)
        + "]" * (parsing._MAX_DEPTH + 1),
        "a: &x b\nc:\td\n",
    ], ids=["anchor", "alias", "explicit_tag", "merge_key", "value_key",
            "unhashable_key", "two_documents", "too_deep",
            "tab_after_colon_anchored"])
    def test_declines_what_yaml_load_decides(self, text):
        # Where the walk declines, ``yaml.safe_load`` decides. libyaml reads
        # a tab after a colon, but the pure parser rejects it.
        assert _walked(text) is None
        try:
            expected = yaml.safe_load(text)
        except yaml.MarkedYAMLError:
            with pytest.raises(ParseError) as err:
                _load_yaml(text)
            message, line, column = _pure_error(text)
            assert str(err.value) == (f"{message} (line {line}, "
                                      f"column {column})")
        else:
            assert _same(_load_yaml(text), expected)

    def test_walks_as_deep_as_its_limit(self):
        depth = parsing._MAX_DEPTH
        text = "[" * depth + "]" * depth
        walked = _walked(text)
        assert walked is not None
        assert _same(walked[0], yaml.safe_load(text))

    def test_repeated_loads_keep_no_memory(self):
        # Every load has its own loader; one shared across loads would keep
        # each plain scalar it constructed.
        text = fixture_text("house")
        _load_yaml(text)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(50):
                _load_yaml(text)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert grown < 256 * 1024
