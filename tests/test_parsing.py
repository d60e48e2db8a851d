"""Document loading, validation errors, and canonical round-trips."""

import numpy as np
import pytest

from gen import random_ruleset
from tapcheck.errors import (
    DuplicateIdError,
    ParseError,
    ReferentialIntegrityError,
)
from tapcheck.parsing import load_document, serialize_document
from tapcheck.scenarios import fixture_text, load_scenario_bundle

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
        with pytest.raises(DuplicateIdError, match="r1"):
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
        assert err.value.line is not None

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError, match="unknown top-level"):
            load_document(MINIMAL + "\nmystery: 1\n")

    def test_threshold_unit_mismatch(self):
        doc = MINIMAL.replace("threshold: 65", "threshold: 65, unit: C")
        with pytest.raises(ParseError, match="unit"):
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
        with pytest.raises(ParseError, match="schedule"):
            load_document(doc)

    def test_schedule_bounds_must_be_integers(self):
        # A bool is an int to Python, so [false, true] once read as [0, 1).
        doc = MINIMAL.replace("threshold: 65}",
                              "threshold: 65, schedule: [false, true]}")
        with pytest.raises(ParseError, match="integer") as err:
            load_document(doc)
        assert err.value.path == "rules[0].trigger.schedule"

    def test_identity_relation_must_be_same(self):
        doc = MINIMAL + """
action_relations:
  thermostat:
    - [heat, heat, opposite]
"""
        with pytest.raises(ParseError, match="same"):
            load_document(doc)

    def test_similarity_class_checks_registry(self):
        doc = MINIMAL + """
detector:
  similarity_classes:
    - ["temperature:==:room1", "pressure:==:room1"]
"""
        with pytest.raises(ReferentialIntegrityError, match="pressure"):
            load_document(doc)

    @pytest.mark.parametrize("needle,bogus", [
        ("threshold: 65", "threshold: .nan"),
        ("threshold: 65", "threshold: -.inf"),
        ("threshold: 65", "threshold: 1" + "0" * 400),
        ("location: room1}\n  actuators",
         "location: room1, range: [0, .inf]}\n  actuators"),
        ("location: room1}\n  actuators",
         "location: room1, tolerance: .nan}\n  actuators"),
    ])
    def test_non_finite_number_rejected(self, needle, bogus):
        # A NaN threshold compares false with every reading, so its rule
        # could never fire; an infinite range or tolerance is no bound.
        doc = MINIMAL.replace(needle, bogus)
        assert doc != MINIMAL
        with pytest.raises(ParseError, match="finite"):
            load_document(doc)

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

    @pytest.mark.parametrize("name", [
        "s1_luminance", "s2_window_thermostat", "s3_corridor", "s4_humidity",
        "s5_alarm", "s7_thermostat_management", "s8_humidifier_management",
        "c7_duplicate", "house",
    ])
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
