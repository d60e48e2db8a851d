"""Model-level predicates: feature dependency, overlap, action relations,
trigger matching."""

import ast
import copy
import dataclasses
import pickle
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Literal, Union, get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_home, ev
from tapcheck import model, simulator
from tapcheck.errors import (
    DuplicateIdError,
    InvalidConfigError,
    InvalidEventError,
    ReferentialIntegrityError,
    SimulationError,
    UnknownActionError,
    UnknownFeatureError,
)
from tapcheck.model import (
    ActionRelationTable,
    Cmp,
    DetectorConfig,
    EventSignature,
    FeatureDependencyGraph,
    Relation,
    Sensor,
    TriggerCondition,
    overlapping_events,
)


def graph_of(nodes, edges):
    return FeatureDependencyGraph(nodes=frozenset(nodes),
                                  edges=frozenset(edges))


class TestDependentFeatures:
    def test_direct_edge(self):
        g = graph_of(["temperature", "humidity"],
                     [("temperature", "humidity")])
        assert "humidity" in g.related_to("temperature")

    def test_transitive_chain(self):
        g = graph_of("abc", [("a", "b"), ("b", "c")])
        assert "c" in g.related_to("a")

    def test_empty_graph(self):
        g = graph_of(["luminance", "humidity"], [])
        assert "humidity" not in g.related_to("luminance")

    def test_symmetric_closure(self):
        g = graph_of("ab", [("a", "b")])
        assert "a" in g.related_to("b")

    def test_reflexive(self):
        # Related means equal or dependent, so each feature relates to
        # itself though the graph holds no self-loop.
        g = graph_of("ab", [("a", "b")])
        assert g.related_to("a") == {"a", "b"}

    def test_unknown_feature(self):
        g = graph_of("ab", [("a", "b")])
        with pytest.raises(UnknownFeatureError):
            g.related_to("zzz")

    @pytest.mark.parametrize("fs1,fs2", [
        ({"zzz"}, {"a"}), ({"a"}, {"zzz"}), ({"a"}, {"b", "zzz"})])
    def test_features_related_rejects_either_side(self, fs1, fs2):
        cfg = DetectorConfig(dependency_graph=graph_of("ab", [("a", "b")]),
                             action_relations=ActionRelationTable({}))
        with pytest.raises(UnknownFeatureError):
            cfg.features_related(fs1, fs2)

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidConfigError,
                           match="^self-loop on feature 'a'$"):
            graph_of("ab", [("a", "a")])

    @pytest.mark.parametrize("edges,missing", [
        ([("a", "ghost")], "ghost"),
        ([("ghost", "a")], "ghost"),
        ([("b", "zz"), ("a", "yy"), ("c", "c")], "yy"),
    ], ids=["to", "from", "first_in_sorted_order"])
    def test_undeclared_endpoint_rejected(self, edges, missing):
        # Edges are checked in sorted order, so which bad edge is reported
        # does not hang on the hash seed.
        with pytest.raises(ReferentialIntegrityError,
                           match="^dependency edge references undeclared "
                                 f"feature '{missing}'$"):
            graph_of("abc", edges)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_matrix_closure_oracle(self, seed):
        # Brute-force oracle: boolean-matrix transitive closure.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 21))
        nodes = [f"n{i}" for i in range(n)]
        adj = rng.random((n, n)) < 0.15
        np.fill_diagonal(adj, False)
        edges = {(nodes[i], nodes[j]) for i in range(n) for j in range(n)
                 if adj[i, j]}
        g = graph_of(nodes, edges)
        closure = adj.copy()
        for _ in range(n):
            closure = closure | (closure @ closure)
        sym = closure | closure.T
        cfg = DetectorConfig(dependency_graph=g,
                             action_relations=ActionRelationTable({}))
        for _ in range(30):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            expected = bool(sym[i, j]) or i == j
            assert (nodes[j] in g.related_to(nodes[i])) == expected
            assert cfg.features_related({nodes[i]}, {nodes[j]}) == expected
        for _ in range(30):
            picked = frozenset(nodes[int(k)] for k in rng.choice(
                n, size=int(rng.integers(0, min(n, 3) + 1)), replace=False))
            want = {nodes[j] for j in range(n)
                    if any(sym[nodes.index(f), j] or nodes[j] == f
                           for f in picked)}
            assert g.related_to_any(picked) == want


def sig(kind="temperature", pred=">", loc="room1"):
    return EventSignature(kind, Cmp(pred), loc)


class TestEventSignature:
    @pytest.mark.parametrize("fields,message", [
        (("leak", Cmp.EQ, 5),
         "event signature location must be a non-empty string, not 5"),
        (("leak", "==", "room1"),
         "event signature predicate must be a Cmp, not '=='"),
        ((["leak"], Cmp.EQ, "room1"),
         "event signature sensor_kind must be a non-empty string, not "
         "['leak']")],
        ids=["int-location", "str-predicate", "list-kind"])
    def test_bad_field_rejected(self, fields, message):
        # Unchecked, a str predicate ended in a bare AttributeError when a
        # similarity class was serialized, and a list field in a bare
        # TypeError when a class's frozenset was built.
        with pytest.raises(InvalidEventError) as err:
            EventSignature(*fields)
        assert str(err.value) == message

    def test_replace_is_checked_too(self):
        with pytest.raises(InvalidEventError, match="predicate"):
            replace(sig(), predicate="==")

    @pytest.mark.parametrize("remake", [
        copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)),
        lambda s: replace(s, location="room2")],
        ids=["copy", "deepcopy", "pickle", "replace"])
    def test_hash_is_a_fresh_signatures(self, remake):
        made = remake(sig())
        fresh = EventSignature(made.sensor_kind, made.predicate,
                               made.location)
        assert made == fresh and hash(made) == hash(fresh) == hash(
            (made.sensor_kind, made.predicate, made.location))
        assert "_hash" not in {f.name for f in fields(made)}
        assert b"_hash" not in pickle.dumps(made)


# What the record idiom alone defines, so it cannot fork again.
_RECORD_METHODS = {"__setattr__", "__delattr__", "__reduce__"}


def test_record_idiom_has_one_home():
    # Scanned from the source: a hand-written refusal of assignment or
    # deletion, or a hand-written pickle, anywhere but ``Record``.
    found = []
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {id(node): cls.name for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for node in cls.body}
        found += [(path.name, owners.get(id(node)), node.name)
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name in _RECORD_METHODS]
    assert sorted(found) == [("model.py", "Record", name)
                             for name in sorted(_RECORD_METHODS)]


def config(**kwargs):
    home, cfg = build_home(
        sensors=[("t1", "temperature", "F", "room1")],
        actuators=[("x", "light", "room1", ("on", "off"))],
        controllers=["c"], features=["f@room1"], rules=[], **kwargs)
    return home, cfg


class TestOverlappingEvents:
    def test_same_signature_within_window(self):
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1"),
                     ("t2", "temperature", "F", "room1")],
            actuators=[("x", "light", "room1", ("on", "off"))],
            controllers=["c"], features=["f@room1"], rules=[])
        e1 = ev(rs, "e1", "t1", 3, 80, ">")
        e2 = ev(rs, "e2", "t2", 6, 82, ">")
        assert overlapping_events(e1, e2, cfg)
        assert overlapping_events(e2, e1, cfg)

    def test_event_never_overlaps_itself(self):
        rs, cfg = config()
        e1 = ev(rs, "e1", "t1", 3, 80, ">")
        assert not overlapping_events(e1, e1, cfg)

    def test_different_kinds_are_disjoint(self):
        rs, cfg = build_home(
            sensors=[("smoke1", "smoke", "bool", "room1"),
                     ("co1", "co", "ppm", "room1")],
            actuators=[("x", "light", "room1", ("on", "off"))],
            controllers=["c"], features=["f@room1"], rules=[])
        e1 = ev(rs, "e1", "smoke1", 10, 1)
        e2 = ev(rs, "e2", "co1", 10, 60)
        assert not overlapping_events(e1, e2, cfg)

    def test_outside_window_is_disjoint(self):
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1"),
                     ("t2", "temperature", "F", "room1")],
            actuators=[("x", "light", "room1", ("on", "off"))],
            controllers=["c"], features=["f@room1"], rules=[],
            overlap_window=5)
        e1 = ev(rs, "e1", "t1", 0, 80, ">")
        e2 = ev(rs, "e2", "t2", 6, 80, ">")
        assert not overlapping_events(e1, e2, cfg)

    def test_similarity_class_override(self):
        rs, cfg = build_home(
            sensors=[("t1", "temperature", "F", "room1"),
                     ("t2", "temperature", "F", "room2")],
            actuators=[("x", "light", "room1", ("on", "off"))],
            controllers=["c"], features=["f@room1"], rules=[],
            classes=[[("temperature", "==", "room1"),
                      ("temperature", "==", "room2")]])
        e1 = ev(rs, "e1", "t1", 0, 70)
        e2 = ev(rs, "e2", "t2", 2, 71)
        assert overlapping_events(e1, e2, cfg)
        # The class covers only the == predicate forms.
        e3 = ev(rs, "e3", "t2", 2, 71, ">")
        assert not overlapping_events(e1, e3, cfg)

    def test_similar_is_equal_or_one_class(self):
        # Two classes share b, so a ~ b and b ~ c but not a ~ c: similarity
        # is not transitive.
        a, b, c = sig(loc="room1"), sig(loc="room2"), sig("humidity",
                                                          loc="room2")
        classes = [[a, b], [b, c], [sig("humidity", "<", "room1"),
                                    sig("humidity", "==", "room1")]]
        cfg = replace(config()[1],
                      similarity_classes=tuple(map(frozenset, classes)))
        sigs = [sig(kind, pred, loc) for kind in ("temperature", "humidity")
                for pred in (">", "<", "==") for loc in ("room1", "room2")]
        for x in sigs:
            for y in sigs:
                assert cfg.similar(x, y) == (x == y or any(
                    x in group and y in group for group in classes)), (x, y)
        assert cfg.similar(a, b) and cfg.similar(b, c)
        assert not cfg.similar(a, c)

    @given(st.integers(0, 40), st.integers(0, 40),
           st.sampled_from([">", "<", "=="]), st.sampled_from([">", "<", "=="]),
           st.sampled_from(["room1", "room2"]))
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_irreflexivity(self, t1, t2, p1, p2, loc):
        rs, cfg = build_home(
            sensors=[("s1", "temperature", "F", "room1"),
                     ("s2", "temperature", "F", "room2")],
            actuators=[("x", "light", "room1", ("on", "off"))],
            controllers=["c"], features=["f@room1"], rules=[])
        e1 = ev(rs, "e1", "s1", t1, 70, p1)
        e2 = ev(rs, "e2", "s2" if loc == "room2" else "s1", t2, 70, p2)
        assert (overlapping_events(e1, e2, cfg)
                == overlapping_events(e2, e1, cfg))
        assert not overlapping_events(e1, e1, cfg)


class TestActionRelations:
    def table(self):
        return ActionRelationTable(
            vocabulary={"thermostat": frozenset({"increase", "decrease"}),
                        "alarm": frozenset({"beep", "flash"}),
                        "door": frozenset({"open", "close"})},
            entries={
                ActionRelationTable.key("thermostat", "increase",
                                        "thermostat", "decrease"):
                    Relation.OPPOSITE,
                ActionRelationTable.key("alarm", "beep", "alarm", "flash"):
                    Relation.DEPENDENT,
            })

    def test_opposite_pair(self):
        t = self.table()
        assert t.relation("thermostat", "increase", "thermostat",
                          "decrease") is Relation.OPPOSITE

    def test_dependent_pair(self):
        t = self.table()
        assert t.relation("alarm", "beep", "alarm",
                          "flash") is Relation.DEPENDENT

    def test_identity_is_same(self):
        t = self.table()
        assert t.relation("door", "open", "door", "open") is Relation.SAME

    def test_symmetric(self):
        t = self.table()
        assert (t.relation("thermostat", "decrease", "thermostat", "increase")
                is Relation.OPPOSITE)

    def test_undeclared_pair_defaults_to_different(self):
        t = self.table()
        assert t.relation("door", "open", "door",
                          "close") is Relation.DIFFERENT

    def test_unknown_action(self):
        t = self.table()
        with pytest.raises(UnknownActionError):
            t.relation("door", "open", "door", "levitate")

    def test_cross_kind_lookup(self):
        t = ActionRelationTable(
            vocabulary={"blind": frozenset({"open", "close"}),
                        "light": frozenset({"on", "off"})},
            entries={ActionRelationTable.key("blind", "open", "light", "off"):
                     Relation.OPPOSITE})
        assert t.relation("blind", "open", "light",
                          "off") is Relation.OPPOSITE
        assert t.relation("light", "off", "blind",
                          "open") is Relation.OPPOSITE
        assert t.relation("blind", "open", "light",
                          "on") is Relation.DIFFERENT

    @pytest.mark.parametrize("args,name,kind", [
        (("door", "levitate", "door", "open"), "levitate", "door"),
        (("door", "open", "door", "levitate"), "levitate", "door"),
        (("door", "open", "lift", "up"), "up", "lift"),
    ])
    def test_unknown_action_names_the_unknown_one(self, args, name, kind):
        with pytest.raises(UnknownActionError) as err:
            self.table().relation(*args)
        assert str(err.value) == (f"action {name!r} is not in the "
                                  f"vocabulary of actuator kind {kind!r}")

    def test_identical_class_maps_only_to_same(self):
        # Once read silently as SAME; a document gets the same error.
        key = ActionRelationTable.key("door", "open", "door", "open")
        with pytest.raises(InvalidConfigError) as err:
            ActionRelationTable(
                vocabulary={"door": frozenset({"open", "close"})},
                entries={key: Relation.OPPOSITE})
        assert str(err.value) == (
            "action relations entries must map (('door', 'open'), ('door', "
            "'open')) to 'same', not 'opposite'")
        t = ActionRelationTable(
            vocabulary={"door": frozenset({"open", "close"})},
            entries={key: Relation.SAME})
        assert t.relation("door", "open", "door", "open") is Relation.SAME


class TestTriggerMatching:
    def test_comparators(self):
        rs, _ = config()
        trig = TriggerCondition("temperature", Cmp.LT, 65.0, "F")
        assert trig.matches(ev(rs, "e", "t1", 0, 60), 864)
        assert not trig.matches(ev(rs, "e", "t1", 0, 65), 864)

    def test_location_filter(self):
        rs, _ = build_home(
            sensors=[("t1", "temperature", "F", "room1"),
                     ("t2", "temperature", "F", "room2")],
            actuators=[("x", "light", "room1", ("on", "off"))],
            controllers=["c"], features=["f@room1"], rules=[])
        trig = TriggerCondition("temperature", Cmp.GT, 50.0, "F",
                                location_filter="room2")
        assert not trig.matches(ev(rs, "e", "t1", 0, 60), 864)
        assert trig.matches(ev(rs, "e", "t2", 0, 60), 864)

    def test_schedule_window(self):
        rs, _ = config()
        trig = TriggerCondition("temperature", Cmp.GT, 50.0, "F",
                                schedule=(648, 864))
        assert not trig.matches(ev(rs, "e", "t1", 100, 60), 864)
        assert trig.matches(ev(rs, "e", "t1", 700, 60), 864)
        # Active windows repeat each day.
        assert trig.matches(ev(rs, "e", "t1", 864 + 700, 60), 864)

    def test_event_predicate_is_not_consulted(self):
        # Matching compares the value against the threshold; the event's
        # own predicate class only matters for the overlap relation.
        rs, _ = config()
        trig = TriggerCondition("temperature", Cmp.LT, 65.0, "F")
        assert trig.matches(ev(rs, "e", "t1", 0, 60, ">"), 864)


class TestRuleSet:
    def test_duplicate_rule_id_rejected(self, alarm_home):
        # Unchecked, static_check reported conflicts between two rules of
        # one id, which detect_at_tick and oracle_detect never pair.
        rs, _ = alarm_home
        twin = replace(rs.rules[1], id="r_smoke")
        with pytest.raises(DuplicateIdError,
                           match="^duplicate rule id 'r_smoke'$"):
            replace(rs, rules=rs.rules + (twin,))

    @pytest.mark.parametrize("threshold,problem", [
        pytest.param(float("nan"), "finite", id="nan"),
        pytest.param(float("inf"), "finite", id="inf"),
        pytest.param(-float("inf"), "finite", id="-inf"),
        pytest.param(10**400, "finite", id="huge_int"),
        pytest.param("50", "a number, not '50'", id="50"),
        pytest.param(True, "a number, not True", id="True"),
        pytest.param(None, "a number, not None", id="None")])
    def test_threshold_that_is_not_a_finite_number_rejected(
            self, alarm_home, threshold, problem):
        # Unchecked, a NaN threshold sorted anywhere in the trigger index,
        # so a '>' rule fired on values Cmp.GT.holds rejects, and "50"
        # ended in a bare TypeError.
        rs, _ = alarm_home
        rule = rs.rules[2]
        bad = replace(rule, trigger=replace(rule.trigger,
                                            threshold=threshold))
        with pytest.raises(InvalidConfigError) as err:
            replace(rs, rules=rs.rules[:2] + (bad,))
        assert str(err.value) == (
            f"rule 'r_co' trigger.threshold must be {problem}")

    def test_integer_threshold_accepted(self, alarm_home):
        rs, _ = alarm_home
        rule = rs.rules[2]
        whole = replace(rule, trigger=replace(rule.trigger, threshold=50))
        assert replace(rs, rules=(whole,)).rules == (whole,)

    @pytest.mark.parametrize("schedule", [
        (5, 2), (3, 3), (-1, 4), (0, 865), ("a", "b"), (0.0, 4), (False, 4),
        (1, 2, 3), [1, 4], "14"])
    def test_schedule_outside_the_day_or_not_two_integers_rejected(
            self, alarm_home, schedule):
        # Unchecked, (5, 2) never fired yet static_check tagged it, and
        # ("a", "b") ended in a bare TypeError from active_at.
        rs, _ = alarm_home
        rule = rs.rules[2]
        bad = replace(rule, trigger=replace(rule.trigger, schedule=schedule))
        with pytest.raises(InvalidConfigError,
                           match="^rule 'r_co' schedule must be a pair of "
                                 "integers with 0 <= start < end <= 864, "
                                 "not "):
            replace(rs, rules=rs.rules[:2] + (bad,))

    @pytest.mark.parametrize("schedule", [(0, 864), (863, 864), (0, 1)])
    def test_schedule_within_the_day_accepted(self, alarm_home, schedule):
        rs, _ = alarm_home
        rule = rs.rules[2]
        ok = replace(rule, trigger=replace(rule.trigger, schedule=schedule))
        assert replace(rs, rules=(ok,)).rules == (ok,)

    def test_schedule_checked_against_the_ruleset_day(self, alarm_home):
        rs, _ = alarm_home
        rule = rs.rules[2]
        late = replace(rule, trigger=replace(rule.trigger,
                                             schedule=(10, 20)))
        with pytest.raises(InvalidConfigError, match="<= 12, not"):
            replace(rs, rules=(late,), day_length=12)
        assert replace(rs, rules=(late,), day_length=20).rules == (late,)

    @pytest.mark.parametrize("day", [1, 0, -5, True, 48.0, "48", None])
    def test_day_length_that_is_not_an_integer_of_two_or_more_rejected(
            self, alarm_home, day):
        rs, _ = alarm_home
        with pytest.raises(InvalidConfigError,
                           match="^day_length must be an integer >= 2, "
                                 "not "):
            replace(rs, day_length=day)


class TestDetectorConfig:
    def test_invalid_windows_rejected(self):
        g = graph_of([], [])
        t = ActionRelationTable(vocabulary={})
        with pytest.raises(InvalidConfigError):
            DetectorConfig(dependency_graph=g, action_relations=t,
                           overlap_window=0)
        with pytest.raises(InvalidConfigError):
            DetectorConfig(dependency_graph=g, action_relations=t,
                           duplicate_window=0)
        with pytest.raises(InvalidConfigError):
            DetectorConfig(dependency_graph=g, action_relations=t,
                           same_tick_epsilon=-1)

    @pytest.mark.parametrize("name", ["overlap_window", "duplicate_window",
                                      "same_tick_epsilon"])
    @pytest.mark.parametrize("value", ["5", None, 2.5, True,
                                       float("nan")])
    def test_window_that_is_not_an_integer_rejected(self, name, value):
        g = graph_of([], [])
        t = ActionRelationTable(vocabulary={})
        with pytest.raises(InvalidConfigError,
                           match=f"{name} must be an integer"):
            DetectorConfig(dependency_graph=g, action_relations=t,
                           **{name: value})

    @pytest.mark.parametrize("classes", [
        ("ab",), [frozenset({EventSignature("t", Cmp.EQ, "r")})],
        (frozenset({"t:==:r"}),), ({EventSignature("t", Cmp.EQ, "r")},)],
        ids=["strings", "list", "frozenset_of_strings", "set"])
    def test_bad_similarity_classes_rejected(self, classes):
        # Unchecked, the first similarity lookup failed with a bare
        # TypeError.
        g = graph_of([], [])
        t = ActionRelationTable(vocabulary={})
        with pytest.raises(InvalidConfigError, match="similarity_classes"):
            DetectorConfig(dependency_graph=g, action_relations=t,
                           similarity_classes=classes)

    def test_horizon_covers_all_windows(self):
        g = graph_of([], [])
        t = ActionRelationTable(vocabulary={})
        cfg = DetectorConfig(dependency_graph=g, action_relations=t,
                             overlap_window=5, duplicate_window=30,
                             same_tick_epsilon=40)
        assert cfg.horizon == 40


class TestSensor:
    @pytest.mark.parametrize("tolerance", [
        -1.0, -1, float("nan"), float("inf"),
        pytest.param(10**400, id="huge_int"), "0.5", True, None])
    def test_bad_tolerance_rejected(self, tolerance):
        # A negative or NaN tolerance holds no value gap, so C7 would
        # silently never fire for the sensor.
        with pytest.raises(InvalidConfigError,
                           match="sensor 't1' tolerance must be"):
            Sensor("t1", "temperature", "F", "room1", tolerance=tolerance)


# A valid instance's arguments, the words its errors start with, and its
# error class, for each record whose fields ``_check_fields`` reads.
_SHAPED = {
    model.Sensor: ({"id": "t1", "kind": "temperature", "unit": "F",
                    "location": "room1"}, "sensor 't1' ", InvalidConfigError),
    model.FeatureDependencyGraph: (
        {"nodes": frozenset({"a", "b"}), "edges": frozenset()},
        "dependency graph ", InvalidConfigError),
    model.ActionRelationTable: (
        {"vocabulary": {"door": frozenset({"open", "close"})}},
        "action relations ", InvalidConfigError),
    simulator.RoomState: ({"name": "room1"}, "room 'room1' ",
                          SimulationError),
    simulator.HouseModel: ({"rooms": (simulator.RoomState(name="r"),)},
                           "house ", SimulationError),
    simulator.SourceSpec: ({"name": "x", "sensor": "s"}, "source 'x' ",
                           SimulationError),
    simulator.Scenario: ({"id": "p", "ruleset": "s5_alarm", "sources": (),
                          "horizon": 1}, "scenario 'p' ", SimulationError),
}
# No kind of the package's annotations holds it, and it hashes, so it can
# stand in a frozenset or as a dict key.
_BAD = 1j


def _field_kind(f):
    """A field's one kind, without its ``| None``; None for two kinds."""
    kinds = set(get_args(f.type) if get_origin(f.type) in (Union, UnionType)
                else (f.type,))
    kinds.discard(type(None))
    return kinds.pop() if len(kinds) == 1 else None


def _fixed(kind) -> bool:
    return get_origin(kind) is tuple and get_args(kind)[-1] is not ...


def _sample(kind):
    """A value that holds ``kind``."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Literal:
        return args[0]
    if origin is None:
        return next(iter(kind)) if issubclass(kind, Enum) else {
            float: 1.5, int: 3, str: "a", bool: True}[kind]
    if _fixed(kind):
        return tuple(map(_sample, args))
    entry = _sample(args[0])
    if origin is dict:
        return {entry: _sample(args[1])}
    return origin((entry,))


def _shape_cases(kind):
    """(label, value, path, shown) per way to break a fixed-length tuple
    inside ``kind``: its length, or one entry made ``_BAD``. ``path`` is
    where the error finds the fault, and ``shown`` the value it prints."""
    origin, args = get_origin(kind), get_args(kind)
    if _fixed(kind):
        good = _sample(kind)
        yield "length", good + good[:1], "", good + good[:1]
        for i, arg in enumerate(args):
            yield f"{i}", good[:i] + (_BAD,) + good[i + 1:], f"[{i}]", _BAD
            for label, value, where, shown in _shape_cases(arg):
                yield (f"{i}.{label}", good[:i] + (value,) + good[i + 1:],
                       f"[{i}]{where}", shown)
    elif origin is tuple:
        for label, value, where, shown in _shape_cases(args[0]):
            yield label, (value,), f"[0]{where}", shown
    elif origin is frozenset:
        for label, value, where, shown in _shape_cases(args[0]):
            yield label, frozenset({value}), f" entry {value!r}{where}", shown
    elif origin is dict:
        key, item = _sample(args[0]), _sample(args[1])
        for label, value, where, shown in _shape_cases(args[0]):
            yield (f"key.{label}", {value: item}, f" key {value!r}{where}",
                   shown)
        for label, value, where, shown in _shape_cases(args[1]):
            yield f"value.{label}", {key: value}, f"[{key!r}]{where}", shown


def _holds_shape(kind) -> bool:
    """Whether ``kind`` is or holds a fixed-length tuple."""
    return _fixed(kind) or any(map(_holds_shape, get_args(kind)))


def _annotated(test):
    """(record, field, kind) of each field of a ``_SHAPED`` record whose
    kind passes ``test``."""
    return [(cls, f.name, kind) for cls in _SHAPED for f in fields(cls)
            if (kind := _field_kind(f)) is not None and test(kind)]


def _literal(kind) -> bool:
    return get_origin(kind) is Literal


class TestAnnotatedShapes:
    """A fixed-length tuple and a ``Literal`` are checked from the
    annotation alone, at any depth, and each failure is one line that
    names the record, the field and the offending entry."""

    def test_every_shaped_record_is_listed(self):
        # ``RuleSet`` judges a trigger's schedule and names the rule; a
        # trace report is output, not input.
        unchecked = (model.TriggerCondition, simulator.TraceReport)
        for module in (model, simulator):
            for cls in vars(module).values():
                if (dataclasses.is_dataclass(cls) and cls not in _SHAPED
                        and cls not in unchecked):
                    kinds = [_field_kind(f) for f in fields(cls)]
                    assert not any(k is not None and (
                        _holds_shape(k) or _literal(k)) for k in kinds), cls

    def test_cases_cover_every_shape_and_choice(self):
        assert {(c.__name__, n) for c, n, _ in _annotated(_holds_shape)} == {
            ("Sensor", "range"), ("FeatureDependencyGraph", "edges"),
            ("ActionRelationTable", "entries"), ("HouseModel", "adjacency"),
            ("SourceSpec", "at")}
        assert {(c.__name__, n) for c, n, _ in _annotated(_literal)} == {
            ("RoomState", "thermostat"), ("SourceSpec", "mode"),
            ("SourceSpec", "feature"), ("Scenario", "detector")}
        labels = {label for _, _, kind in _annotated(_holds_shape)
                  for label, *_ in _shape_cases(kind)}
        # Relation keys: the key, each action class and each name in it.
        assert {"key.length", "key.0", "key.0.length", "key.1.1"} <= labels

    @pytest.mark.parametrize("cls,name,value,where,shown", [
        pytest.param(cls, name, value, where, shown,
                     id=f"{cls.__name__}.{name}-{label}")
        for cls, name, kind in _annotated(_holds_shape)
        for label, value, where, shown in _shape_cases(kind)])
    def test_broken_fixed_tuple_rejected(self, cls, name, value, where,
                                         shown):
        kwargs, words, error = _SHAPED[cls]
        with pytest.raises(error) as err:
            cls(**{**kwargs, name: value})
        text = str(err.value)
        assert type(err.value) is error and "\n" not in text
        assert text.startswith(f"{words}{name}{where} must be a")
        assert text.endswith(f", not {shown!r}")

    @pytest.mark.parametrize("cls,name,choices", [
        pytest.param(cls, name, get_args(kind), id=f"{cls.__name__}.{name}")
        for cls, name, kind in _annotated(_literal)])
    def test_unknown_choice_rejected(self, cls, name, choices):
        kwargs, words, error = _SHAPED[cls]
        with pytest.raises(error) as err:
            cls(**{**kwargs, name: "nope"})
        assert str(err.value) == (f"{words}{name} must be one of "
                                  f"{choices!r}, not 'nope'")

    def test_thermostat_modes_are_their_codes(self):
        assert simulator.THERMO_NAME == dict(enumerate((
            simulator.THERMOSTAT_OFF, simulator.THERMOSTAT_HEAT,
            simulator.THERMOSTAT_COOL)))


class TestFirstFault:
    """Where a container holds two bad entries, the error names one by a
    fixed rule: a tuple's lower index, a frozenset's first in
    ``sorted(key=str)`` order, a dict entry's key before its value, and
    within a nested fixed-length tuple its lower position."""

    @staticmethod
    def message(build) -> str:
        with pytest.raises(InvalidConfigError) as err:
            build()
        return str(err.value)

    def test_tuple_names_lower_index(self):
        assert self.message(lambda: model.Actuator(
            id="a", kind="k", location="l", actions=("on", 2, ""))) == (
            "actuator 'a' actions[1] must be a non-empty string, not 2")

    def test_frozenset_names_first_in_str_order(self):
        # 10 and 9 sort as text: "10" < "9" although 9 < 10.
        assert self.message(lambda: graph_of({"a", 9, 10, "b"}, ())) == (
            "dependency graph nodes entry 10 must be a non-empty string, "
            "not 10")

    def test_dict_names_key_before_its_value(self):
        vocabulary = {"door": frozenset({"open"}), "": frozenset({3})}
        assert self.message(lambda: ActionRelationTable(vocabulary)) == (
            "action relations vocabulary key '' must be a non-empty "
            "string, not ''")

    def test_dict_names_earlier_value_before_later_key(self):
        vocabulary = {"door": frozenset({"open", 3}), "": frozenset()}
        assert self.message(lambda: ActionRelationTable(vocabulary)) == (
            "action relations vocabulary['door'] entry 3 must be a "
            "non-empty string, not 3")

    def test_nested_fixed_tuple_names_lower_position(self):
        key = (("door", 1), ("door", 2))
        assert self.message(lambda: ActionRelationTable(
            {"door": frozenset({"open"})},
            {key: Relation.SAME})) == (
            f"action relations entries key {key!r}[0][1] must be a "
            "non-empty string, not 1")

    def test_wrong_length_named_before_its_entries(self):
        assert self.message(lambda: Sensor(
            "t1", "temperature", "F", "room1", range=("a", "b", "c"))) == (
            "sensor 't1' range must be a pair of numbers, "
            "not ('a', 'b', 'c')")
