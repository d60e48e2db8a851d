"""Model-level predicates: feature dependency, overlap, action relations,
trigger matching."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_home, ev
from tapcheck.errors import (
    InvalidConfigError,
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
        with pytest.raises(InvalidConfigError):
            graph_of("ab", [("a", "a")])

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

    def test_identical_class_is_same_whatever_the_entries(self):
        t = ActionRelationTable(
            vocabulary={"door": frozenset({"open", "close"})},
            entries={ActionRelationTable.key("door", "open", "door", "open"):
                     Relation.OPPOSITE})
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

    def test_horizon_covers_all_windows(self):
        g = graph_of([], [])
        t = ActionRelationTable(vocabulary={})
        cfg = DetectorConfig(dependency_graph=g, action_relations=t,
                             overlap_window=5, duplicate_window=30,
                             same_tick_epsilon=40)
        assert cfg.horizon == 40
