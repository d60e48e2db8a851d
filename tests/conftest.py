"""Shared builders for compact in-code fixtures."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tapcheck.model import (
    ActionRelationTable,
    ActionSpec,
    Actuator,
    Cmp,
    DetectorConfig,
    Event,
    EventSignature,
    FeatureDependencyGraph,
    Registry,
    Relation,
    Rule,
    RuleSet,
    Sensor,
    TriggerCondition,
)

_REL = {r.value: r for r in Relation}


def build_home(*, sensors, actuators, controllers, features, rules,
               edges=(), relations=None, classes=(), overlap_window=5,
               duplicate_window=30, epsilon=0, day_length=864):
    """Build a (RuleSet, DetectorConfig) pair from terse tuple specs.

    sensors: (id, kind, unit, location[, tolerance])
    actuators: (id, kind, location, actions)
    rules: (id, controller, trigger, action) with
        trigger = (kind, cmp, threshold[, location_filter[, schedule]])
        action  = (actuator_id, action_name, features)
    relations: {kind or "k1|k2": [(n1, n2, relation), ...]}
    classes: similarity classes as [(kind, cmp, location), ...] groups
    """
    sensor_map = {}
    for spec in sensors:
        sid, kind, unit, location = spec[:4]
        tolerance = spec[4] if len(spec) > 4 else 0.0
        sensor_map[sid] = Sensor(id=sid, kind=kind, unit=unit,
                                 location=location, range=(0.0, 100.0),
                                 tolerance=tolerance)
    actuator_map = {aid: Actuator(id=aid, kind=kind, location=loc,
                                  actions=tuple(actions))
                    for aid, kind, loc, actions in actuators}
    locations = tuple(sorted({s.location for s in sensor_map.values()}
                             | {a.location for a in actuator_map.values()}))
    registry = Registry(
        locations=locations,
        sensors=sensor_map,
        actuators=actuator_map,
        controllers=tuple(controllers),
        features=frozenset(features),
    )

    rule_objs = []
    for rid, controller, trig, act in rules:
        kind, cmp_token, threshold = trig[:3]
        location_filter = trig[3] if len(trig) > 3 else None
        schedule = trig[4] if len(trig) > 4 else None
        aid, action_name, feats = act
        actuator = actuator_map[aid]
        rule_objs.append(Rule(
            id=rid,
            controller=controller,
            trigger=TriggerCondition(
                sensor_kind=kind, comparator=Cmp(cmp_token),
                threshold=float(threshold),
                unit=sensor_map[next(s for s in sensor_map
                                     if sensor_map[s].kind == kind)].unit,
                location_filter=location_filter, schedule=schedule),
            action=ActionSpec(actuator=aid, action=action_name,
                              location=actuator.location,
                              affected_features=frozenset(feats)),
        ))

    graph = FeatureDependencyGraph(nodes=frozenset(features),
                                   edges=frozenset(edges))
    # ``Registry`` holds each actuator kind to one vocabulary.
    vocabulary = {a.kind: frozenset(a.actions) for a in actuator_map.values()}
    entries = {}
    for key, triples in (relations or {}).items():
        kinds = key.split("|")
        k1, k2 = (kinds[0], kinds[0]) if len(kinds) == 1 else kinds
        for n1, n2, rel in triples:
            entries[ActionRelationTable.key(k1, n1, k2, n2)] = _REL[rel]
    table = ActionRelationTable(vocabulary=vocabulary, entries=entries)

    cfg = DetectorConfig(
        dependency_graph=graph,
        action_relations=table,
        overlap_window=overlap_window,
        duplicate_window=duplicate_window,
        same_tick_epsilon=epsilon,
        similarity_classes=tuple(
            frozenset(EventSignature(k, Cmp(c), loc) for k, c, loc in group)
            for group in classes),
    )
    return RuleSet(registry=registry, rules=tuple(rule_objs),
                   day_length=day_length), cfg


def ev(ruleset: RuleSet, eid: str, sensor_id: str, tick: int, value: float,
       pred: str = "==") -> Event:
    sensor = ruleset.registry.sensors[sensor_id]
    return Event(id=eid, sensor=sensor_id, time=tick, value=float(value),
                 unit=sensor.unit,
                 signature=EventSignature(sensor_kind=sensor.kind,
                                          predicate=Cmp(pred),
                                          location=sensor.location))


@pytest.fixture
def alarm_home():
    """Smoke and leak detectors under different controllers, one alarm."""
    return build_home(
        sensors=[("smoke1", "smoke", "bool", "room1"),
                 ("leak1", "leak", "bool", "room1"),
                 ("co1", "co", "ppm", "room1")],
        actuators=[("alarm1", "alarm", "room1",
                    ("sound", "beep", "flash", "off"))],
        controllers=["fire_ctrl", "water_ctrl", "air_ctrl"],
        features=["alert@room1"],
        rules=[
            ("r_smoke", "fire_ctrl", ("smoke", "==", 1),
             ("alarm1", "sound", ["alert@room1"])),
            ("r_leak", "water_ctrl", ("leak", "==", 1),
             ("alarm1", "sound", ["alert@room1"])),
            ("r_co", "air_ctrl", ("co", ">", 50),
             ("alarm1", "flash", ["alert@room1"])),
        ],
        relations={"alarm": [("beep", "flash", "dependent"),
                             ("sound", "flash", "different"),
                             ("sound", "beep", "different"),
                             ("sound", "off", "opposite"),
                             ("beep", "off", "different"),
                             ("flash", "off", "different")]},
    )
