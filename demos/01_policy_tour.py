"""A guided tour of the seven safety policies.

Builds a small installation in code, then replays one crafted moment per
policy and prints what the detector reports and why.

Run: python3 demos/01_policy_tour.py
"""

from tapcheck import (
    ActionRelationTable,
    ActionSpec,
    Actuator,
    Cmp,
    DetectionWindow,
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
    detect_at_tick,
)

# ----------------------------------------------------------------------
# One installation: two rooms and a corridor, four controllers.
# ----------------------------------------------------------------------

sensors = {
    "smoke1": Sensor("smoke1", "smoke", "bool", "room1"),
    "leak1": Sensor("leak1", "leak", "bool", "room1"),
    "temp1": Sensor("temp1", "temperature", "F", "room1"),
    "temp2": Sensor("temp2", "temperature", "F", "room2"),
    "motion1": Sensor("motion1", "motion", "bool", "room1"),
    "motion2": Sensor("motion2", "motion", "bool", "room1"),
    "clock1": Sensor("clock1", "clock", "tick", "corridor"),
}
actuators = {
    "alarm1": Actuator("alarm1", "alarm", "corridor", ("sound", "off")),
    "thermo_c": Actuator("thermo_c", "thermostat", "corridor",
                         ("increase", "decrease", "off")),
    "window1": Actuator("window1", "window", "room1", ("open", "close")),
    "blind1": Actuator("blind1", "blind", "room1", ("open", "close")),
    "light1": Actuator("light1", "light", "room1", ("on", "off")),
}
features = frozenset({"alert@corridor", "temperature@room1",
                      "temperature@corridor", "luminance@room1"})
registry = Registry(
    locations=("room1", "room2", "corridor"),
    sensors=sensors, actuators=actuators,
    controllers=("fire_ctrl", "water_ctrl", "hvac", "mgmt"),
    features=features)

UNIT = {s.kind: s.unit for s in sensors.values()}


def rule(rid, ctrl, kind, cmp_token, threshold, loc, aid, action, feats):
    return Rule(
        id=rid, controller=ctrl,
        trigger=TriggerCondition(kind, Cmp(cmp_token), float(threshold),
                                 UNIT[kind], location_filter=loc),
        action=ActionSpec(aid, action, actuators[aid].location,
                          frozenset(feats)))


rules = (
    # Two detector silos share a siren.
    rule("r_alarm_smoke", "fire_ctrl", "smoke", "==", 1, None,
         "alarm1", "sound", ["alert@corridor"]),
    rule("r_alarm_leak", "water_ctrl", "leak", "==", 1, None,
         "alarm1", "sound", ["alert@corridor"]),
    # Corridor heating driven by two rooms that have no thermostat.
    rule("r_warm_r1", "hvac", "temperature", "<", 65, "room1",
         "thermo_c", "increase", ["temperature@corridor"]),
    rule("r_cool_r2", "hvac", "temperature", ">", 70, "room2",
         "thermo_c", "decrease", ["temperature@corridor"]),
    # A hot room opens the window; a morning policy heats the corridor.
    rule("r_vent_hot", "mgmt", "temperature", ">", 75, "room1",
         "window1", "open", ["temperature@room1"]),
    rule("r_morning_heat", "hvac", "clock", "<", 100, None,
         "thermo_c", "increase", ["temperature@corridor"]),
    # Dusk policy closes the blind; automation lights empty-looking rooms.
    rule("r_blind_dusk", "mgmt", "motion", "==", 1, None,
         "blind1", "close", ["luminance@room1"]),
    rule("r_light_auto", "hvac", "motion", "==", 0, None,
         "light1", "on", ["luminance@room1"]),
)

relations = ActionRelationTable(
    vocabulary={a.kind: frozenset(a.actions) for a in actuators.values()},
    entries={
        ActionRelationTable.key("thermostat", "increase",
                                "thermostat", "decrease"): Relation.OPPOSITE,
        ActionRelationTable.key("window", "open",
                                "thermostat", "increase"): Relation.OPPOSITE,
        ActionRelationTable.key("blind", "close",
                                "light", "on"): Relation.OPPOSITE,
    })

config = DetectorConfig(
    dependency_graph=FeatureDependencyGraph(
        nodes=features,
        edges=frozenset({("temperature@corridor", "temperature@room1")})),
    action_relations=relations,
    overlap_window=5, duplicate_window=30, same_tick_epsilon=0,
    similarity_classes=(
        frozenset({EventSignature("temperature", Cmp.EQ, "room1"),
                   EventSignature("temperature", Cmp.EQ, "room2")}),),
)

ruleset = RuleSet(registry=registry, rules=rules)


def event(eid, sensor_id, tick, value):
    s = sensors[sensor_id]
    return Event(eid, sensor_id, tick, float(value), s.unit,
                 EventSignature(s.kind, Cmp.EQ, s.location))


def show(title, narration, batches):
    print(f"\n=== {title}")
    print(f"    {narration}")
    window = DetectionWindow(config)
    found = []
    for batch in batches:
        found.extend(detect_at_tick(batch, ruleset, window, config))
    for conflict in found:
        print(f"    tick {conflict.tick:>3}  {conflict.kind.value}  "
              f"{conflict.note}")
    if not found:
        print("    (no conflicts)")


print("Seven ways a trigger-action ruleset can bite, one moment each.")

show("C1: same actuator, two controllers, same tick",
     "smoke and a water leak both sound alarm1 at tick 7",
     [[event("a", "smoke1", 7, 1), event("b", "leak1", 7, 1)]])

show("C2: different actuators, two controllers, one shared feature",
     "dusk policy closes the blind while automation turns the light on",
     [[event("a", "motion1", 4, 1), event("b", "motion2", 4, 0)]])

show("C3: overlapping events stack commands on one actuator",
     "room1 runs cold at tick 10, room2 runs hot at tick 12; the shared "
     "corridor thermostat hears increase then decrease",
     [[event("a", "temp1", 10, 60)], [event("b", "temp2", 12, 74)]])

show("C4: overlapping events, opposite actions, linked features",
     "the same tug-of-war also pushes opposite actions on one feature",
     [[event("a", "temp1", 20, 60)], [event("b", "temp2", 23, 74)]])

show("C5: disjoint events stack commands on one actuator at once",
     "a hot room2 reading and the morning clock hit the corridor "
     "thermostat together at tick 30",
     [[event("a", "temp2", 30, 74), event("b", "clock1", 30, 30)]])

show("C6: disjoint events, opposite actions, dependent features",
     "the window opens for a hot room while the morning policy heats the "
     "corridor that feeds it",
     [[event("a", "temp1", 40, 80), event("b", "clock1", 40, 40)]])

show("C7: one sensor repeats itself inside the duplicate window",
     "temp1 reports 60 F at tick 50 and again at tick 65",
     [[event("a", "temp1", 50, 60)], [event("b", "temp1", 65, 60)]])

print("\nSeveral moments above carry more than one tag: a single pair of"
      "\nevents can violate multiple policies, and each violation is"
      "\nreported separately.")
