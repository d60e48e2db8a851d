"""Random ruleset/trace generation for equivalence and property tests.

Traces obey the stream invariants the detector assumes: ticks never
decrease, one event per sensor per tick, event kinds/locations/units match
the sensor registry. Values are drawn from a small palette so repeated
readings (the duplicate-event case) actually occur.
"""

import sys
from importlib import resources

import numpy as np

from tapcheck.cli import TRACE_HEADER, format_event_row
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

# The bundled fixtures by name, as ``scenarios.fixture_text`` takes them.
FIXTURES = sorted(ref.name.removesuffix(".yaml")
                  for ref in resources.files("tapcheck.fixtures").iterdir()
                  if ref.name.endswith(".yaml"))

_KINDS = ["temperature", "humidity", "luminance", "motion", "smoke", "co"]
_UNITS = {"temperature": "F", "humidity": "pct", "luminance": "lux",
          "motion": "bool", "smoke": "bool", "co": "ppm"}
_ACTUATOR_KINDS = {
    "thermostat": ("heat", "cool", "off"),
    "window": ("open", "close"),
    "light": ("on", "off"),
    "alarm": ("sound", "flash"),
}
_RELATIONS = [Relation.DIFFERENT, Relation.OPPOSITE, Relation.DEPENDENT]


def random_ruleset(rng: np.random.Generator, max_rules: int = 10,
                   day_length: int = 48,
                   max_actuators: int = 4) -> tuple[RuleSet, DetectorConfig]:
    locations = [f"loc{i}" for i in range(int(rng.integers(1, 4)))]
    kinds = list(rng.choice(_KINDS, size=int(rng.integers(2, 5)),
                            replace=False))

    sensors = {}
    for i in range(int(rng.integers(2, 7))):
        kind = str(rng.choice(kinds))
        sid = f"s{i}"
        sensors[sid] = Sensor(
            id=sid, kind=kind, unit=_UNITS[kind],
            location=str(rng.choice(locations)),
            range=(0.0, 100.0),
            tolerance=float(rng.choice([0.0, 0.0, 0.5])))

    actuators = {}
    n_act = int(rng.integers(1, max_actuators + 1))
    act_kinds = list(_ACTUATOR_KINDS)
    for i in range(n_act):
        kind = str(rng.choice(act_kinds))
        aid = f"a{i}"
        actuators[aid] = Actuator(id=aid, kind=kind,
                                  location=str(rng.choice(locations)),
                                  actions=_ACTUATOR_KINDS[kind])

    controllers = tuple(f"c{i}" for i in range(int(rng.integers(1, 4))))
    features = frozenset(f"f{i}@{loc}" for loc in locations
                         for i in range(int(rng.integers(1, 3)) + 1))

    registry = Registry(locations=tuple(locations), sensors=sensors,
                        actuators=actuators, controllers=controllers,
                        features=features)

    feature_list = sorted(features)
    edges = set()
    for _ in range(int(rng.integers(0, 4))):
        src, dst = rng.choice(len(feature_list), size=2, replace=False)
        edges.add((feature_list[src], feature_list[dst]))
    graph = FeatureDependencyGraph(nodes=features, edges=frozenset(edges))

    present_kinds = sorted({a.kind for a in actuators.values()})
    vocabulary = {k: frozenset(_ACTUATOR_KINDS[k]) for k in present_kinds}
    entries = {}
    for i, k1 in enumerate(present_kinds):
        for k2 in present_kinds[i:]:
            for n1 in sorted(vocabulary[k1]):
                for n2 in sorted(vocabulary[k2]):
                    if k1 == k2 and n1 >= n2:
                        continue
                    if rng.random() < (0.6 if k1 == k2 else 0.15):
                        key = ActionRelationTable.key(k1, n1, k2, n2)
                        entries[key] = _RELATIONS[int(rng.integers(3))]
    relations = ActionRelationTable(vocabulary=vocabulary, entries=entries)

    classes = []
    present_sensor_kinds = sorted({s.kind for s in sensors.values()})
    if rng.random() < 0.3 and len(locations) >= 2:
        kind = str(rng.choice(present_sensor_kinds))
        pred = Cmp(str(rng.choice([">", "<", "=="])))
        classes.append(frozenset(
            EventSignature(kind, pred, loc) for loc in locations))

    cfg = DetectorConfig(
        dependency_graph=graph,
        action_relations=relations,
        overlap_window=int(rng.integers(1, 9)),
        duplicate_window=int(rng.integers(1, 31)),
        same_tick_epsilon=int(rng.choice([0, 0, 0, 1, 2])),
        similarity_classes=tuple(classes),
    )

    rules = []
    n_rules = int(rng.integers(1, max_rules + 1))
    aids = sorted(actuators)
    for i in range(n_rules):
        kind = str(rng.choice(kinds))
        if kind not in {s.kind for s in sensors.values()}:
            kind = str(rng.choice([s.kind for s in sensors.values()]))
        actuator = actuators[str(rng.choice(aids))]
        n_feats = int(rng.integers(1, 3))
        feats = frozenset(str(rng.choice(feature_list))
                          for _ in range(n_feats))
        schedule = None
        if rng.random() < 0.25:
            start = int(rng.integers(0, day_length - 1))
            end = int(rng.integers(start + 1, day_length + 1))
            schedule = (start, end)
        rules.append(Rule(
            id=f"r{i}",
            controller=str(rng.choice(controllers)),
            trigger=TriggerCondition(
                sensor_kind=kind,
                comparator=Cmp(str(rng.choice([">", "<", "=="]))),
                threshold=float(rng.choice([10, 30, 50, 70, 90])),
                unit=_UNITS[kind],
                location_filter=(str(rng.choice(locations))
                                 if rng.random() < 0.4 else None),
                schedule=schedule,
            ),
            action=ActionSpec(
                actuator=actuator.id,
                action=str(rng.choice(actuator.actions)),
                location=actuator.location,
                affected_features=feats,
            ),
        ))

    ruleset = RuleSet(registry=registry, rules=tuple(rules),
                      day_length=day_length)
    return ruleset, cfg


def random_trace(rng: np.random.Generator, ruleset: RuleSet,
                 max_ticks: int = 200, p_event: float = 0.15,
                 start: int = 0) -> list[Event]:
    """A valid event stream: sorted ticks, one event per sensor per tick."""
    sensors = sorted(ruleset.registry.sensors.values(), key=lambda s: s.id)
    # A small value palette makes exact repeats (duplicate readings) likely.
    palette = [5.0, 30.0, 50.0, 50.0, 70.0, 95.0]
    events = []
    seq = 0
    horizon = int(rng.integers(1, max_ticks + 1))
    for tick in range(start, start + horizon):
        for sensor in sensors:
            if rng.random() >= p_event:
                continue
            seq += 1
            events.append(Event(
                id=f"e{seq}",
                sensor=sensor.id,
                time=tick,
                value=float(rng.choice(palette)) + float(
                    rng.choice([0.0, 0.0, 0.25])),
                unit=sensor.unit,
                signature=EventSignature(
                    sensor_kind=sensor.kind,
                    predicate=Cmp(str(rng.choice([">", "<", "=="]))),
                    location=sensor.location),
            ))
    return events


def dense_trace(ruleset: RuleSet, seed: int) -> list[Event]:
    """A seeded trace in which most sensors report every tick, for up to
    400 ticks: many firing pairs and repeated readings per tick."""
    return random_trace(np.random.default_rng(seed), ruleset,
                        max_ticks=400, p_event=0.9)


def trace_text(events: list[Event]) -> str:
    """``events`` as a trace CSV, the file ``tapcheck monitor`` reads."""
    return "".join(f"{row}\n" for row in
                   [TRACE_HEADER, *map(format_event_row, events)])


def group_by_tick(events: list[Event]) -> list[list[Event]]:
    """Consecutive same-tick batches, preserving order."""
    batches: list[list[Event]] = []
    for event in events:
        if batches and batches[-1][0].time == event.time:
            batches[-1].append(event)
        else:
            batches.append([event])
    return batches


if __name__ == "__main__":
    # python tests/gen.py RULESET SEED: the dense trace of a ruleset
    # document, as CSV on stdout.
    from tapcheck.parsing import load_document

    with open(sys.argv[1], encoding="utf-8") as document:
        ruleset = load_document(document.read()).ruleset
    sys.stdout.write(trace_text(dense_trace(ruleset, int(sys.argv[2]))))
