"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size. Inputs reach the
program only as the files it reads: a ruleset YAML written with
``serialize_document`` and an event-trace CSV written with
``format_event_row``. ``monitor_scale`` reuses the acceptance-8 fixture from
``tests/test_acceptance.py``; the house traces of the correctness gate
reuse ``tests/gen.py``.
"""

import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for _p in (ROOT / "src", ROOT / "tests"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import gen  # noqa: E402  (tests/gen.py)
from test_acceptance import _scaling_fixture  # noqa: E402
from tapcheck.cli import TRACE_HEADER, format_event_row  # noqa: E402
from tapcheck.model import (  # noqa: E402
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
from tapcheck.parsing import serialize_document  # noqa: E402

# The position of a workload seeds its generator; new ones go at the end.
WORKLOADS = ("monitor_scale", "check_house", "simulate_suite", "monitor_house")
SCENARIOS = ("S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8")


@dataclass(frozen=True)
class Size:
    """Instance size of one workload. ``kinds`` is the monitor_scale sensor
    kind count (100 rules and 10 sensors per kind), ``rooms`` the house size
    (10 rules per room), ``ticks`` the trace length, and ``seeds`` the
    consecutive simulate seeds per scenario."""

    kinds: int = 0
    rooms: int = 0
    ticks: int = 0
    seeds: int = 0


# Measured sizes, chosen so one run fits the benchmark's time budget (see
# README.md for the per-size costs). Traces run past the 30-tick history
# window so most timed ticks are steady-state ticks.
SIZES = {
    "monitor_scale": Size(kinds=10, ticks=80),
    "check_house": Size(rooms=15),
    "simulate_suite": Size(seeds=2),
    "monitor_house": Size(rooms=40, ticks=160),
}
# Reduced instances for the oracle gate and the pinned reference digests.
REDUCED = {
    "monitor_scale": Size(kinds=2, ticks=40),
    "check_house": Size(rooms=3, ticks=60),
    "simulate_suite": Size(seeds=1),
    "monitor_house": Size(rooms=3, ticks=60),
}
# Tiny instances for the self-test.
TINY = {
    "monitor_scale": Size(kinds=1, ticks=35),
    "check_house": Size(rooms=2, ticks=35),
    "simulate_suite": Size(seeds=1),
    "monitor_house": Size(rooms=2, ticks=35),
}

HOT_SHARE = 0.04
HOT_VALUE = 103.5
COLD_VALUE = 50.0


def scale_trace(rng: np.random.Generator, ruleset: RuleSet,
                ticks: int) -> list[Event]:
    """Every sensor reports every tick with a constant reading; a fresh 4%
    of them read hot each tick (the acceptance-8 stream)."""
    sensors = sorted(ruleset.registry.sensors.values(), key=lambda s: s.id)
    n_hot = max(1, round(len(sensors) * HOT_SHARE))
    events = []
    seq = 0
    for tick in range(ticks):
        hot = set(rng.choice(len(sensors), size=n_hot, replace=False).tolist())
        for idx, sensor in enumerate(sensors):
            seq += 1
            events.append(Event(
                id=f"e{seq}", sensor=sensor.id, time=tick,
                value=HOT_VALUE if idx in hot else COLD_VALUE, unit="u",
                signature=EventSignature(sensor_kind=sensor.kind,
                                         predicate=Cmp.EQ,
                                         location=sensor.location)))
    return events


_SENSOR_KINDS = (("temperature", "F"), ("humidity", "pct"),
                 ("luminance", "lux"), ("motion", "bool"))
_ACTUATORS = {
    "thermostat": ("heat", "cool", "off"),
    "window": ("open", "close"),
    "humidifier": ("on", "off"),
    "light": ("on", "off"),
    "blind": ("open", "close"),
}
_OPPOSITES = (
    ("thermostat", "heat", "thermostat", "cool"),
    ("window", "open", "window", "close"),
    ("humidifier", "on", "humidifier", "off"),
    ("light", "on", "light", "off"),
    ("blind", "open", "blind", "close"),
    ("blind", "open", "light", "off"),
    ("blind", "close", "light", "on"),
)
# (trigger kind, actuator kind, action, affected features); ten per room.
_TEMPLATES = (
    ("temperature", "thermostat", "heat", ("temperature",)),
    ("temperature", "thermostat", "cool", ("temperature",)),
    ("temperature", "window", "open", ("temperature", "humidity")),
    ("humidity", "window", "close", ("temperature", "humidity")),
    ("humidity", "humidifier", "on", ("humidity",)),
    ("humidity", "humidifier", "off", ("humidity",)),
    ("luminance", "light", "on", ("luminance",)),
    ("luminance", "blind", "open", ("luminance", "temperature")),
    ("motion", "light", "off", ("luminance",)),
    ("motion", "blind", "close", ("luminance",)),
)
_CONTROLLERS = tuple(f"ctrl{i}" for i in range(6))
_THRESHOLDS = (10.0, 30.0, 50.0, 70.0, 90.0)
SCHEDULED_SHARE = 0.2
# Building-wide rules are never scheduled; local rules make up the share.
_LOCAL_SCHEDULED_SHARE = SCHEDULED_SHARE * 10 / 9
_WIDE_TRIGGERS = ((">", 30.0), ("<", 70.0), (">", 50.0), ("<", 50.0))
HOUSE_EVENT_SHARE = 0.05


def house_ruleset(rng: np.random.Generator,
                  size: Size) -> tuple[RuleSet, DetectorConfig]:
    """A connected building: rooms in a chain, temperature affects humidity
    in each room, and a temperature chain joins every room into one
    dependency component."""
    rooms = [f"room{i}" for i in range(size.rooms)]
    sensors = {}
    for room in rooms:
        for kind, unit in _SENSOR_KINDS:
            sid = f"{kind[:4]}_{room}"
            sensors[sid] = Sensor(id=sid, kind=kind, unit=unit, location=room,
                                  range=(0.0, 100.0))
    actuators = {f"{kind}_{room}": Actuator(id=f"{kind}_{room}", kind=kind,
                                            location=room, actions=actions)
                 for room in rooms for kind, actions in _ACTUATORS.items()}
    features = frozenset(f"{f}@{room}" for room in rooms
                         for f in ("temperature", "humidity", "luminance"))
    registry = Registry(locations=tuple(rooms), sensors=sensors,
                        actuators=actuators, controllers=_CONTROLLERS,
                        features=features)
    edges = {(f"temperature@{r}", f"humidity@{r}") for r in rooms}
    edges |= {(f"temperature@{a}", f"temperature@{b}")
              for a, b in zip(rooms, rooms[1:])}
    entries = {ActionRelationTable.key(k1, n1, k2, n2): Relation.OPPOSITE
               for k1, n1, k2, n2 in _OPPOSITES}
    units = dict(_SENSOR_KINDS)
    cfg = DetectorConfig(
        dependency_graph=FeatureDependencyGraph(nodes=features,
                                                edges=frozenset(edges)),
        action_relations=ActionRelationTable(
            vocabulary={k: frozenset(v) for k, v in _ACTUATORS.items()},
            entries=entries),
        similarity_classes=(frozenset(
            EventSignature("temperature", Cmp.GT, r) for r in rooms),),
    )
    day = 864
    rules = []
    for i, room in enumerate(rooms):
        for j, (kind, act_kind, action, feats) in enumerate(_TEMPLATES):
            # One rule per room reacts to its sensor kind anywhere in the
            # building, cycling through the templates and trigger settings
            # so the firing volume does not hinge on the seed.
            building_wide = j == i % len(_TEMPLATES)
            if building_wide:
                cmp, threshold = _WIDE_TRIGGERS[(i // len(_TEMPLATES))
                                                % len(_WIDE_TRIGGERS)]
            else:
                cmp = str(rng.choice(["<", ">", "=="], p=[0.45, 0.45, 0.1]))
                threshold = float(rng.choice(_THRESHOLDS))
            schedule = None
            if not building_wide and rng.random() < _LOCAL_SCHEDULED_SHARE:
                start = int(rng.integers(0, day - 1))
                schedule = (start, int(rng.integers(start + 1, day + 1)))
            rules.append(Rule(
                id=f"r_{room}_{j}",
                controller=(_CONTROLLERS[i % len(_CONTROLLERS)]
                            if building_wide
                            else str(rng.choice(_CONTROLLERS))),
                trigger=TriggerCondition(
                    sensor_kind=kind, comparator=Cmp(cmp),
                    threshold=threshold, unit=units[kind],
                    location_filter=None if building_wide else room,
                    schedule=schedule),
                action=ActionSpec(
                    actuator=f"{act_kind}_{room}", action=action,
                    location=room,
                    affected_features=frozenset(f"{f}@{room}"
                                                for f in feats))))
    return RuleSet(registry=registry, rules=tuple(rules),
                   day_length=day), cfg


def house_trace(rng: np.random.Generator, ruleset: RuleSet,
                ticks: int) -> list[Event]:
    """Each tick a fresh 5% of the sensors report, with values and
    predicates drawn by ``gen.random_trace``. A fixed count per tick keeps
    the per-tick cost comparable across seeds."""
    registry = ruleset.registry
    ids = sorted(registry.sensors)
    per_tick = max(1, round(len(ids) * HOUSE_EVENT_SHARE))
    events = []
    for tick in range(ticks):
        chosen = sorted(rng.choice(len(ids), size=per_tick, replace=False))
        view = RuleSet(registry=replace(registry, sensors={
            ids[i]: registry.sensors[ids[i]] for i in chosen}), rules=())
        events += gen.random_trace(rng, view, max_ticks=1, p_event=1.0,
                                   start=tick)
    return events


def trace_csv(events: list[Event]) -> str:
    return "\n".join([TRACE_HEADER] + [format_event_row(e)
                                       for e in events]) + "\n"


def build(workload: str, seed: int, size: Size):
    """(ruleset, config, trace) of one instance. ``check_house`` has a
    trace only at the reduced sizes, where the gate replays it to test that
    static findings cover every dynamic conflict."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "monitor_scale":
        ruleset, cfg = _scaling_fixture(n_kinds=size.kinds)
        return ruleset, cfg, scale_trace(rng, ruleset, size.ticks)
    if workload in ("check_house", "monitor_house"):
        ruleset, cfg = house_ruleset(rng, size)
        trace = house_trace(rng, ruleset, size.ticks) if size.ticks else None
        return ruleset, cfg, trace
    raise ValueError(f"workload {workload!r} reads no generated ruleset")


def write_inputs(workload: str, seed: int, size: Size, out: Path) -> dict:
    """Write one instance's input files under ``out``; returns the paths
    the measured commands take."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "simulate_suite":
        return {"seed": seed, "seeds": size.seeds}
    ruleset, cfg, trace = build(workload, seed, size)
    files = {"ruleset": str(out / "ruleset.yaml")}
    Path(files["ruleset"]).write_text(serialize_document(ruleset, cfg),
                                      encoding="utf-8")
    if trace is not None:
        files["trace"] = str(out / "trace.csv")
        Path(files["trace"]).write_text(trace_csv(trace), encoding="utf-8")
    return files
