"""Built-in simulation scenarios and fixture loading.

Eight ready-to-run experiments, each backed by a bundled ruleset fixture:

* S1: blind and lamp pulses race on one room's luminance; co-fires push the
  level outside the comfortable [200, 450] band.
* S2: occupant window commands fight the heating on a cold day; room
  temperature deviates and extra thermostat work is visible.
* S3: two rooms with sensors share a corridor thermostat with no sensor of
  its own; disagreement thrashes it between heating and cooling.
* S4: a hot day drags humidity down through the temperature coupling while
  window commands and the humidifier interact.
* S5: smoke and leak detectors owned by different controllers share one
  alarm; simultaneous detections collide on it.
* S6: the S2 house focused on counting window-versus-thermostat conflicts.
* S7: paired arms measure extra thermostat actuations when occupancy heat
  meets an evening switch-off policy.
* S8: like S7 for the humidifier through the temperature-humidity coupling.

Scenario ids, seeds, horizons, and source probabilities are plain data;
use :func:`with_probability` or ``dataclasses.replace`` to build sweeps.

The document readers here (:func:`parse_house`, :func:`parse_sources`,
:func:`load_scenario_bundle`) check only a document's shape: known keys,
lists and mappings, comparator tokens and room ids among the declared
locations. They turn lists into tuples and pass every value on as it is to
the setup types of :mod:`tapcheck.simulator`, which check it as a value
built in code is checked. The house's momentary actuators are checked when
a run starts, as for a house built in code.
"""

from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

from .errors import ParseError, SimulationError, UnknownScenarioError
from .model import DetectorConfig, RuleSet
from .parsing import (
    Document,
    _as,
    _keys,
    _parse_cmp,
    _section,
    _tuple,
    load_document,
    read_text,
)
from .simulator import (
    HOUSE_PARAMETERS,
    HouseModel,
    HouseParams,
    RoomState,
    Scenario,
    SourceSpec,
    TraceReport,
    run_arm,
)

# The keys a room entry may set besides ``id`` and ``exposed``, read from
# RoomState. Luminance is left out: the blind, the lamp and the daylight
# set it every tick.
_ROOM_FIELDS = {f.name for f in fields(RoomState)
                if f.name not in ("name", "outdoor_exposed", "luminance")}


def parse_house(raw: dict, registry) -> HouseModel:
    """Read the ``house`` section of a fixture document; ``HouseModel`` and
    the types it holds check the values, and a run its momentary
    actuators."""
    _keys(raw, "house", "house", optional=(
        "rooms", "params", "adjacency", "outdoor", "momentary"))
    rooms = []
    for i, entry in enumerate(_section(raw, "rooms", list, "house.rooms")):
        p = f"house.rooms[{i}]"
        _keys(entry, "room", p, required=("id",),
              optional=("exposed", *_ROOM_FIELDS))
        name = entry["id"]
        if name not in registry.locations:
            raise ParseError(f"room {name!r} is not a declared location",
                             path=p)
        rooms.append(RoomState(
            name=name, outdoor_exposed=entry.get("exposed", True),
            **{k: v for k, v in entry.items() if k in _ROOM_FIELDS}))

    params = HouseParams(**_keys(
        _section(raw, "params", dict, "house.params"), "params",
        "house.params", optional=HOUSE_PARAMETERS))
    adjacency = tuple(map(_tuple, _section(raw, "adjacency", list,
                                           "house.adjacency")))
    outdoor = _keys(_section(raw, "outdoor", dict, "house.outdoor"),
                    "outdoor", "house.outdoor",
                    optional=("temperature", "daylight"))
    # Ids must be hashable to build the set.
    momentary = frozenset(_as(a, str, "house.momentary") for a in _section(
        raw, "momentary", list, "house.momentary"))
    return HouseModel(
        rooms=tuple(rooms), adjacency=adjacency, params=params,
        outdoor_temperature=_tuple(outdoor.get("temperature", 70.0)),
        daylight=_tuple(outdoor.get("daylight", 300.0)), momentary=momentary)


@dataclass(frozen=True)
class Bundle:
    """A loaded fixture: ruleset, detector config, house, and raw text."""

    ruleset: RuleSet
    config: DetectorConfig
    house: HouseModel
    text: str


def fixture_text(name: str) -> str:
    """Raw YAML of a bundled fixture, or of a file path."""
    candidate = Path(name)
    if candidate.suffix in (".yaml", ".yml") and candidate.exists():
        return read_text(candidate)
    ref = resources.files("tapcheck.fixtures").joinpath(f"{name}.yaml")
    if not ref.is_file():
        raise UnknownScenarioError(
            f"no bundled fixture or file named {name!r}")
    return ref.read_text(encoding="utf-8")


def _bundle(doc: Document, text: str) -> Bundle:
    return Bundle(ruleset=doc.ruleset, config=doc.config,
                  house=parse_house(doc.house, doc.ruleset.registry),
                  text=text)


def load_bundle(name: str) -> Bundle:
    text = fixture_text(name)
    doc = load_document(text)
    if doc.house is None:
        raise SimulationError(f"fixture {name!r} has no house section")
    return _bundle(doc, text)


def _parse_overrides(raw):
    """House overrides read from a scenario file, their lists as tuples;
    ``Scenario`` checks the mapping, its keys and its values."""
    if not isinstance(raw, dict):
        return raw
    return {k: _tuple(v) for k, v in raw.items()}


def _override_house(house: HouseModel, overrides: dict) -> HouseModel:
    """Apply {param: value} overrides onto the house physics parameters;
    an ``outdoor_temperature``/``daylight`` key replaces the trace."""
    params = {k: v for k, v in overrides.items() if k in HOUSE_PARAMETERS}
    outdoor = {k: v for k, v in overrides.items()
               if k not in HOUSE_PARAMETERS}
    return replace(house, params=replace(house.params, **params), **outdoor)


def run_scenario(scenario: Scenario,
                 bundle: Bundle | None = None) -> TraceReport:
    """Run a scenario to its horizon and report.

    ``bundle`` defaults to the scenario's fixture; a caller running many
    seeds loads it once (changing its config with ``dataclasses.replace``)
    and passes it to each run. For paired scenarios the baseline arm runs
    with the same seed and the extra house overrides, and the report
    carries its actuation counts.
    """
    if bundle is None:
        bundle = load_bundle(scenario.ruleset)
    house = _override_house(bundle.house, scenario.house_overrides)
    report = run_arm(scenario, bundle.ruleset, bundle.config, house)
    if scenario.baseline_overrides is not None:
        baseline_house = _override_house(house, scenario.baseline_overrides)
        baseline = run_arm(scenario, bundle.ruleset, bundle.config,
                           baseline_house)
        report.baseline_actuations = baseline.actuations
    return report


_SOURCE_FIELDS = {f.name for f in fields(SourceSpec)}


def parse_sources(raw: list) -> tuple[SourceSpec, ...]:
    """Read the ``sources`` section of a scenario document; ``SourceSpec``
    checks the values."""
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ParseError("sources must be a list", path="sources")
    out = []
    for i, entry in enumerate(raw):
        p = f"sources[{i}]"
        kwargs = dict(_keys(entry, "source", p, required=("name", "sensor"),
                            optional=_SOURCE_FIELDS))
        if "predicate" in kwargs:
            kwargs["predicate"] = _parse_cmp(kwargs["predicate"],
                                             f"{p}.predicate")
        if "choices" in kwargs:
            kwargs["choices"] = _tuple(kwargs["choices"])
        if "at" in kwargs:
            kwargs["at"] = _parse_at(kwargs["at"])
        out.append(SourceSpec(**kwargs))
    return tuple(out)


def _parse_at(raw):
    """A script source's [tick, value] entries as (tick, value) tuples."""
    return tuple(map(_tuple, raw)) if isinstance(raw, list) else raw


def load_scenario_bundle(path: str) -> tuple[Scenario, Bundle]:
    """Load a user scenario and its bundle from one parse of one document
    holding the ruleset, detector config, house, event sources, and a
    ``scenario`` section with the run metadata (id, horizon, and optional
    seed/detector/baseline). ``Scenario`` checks the values."""
    text = fixture_text(path)
    doc = load_document(text)
    if doc.scenario is None:
        raise SimulationError(f"{path} has no scenario section")
    if doc.house is None:
        raise SimulationError(f"{path} has no house section")
    meta = _keys(doc.scenario, "scenario", "scenario",
                 required=("id", "horizon"), optional=(
                     "seed", "detector", "baseline_overrides", "description"))
    detector = meta.get("detector", "off")
    if isinstance(detector, bool):  # YAML 1.1 reads bare on/off as booleans
        detector = "on" if detector else "off"
    scenario = Scenario(
        id=meta["id"],
        ruleset=path,
        sources=parse_sources(doc.sources),
        horizon=meta["horizon"],
        seed=meta.get("seed", 0),
        detector=detector,
        baseline_overrides=_parse_overrides(meta.get("baseline_overrides")),
        description=meta.get("description", ""),
    )
    return scenario, _bundle(doc, text)


def with_probability(scenario: Scenario, source_name: str,
                     p: float) -> Scenario:
    """A copy of the scenario with one source's firing probability changed."""
    sources = []
    found = False
    for src in scenario.sources:
        if src.name == source_name:
            sources.append(replace(src, p=p))
            found = True
        else:
            sources.append(src)
    if not found:
        raise SimulationError(f"no source named {source_name!r}")
    return replace(scenario, sources=tuple(sources))


# The built-in scenarios at seed 0; ``build`` hands out copies.
_BUILTIN = {scenario.id: scenario for scenario in (
    Scenario(
        id="S1",
        ruleset="s1_luminance",
        sources=(
            SourceSpec(name="blind_taps", sensor="app1", p=0.10),
            SourceSpec(name="motion", sensor="motion1", p=0.10,
                       occupancy_room="room1"),
        ),
        horizon=500,
        description="blind and lamp pulses race on room luminance",
    ),
    Scenario(
        id="S2",
        ruleset="s2_window_thermostat",
        sources=(
            SourceSpec(name="window_taps", sensor="app1", p=0.10,
                       choices=(1.0, 0.0)),
            SourceSpec(name="room_temp", sensor="temp1", mode="cov",
                       feature="temperature"),
        ),
        horizon=500,
        description="window commands fight the heating on a cold day",
    ),
    Scenario(
        id="S3",
        ruleset="s3_corridor",
        sources=(
            SourceSpec(name="temp_room1", sensor="temp1", mode="cov",
                       feature="temperature"),
            SourceSpec(name="temp_room2", sensor="temp2", mode="cov",
                       feature="temperature"),
            SourceSpec(name="crowd_room2", sensor="occ2", p=0.4,
                       occupancy_room="room2", emit_event=False),
        ),
        horizon=500,
        description="two rooms thrash a shared corridor thermostat",
    ),
    Scenario(
        id="S4",
        ruleset="s4_humidity",
        sources=(
            SourceSpec(name="window_taps", sensor="app1", p=0.05,
                       choices=(1.0, 0.0)),
            SourceSpec(name="room_humidity", sensor="hum1", mode="cov",
                       feature="humidity"),
        ),
        horizon=500,
        description="temperature-humidity coupling pulls the humidifier in",
    ),
    Scenario(
        id="S5",
        ruleset="s5_alarm",
        sources=(
            SourceSpec(name="smoke", sensor="smoke1", p=0.05),
            SourceSpec(name="leak", sensor="leak1", p=0.07),
        ),
        horizon=2000,
        description="smoke and leak detections collide on a shared alarm",
    ),
    Scenario(
        id="S7",
        ruleset="s7_thermostat_management",
        sources=(
            SourceSpec(name="crowd", sensor="occ1", p=0.5,
                       occupancy_room="room1", emit_event=False),
            SourceSpec(name="wall_clock", sensor="clock1", mode="clock"),
            SourceSpec(name="room_temp", sensor="temp1", mode="cov",
                       feature="temperature"),
        ),
        horizon=2000,
        house_overrides={"occupant_heat": 0.3},
        baseline_overrides={"occupant_heat": 0.0},
        description="occupancy heat versus an evening thermostat policy",
    ),
    Scenario(
        id="S8",
        ruleset="s8_humidifier_management",
        sources=(
            SourceSpec(name="crowd", sensor="occ1", p=0.5,
                       occupancy_room="room1", emit_event=False),
            SourceSpec(name="wall_clock", sensor="clock1", mode="clock"),
            SourceSpec(name="room_humidity", sensor="hum1", mode="cov",
                       feature="humidity"),
        ),
        horizon=2000,
        house_overrides={"occupant_heat": 0.3},
        baseline_overrides={"occupant_heat": 0.0},
        description="occupancy humidity impact versus an evening policy",
    ),
)}
_BUILTIN["S6"] = replace(_BUILTIN["S2"], id="S6", horizon=2000,
                         description="counting window-versus-thermostat "
                                     "collisions")


def builtin_scenarios(seed: int = 0) -> list[Scenario]:
    """The eight built-in scenarios, S1 through S8."""
    return [build(sid, seed) for sid in sorted(_BUILTIN)]


def build(scenario_id: str, seed: int = 0) -> Scenario:
    """One built-in scenario by id, sharing no mutable object with any
    other call's."""
    scenario = _BUILTIN.get(scenario_id)
    if scenario is None:
        raise UnknownScenarioError(
            f"unknown scenario {scenario_id!r}; expected one of "
            f"{sorted(_BUILTIN)}")
    baseline = scenario.baseline_overrides
    return replace(scenario, seed=seed,
                   house_overrides=dict(scenario.house_overrides),
                   baseline_overrides=None if baseline is None
                   else dict(baseline))
