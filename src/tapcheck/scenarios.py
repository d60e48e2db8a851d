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
"""

from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

from .errors import ParseError, SimulationError, UnknownScenarioError
from .model import DetectorConfig, RuleSet
from .parsing import (
    Document,
    _as_bool,
    _as_int,
    _as_number,
    _as_str,
    _keys,
    _parse_cmp,
    _section,
    load_document,
    read_text,
)
from .simulator import (
    HouseModel,
    HouseParams,
    RoomState,
    Scenario,
    SourceSpec,
    TraceReport,
    momentary_actuators,
    run_arm,
)

_PARAM_FIELDS = {f for f in HouseParams.__dataclass_fields__}
# The keys a room entry may set besides ``id`` and ``exposed``, with their
# types, read from RoomState. Luminance is left out: the blind, the lamp and
# the daylight set it every tick.
_ROOM_FIELDS = {f.name: f.type for f in fields(RoomState)
                if f.name not in ("name", "outdoor_exposed", "luminance")}


def _series(value, path):
    """A number, or a non-empty per-tick list of numbers as a tuple."""
    if isinstance(value, (list, tuple)) and value:
        return tuple(_as_number(v, path) for v in value)
    return _as_number(value, path)


def parse_house(raw: dict, registry) -> HouseModel:
    """Validate the ``house`` section of a fixture document."""
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
        kwargs = {
            "name": name,
            "outdoor_exposed": _as_bool(entry.get("exposed", True),
                                        f"{p}.exposed"),
        }
        for key, value in entry.items():
            kind = _ROOM_FIELDS.get(key)
            if kind is None:  # id and exposed, read above
                continue
            if kind is bool:
                value = _as_bool(value, f"{p}.{key}")
            elif kind is float:
                value = _as_number(value, f"{p}.{key}")
            else:
                value = _as_str(value, f"{p}.{key}")
            kwargs[key] = value
        rooms.append(RoomState(**kwargs))

    params_raw = _keys(_section(raw, "params", dict, "house.params"),
                       "params", "house.params", optional=_PARAM_FIELDS)
    params = HouseParams(**{k: _as_number(v, f"house.params.{k}")
                            for k, v in params_raw.items()})

    adjacency = []
    for i, pair in enumerate(_section(raw, "adjacency", list,
                                      "house.adjacency")):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError("adjacency entry must be [roomA, roomB]",
                             path=f"house.adjacency[{i}]")
        adjacency.append((pair[0], pair[1]))

    outdoor = _keys(_section(raw, "outdoor", dict, "house.outdoor"),
                    "outdoor", "house.outdoor",
                    optional=("temperature", "daylight"))
    temperature = _series(outdoor.get("temperature", 70.0),
                          "house.outdoor.temperature")
    daylight = _series(outdoor.get("daylight", 300.0),
                       "house.outdoor.daylight")

    momentary = frozenset(_as_str(a, "house.momentary") for a in _section(
        raw, "momentary", list, "house.momentary"))
    house = HouseModel(rooms=tuple(rooms), adjacency=tuple(adjacency),
                       params=params, outdoor_temperature=temperature,
                       daylight=daylight, momentary=momentary)
    # Checked on load, even if no rule ever drives the actuator.
    try:
        momentary_actuators(house, registry.actuators)
    except SimulationError as exc:
        raise ParseError(str(exc), path="house.momentary") from exc
    return house


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


_OUTDOOR_OVERRIDES = {"outdoor_temperature", "daylight"}


def _parse_overrides(raw, path: str) -> dict | None:
    """House overrides read from a scenario file (None when absent): a
    mapping of physics parameters to numbers and of outdoor traces to
    series."""
    if raw is None:
        return None
    _keys(raw, "override", path, optional=_PARAM_FIELDS | _OUTDOOR_OVERRIDES)
    return {k: (_as_number if k in _PARAM_FIELDS else _series)(
        v, f"{path}.{k}") for k, v in raw.items()}


def _override_house(house: HouseModel, overrides: dict) -> HouseModel:
    """Apply {param: value} overrides onto the house physics parameters;
    an ``outdoor_temperature``/``daylight`` key replaces the trace."""
    params = {k: v for k, v in overrides.items() if k in _PARAM_FIELDS}
    outdoor = {k: v for k, v in overrides.items() if k not in _PARAM_FIELDS}
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


_SOURCE_FIELDS = set(SourceSpec.__dataclass_fields__)


def parse_sources(raw: list) -> tuple[SourceSpec, ...]:
    """Validate the ``sources`` section of a scenario document."""
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ParseError("sources must be a list", path="sources")
    out = []
    for i, entry in enumerate(raw):
        p = f"sources[{i}]"
        kwargs = dict(_keys(entry, "source", p, required=("name", "sensor"),
                            optional=_SOURCE_FIELDS))
        _as_str(kwargs["name"], f"{p}.name")
        kwargs["sensor"] = _as_str(kwargs["sensor"], f"{p}.sensor")
        if kwargs.get("occupancy_room") is not None:
            kwargs["occupancy_room"] = _as_str(kwargs["occupancy_room"],
                                               f"{p}.occupancy_room")
        if "predicate" in kwargs:
            kwargs["predicate"] = _parse_cmp(kwargs["predicate"],
                                             f"{p}.predicate")
        for key in ("p", "value", "min_delta"):
            if key in kwargs:
                kwargs[key] = _as_number(kwargs[key], f"{p}.{key}")
        if "emit_event" in kwargs:
            kwargs["emit_event"] = _as_bool(kwargs["emit_event"],
                                            f"{p}.emit_event")
        if "choices" in kwargs and kwargs["choices"] is not None:
            if not isinstance(kwargs["choices"], list):
                raise ParseError("choices must be a list of numbers",
                                 path=f"{p}.choices")
            kwargs["choices"] = tuple(_as_number(v, f"{p}.choices")
                                      for v in kwargs["choices"])
        if "at" in kwargs:
            kwargs["at"] = _parse_at(kwargs["at"], f"{p}.at")
        out.append(SourceSpec(**kwargs))
    return tuple(out)


def _parse_at(raw, path) -> tuple[tuple[int, float], ...]:
    """A script source's [tick, value] entries."""
    if not isinstance(raw, list):
        raise ParseError("at must be a list of [tick, value] entries",
                         path=path)
    out = []
    for j, entry in enumerate(raw):
        ep = f"{path}[{j}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError("at entry must be [tick, value]", path=ep)
        out.append((_as_int(entry[0], ep), _as_number(entry[1], ep)))
    return tuple(out)


def load_scenario_bundle(path: str) -> tuple[Scenario, Bundle]:
    """Load a user scenario and its bundle from one parse of one document
    holding the ruleset, detector config, house, event sources, and a
    ``scenario`` section with the run metadata (id, horizon, and optional
    seed/detector/baseline)."""
    text = fixture_text(path)
    doc = load_document(text)
    if doc.scenario is None:
        raise SimulationError(f"{path} has no scenario section")
    if doc.house is None:
        raise SimulationError(f"{path} has no house section")
    meta = _keys(doc.scenario, "scenario", "scenario",
                 required=("id", "horizon"), optional=(
                     "seed", "detector", "baseline_overrides", "description"))
    seed = _as_int(meta.get("seed", 0), "scenario.seed")
    if seed < 0:
        raise ParseError("seed must be >= 0", path="scenario.seed")
    detector = meta.get("detector", "off")
    if isinstance(detector, bool):  # YAML 1.1 reads bare on/off as booleans
        detector = "on" if detector else "off"
    description = meta.get("description", "")
    if description != "":
        description = _as_str(description, "scenario.description")
    scenario = Scenario(
        id=_as_str(meta["id"], "scenario.id"),
        ruleset=path,
        sources=parse_sources(doc.sources),
        horizon=_as_int(meta["horizon"], "scenario.horizon"),
        seed=seed,
        detector=detector,
        baseline_overrides=_parse_overrides(
            meta.get("baseline_overrides"), "scenario.baseline_overrides"),
        description=description,
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
