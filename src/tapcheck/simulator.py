"""Deterministic discrete-time smart-home simulation.

A house is a set of rooms joined by adjacency (typically a corridor), each
with first-order lumped-parameter physics:

* temperature: exponential pull toward outdoor air, heater/cooler gain,
  extra outdoor coupling through an open window, exchange with adjacent
  rooms, and optional occupant heat,
* relative humidity: falls as temperature rises (warm air holds more
  moisture), plus humidifier gain, clamped to [0, 100],
* luminance: base level plus daylight through an open blind plus lamp.

Each tick the engine samples event sources (seeded per source, so adding a
source never perturbs the draws of another), feeds the events through the
conflict detector, applies the firings the detector matched (read back
with ``DetectionWindow.firings_at``) that survive suppression, steps the
physics, and records everything. Identical seeds give byte-identical
runs.

The detector always runs and its findings are always counted; the
``detector`` flag of a scenario only controls enforcement. When it is
``on``, actions triggered by a suppressible duplicate event are dropped, and
for every conflict completed within the current tick the canonically later
action is dropped as well.

Each setup rule is checked once, by the type it constrains: a room's
humidity range, thermostat mode and finite temperatures by
:class:`RoomState`, finite non-negative coefficients by
:class:`HouseParams`, finite outdoor traces by :class:`HouseModel`,
integer horizon and seed >= 0 and unique source names by
:class:`Scenario`. A run checks every reference between scenario, ruleset
and house (source sensors, rule and momentary actuators) before tick 0. A
house or scenario built in code therefore meets the same checks as one
read from a document, and each failure is a :class:`SimulationError`.
"""

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .detector import (
    Conflict,
    ConflictKind,
    DetectionWindow,
    detect_at_tick,
)
# Not called here; kept because the benchmark tracer (bench/tracer.py)
# patches ``simulator.match_rules`` by name.
from .detector import match_rules  # noqa: F401
from .errors import SimulationError
from .model import Cmp, DetectorConfig, Event, EventSignature, RuleSet

THERMOSTAT_OFF, THERMOSTAT_HEAT, THERMOSTAT_COOL = "off", "heat", "cool"


@dataclass
class RoomState:
    """Mutable per-room simulation state, including device positions."""

    name: str
    outdoor_exposed: bool = True
    temperature: float = 70.0
    humidity: float = 50.0
    luminance: float = 0.0
    occupancy: bool = False
    thermostat: str = THERMOSTAT_OFF
    setpoint: float = 70.0
    humidifier: bool = False
    light: bool = False
    blind: bool = False  # True = open
    window: bool = False  # True = open
    door: bool = False  # True = open/unlocked
    alarm: bool = False

    def __post_init__(self):
        if not 0.0 <= self.humidity <= 100.0:
            raise SimulationError(
                f"room {self.name!r} humidity must start in [0, 100]")
        for name in ("temperature", "setpoint"):
            if not math.isfinite(getattr(self, name)):
                raise SimulationError(
                    f"room {self.name!r} {name} must be finite")
        if self.thermostat not in (THERMOSTAT_OFF, THERMOSTAT_HEAT,
                                   THERMOSTAT_COOL):
            raise SimulationError(
                f"room {self.name!r} thermostat must be off, heat or cool, "
                f"not {self.thermostat!r}")


@dataclass(frozen=True)
class HouseParams:
    """Physics coefficients, all per tick, finite and non-negative."""

    k_loss: float = 0.05    # outdoor pull
    k_adj: float = 0.1      # neighbor pull
    g_heat: float = 0.5     # heater/cooler gain, degrees F per tick
    k_win: float = 0.1      # extra outdoor pull through an open window
    k_h: float = 1.5        # %RH drop per degree F of warming
    g_hum: float = 2.0      # humidifier gain, %RH per tick
    l_base: float = 100.0   # lux with everything shut
    l_window: float = 250.0  # max daylight contribution through the blind
    l_lamp: float = 250.0   # lamp contribution
    setpoint_step: float = 10.0  # setpoint change per increase/decrease
    occupant_heat: float = 0.0   # degrees F per occupied tick

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise SimulationError(
                    f"house parameter {f.name} must be finite")
            if value < 0:
                raise SimulationError(
                    f"house parameter {f.name} must be >= 0")


@dataclass(frozen=True)
class HouseModel:
    """Rooms, their adjacency, physics parameters, and the outdoor trace.

    ``outdoor_temperature`` and ``daylight`` may be scalars or per-tick
    sequences (cycled when shorter than the horizon) of finite numbers.
    ``momentary`` lists
    actuators that spring back to their initial position at the end of each
    tick, for devices modeled as pulses rather than latched state.
    """

    rooms: tuple[RoomState, ...]
    adjacency: tuple[tuple[str, str], ...] = ()
    params: HouseParams = field(default_factory=HouseParams)
    outdoor_temperature: float | tuple[float, ...] = 70.0
    daylight: float | tuple[float, ...] = 300.0
    momentary: frozenset[str] = frozenset()

    def __post_init__(self):
        names = [r.name for r in self.rooms]
        if len(set(names)) != len(names):
            raise SimulationError("duplicate room name in house model")
        pairs = set()
        for a, b in self.adjacency:
            if a not in names or b not in names:
                raise SimulationError(
                    f"adjacency references unknown room in ({a}, {b})")
            # Each listing of a neighbour adds one more k_adj pull toward it.
            if a == b:
                raise SimulationError(f"adjacency joins room {a} to itself")
            if frozenset((a, b)) in pairs:
                raise SimulationError(f"adjacency lists ({a}, {b}) twice")
            pairs.add(frozenset((a, b)))
        for name in ("outdoor_temperature", "daylight"):
            trace = getattr(self, name)
            values = (trace,) if isinstance(trace, (int, float)) else trace
            if not values or not all(map(math.isfinite, values)):
                raise SimulationError(
                    f"house {name} must be a finite number or a non-empty "
                    "sequence of them")

    def neighbors(self, room: str) -> tuple[str, ...]:
        out = []
        for a, b in self.adjacency:
            if a == room:
                out.append(b)
            elif b == room:
                out.append(a)
        return tuple(out)

    def outdoor_at(self, tick: int) -> float:
        return _trace_at(self.outdoor_temperature, tick)

    def daylight_at(self, tick: int) -> float:
        return _trace_at(self.daylight, tick)


def _trace_at(trace, tick: int) -> float:
    if isinstance(trace, (int, float)):
        return float(trace)
    return float(trace[tick % len(trace)])


def thermal_step(room: RoomState, house: HouseModel, t_out: float,
                 neighbor_temps: tuple[float, ...]) -> float:
    """Next temperature of a room, one tick on.

    Outdoor pull and window coupling apply only to rooms exposed to the
    outside; an interior corridor is driven purely by its neighbors and its
    own thermostat.
    """
    p = house.params
    t = room.temperature
    delta = 0.0
    if room.outdoor_exposed:
        delta += p.k_loss * (t_out - t)
        if room.window:
            delta += p.k_win * (t_out - t)
    if room.thermostat == THERMOSTAT_HEAT:
        delta += p.g_heat
    elif room.thermostat == THERMOSTAT_COOL:
        delta -= p.g_heat
    for tn in neighbor_temps:
        delta += p.k_adj * (tn - t)
    if room.occupancy:
        delta += p.occupant_heat
    return t + delta


def humidity_step(room: RoomState, house: HouseModel,
                  d_temp: float) -> float:
    """Next relative humidity given this tick's temperature change."""
    p = house.params
    rh = room.humidity - p.k_h * d_temp
    if room.humidifier:
        rh += p.g_hum
    return min(100.0, max(0.0, rh))


def luminance_of(room: RoomState, house: HouseModel,
                 daylight: float) -> float:
    """Room luminance from the base level, the blind, and the lamp."""
    p = house.params
    lux = p.l_base
    if room.blind:
        lux += min(daylight, p.l_window)
    if room.light:
        lux += p.l_lamp
    return lux


@dataclass(frozen=True)
class SourceSpec:
    """One event source.

    The mode says when the source fires and what it reads:

    * ``bernoulli``: fires with probability ``p`` per tick and reads
      ``value``, or a value drawn uniformly from ``choices``.
    * ``cov``: change-of-value reporting of a room feature
      (``temperature``/``humidity``/``luminance``) of its sensor's room;
      fires at its first tick and then whenever the reading moved more
      than ``min_delta`` since the last time it fired.
    * ``clock``: fires every tick and reads the tick of day.
    * ``script``: fires exactly at the (tick, value) pairs of ``at``; the
      ticks must be distinct integers >= 0.

    In every mode, ``occupancy_room``, when set, marks that room occupied
    for each tick the source fires, and the source puts its reading on the
    wire only when ``emit_event`` is true (with it false the source only
    drives occupancy).
    """

    name: str
    sensor: str
    mode: str = "bernoulli"
    p: float = 0.0
    value: float = 1.0
    choices: tuple[float, ...] | None = None
    predicate: Cmp = Cmp.EQ
    feature: str | None = None
    min_delta: float = 1e-9
    at: tuple[tuple[int, float], ...] = ()
    occupancy_room: str | None = None
    emit_event: bool = True

    def __post_init__(self):
        if self.mode not in ("bernoulli", "cov", "clock", "script"):
            raise SimulationError(f"unknown source mode {self.mode!r}")
        if self.mode == "bernoulli" and not 0.0 <= self.p <= 1.0:
            raise SimulationError(
                f"source {self.name!r} probability must be in [0, 1]")
        if self.mode == "cov" and self.feature not in (
                "temperature", "humidity", "luminance"):
            raise SimulationError(
                f"cov source {self.name!r} needs a feature to watch")
        if not 0.0 <= self.min_delta < math.inf:
            raise SimulationError(
                f"source {self.name!r} min_delta must be finite and >= 0")
        if self.mode == "script":
            ticks = set()
            for tick, _ in self.at:
                if (not isinstance(tick, int) or isinstance(tick, bool)
                        or tick < 0):
                    raise SimulationError(
                        f"script source {self.name!r} tick {tick!r} is not "
                        "an integer >= 0")
                if tick in ticks:
                    raise SimulationError(
                        f"script source {self.name!r} lists tick {tick} twice")
                ticks.add(tick)


@dataclass(frozen=True)
class Scenario:
    """A reproducible simulation setup.

    ``ruleset`` names a bundled fixture (or a file path) holding the rules,
    detector config, and base house. ``detector`` is ``off`` to only count
    conflicts or ``on`` to also enforce suppression. ``baseline_overrides``,
    when set, makes the run paired: a second arm runs with these extra house
    overrides and the same seed, and actuation deltas are reported.
    """

    id: str
    ruleset: str
    sources: tuple[SourceSpec, ...]
    horizon: int
    seed: int = 0
    detector: str = "off"
    house_overrides: dict = field(default_factory=dict)
    baseline_overrides: dict | None = None
    description: str = ""

    def __post_init__(self):
        for name in ("horizon", "seed"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < 0):
                raise SimulationError(
                    f"{name} must be an integer >= 0, not {value!r}")
        if self.detector not in ("off", "on"):
            raise SimulationError("detector flag must be 'off' or 'on'")
        names = set()
        for src in self.sources:
            if src.name in names:
                raise SimulationError(f"duplicate source name {src.name!r}")
            names.add(src.name)


@dataclass
class TraceReport:
    """Everything one simulation run produced."""

    scenario: str
    seed: int
    horizon: int
    rooms: tuple[str, ...]
    series: dict[str, dict[str, np.ndarray]]
    events: list[Event]
    conflicts: list[Conflict]
    conflict_counts: dict[str, int]
    actuations: dict[str, int]
    actuation_log: list[tuple[int, str, str, str]]  # tick, actuator, action, rule
    suppressed_actions: int = 0
    suppressed_duplicates: int = 0
    baseline_actuations: dict[str, int] | None = None

    @property
    def extra_actuations(self) -> dict[str, int]:
        """Per-actuator actuation surplus over the paired baseline arm."""
        if self.baseline_actuations is None:
            return {}
        keys = set(self.actuations) | set(self.baseline_actuations)
        return {k: self.actuations.get(k, 0) - self.baseline_actuations.get(k, 0)
                for k in sorted(keys)}


# The room fields a run records each tick, in trace-CSV column order:
# every field of RoomState but its name and exposure.
SERIES_FIELDS = tuple(f.name for f in fields(RoomState)
                      if f.name not in ("name", "outdoor_exposed"))

_THERMO_CODE = {THERMOSTAT_OFF: 0, THERMOSTAT_HEAT: 1, THERMOSTAT_COOL: 2}
THERMO_NAME = {v: k for k, v in _THERMO_CODE.items()}


def _source_rng(seed: int, name: str) -> np.random.Generator:
    # Key the stream by source name so list order never matters.
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest[:8], "big")]))


# Each simulated actuator kind drives the room field of its own name; per
# action, the value that field takes. A thermostat's value is its mode and
# the setpoint steps (of ``HouseParams.setpoint_step``) it moves, so it
# drives the setpoint too.
DEVICE_ACTIONS: dict[str, dict[str, object]] = {
    "thermostat": {
        "on": (THERMOSTAT_HEAT, 0), "heat": (THERMOSTAT_HEAT, 0),
        "cool": (THERMOSTAT_COOL, 0), "off": (THERMOSTAT_OFF, 0),
        "increase": (THERMOSTAT_HEAT, 1), "decrease": (THERMOSTAT_COOL, -1),
    },
    "humidifier": {"on": True, "off": False},
    "light": {"on": True, "off": False},
    "blind": {"open": True, "close": False},
    "window": {"open": True, "close": False},
    "door": {"open": True, "unlock": True, "close": False, "lock": False},
    "alarm": {"on": True, "sound": True, "beep": True, "flash": True,
              "off": False},
}


def driven_fields(actuator_kind: str) -> tuple[str, ...]:
    """The room fields an actuator kind of ``DEVICE_ACTIONS`` sets."""
    if actuator_kind == "thermostat":
        return ("thermostat", "setpoint")
    return (actuator_kind,)


def apply_action(room: RoomState, actuator_kind: str, action: str,
                 step: float) -> None:
    """Mutate a room's device state according to one actuation command."""
    effects = DEVICE_ACTIONS.get(actuator_kind)
    if effects is None:
        raise SimulationError(
            f"actuator kind {actuator_kind!r} has no simulation effects")
    if action not in effects:
        raise SimulationError(
            f"unsupported {actuator_kind} action {action!r}")
    value = effects[action]
    if actuator_kind == "thermostat":
        room.thermostat, steps = value
        if steps:
            room.setpoint += steps * step
    else:
        setattr(room, actuator_kind, value)


def momentary_actuators(house: HouseModel, actuators: dict) -> list:
    """The actuators ``house.momentary`` names, looked up by id in
    ``actuators``; each must be declared, of a simulated kind and in a
    house room."""
    rooms = {room.name for room in house.rooms}
    out = []
    for actuator_id in sorted(house.momentary):
        actuator = actuators.get(actuator_id)
        if actuator is None:
            problem = "is not declared"
        elif actuator.kind not in DEVICE_ACTIONS:
            problem = f"is kind {actuator.kind!r}, which is not simulated"
        elif actuator.location not in rooms:
            problem = f"sits in {actuator.location!r}, not in a house room"
        else:
            out.append(actuator)
            continue
        raise SimulationError(f"momentary actuator {actuator_id!r} {problem}")
    return out


class _Run:
    """State of one simulation arm."""

    def __init__(self, scenario: Scenario, ruleset: RuleSet,
                 cfg: DetectorConfig, house: HouseModel):
        self.scenario = scenario
        self.ruleset = ruleset
        self.cfg = cfg
        self.house = house
        self.rooms = {r.name: replace(r) for r in house.rooms}
        self.window = DetectionWindow(cfg)
        self.events: list[Event] = []
        self.conflicts: list[Conflict] = []
        self.actuations: dict[str, int] = {}
        self.actuation_log: list[tuple[int, str, str, str]] = []
        self.suppressed_actions = 0
        self.suppressed_duplicates = 0
        self._event_seq = 0
        self._cov_last: dict[str, float] = {}
        horizon = scenario.horizon
        self.series = {
            name: {f: np.zeros(horizon) for f in SERIES_FIELDS}
            for name in self.rooms
        }
        # Per room, its attribute dict and the columns read from it each tick.
        self._records = [(room.__dict__, tuple(self.series[name].items()))
                         for name, room in self.rooms.items()]
        self._sensor = ruleset.registry.sensors
        # Each source with its readings by tick (a cov source's, None,
        # depend on the room and are taken as the run goes) and the one
        # signature of its events.
        self._sources: list[tuple[SourceSpec, dict[int, float] | None,
                                  EventSignature]] = []
        for src in scenario.sources:
            # Every reference of a source is checked here, before any tick.
            sensor = self._sensor.get(src.sensor)
            if sensor is None:
                raise SimulationError(
                    f"source {src.name!r} uses undeclared sensor "
                    f"{src.sensor!r}")
            if src.occupancy_room and src.occupancy_room not in self.rooms:
                raise SimulationError(
                    f"source {src.name!r} marks {src.occupancy_room!r} "
                    f"occupied, which is not a simulated room")
            if src.mode == "cov" and sensor.location not in self.rooms:
                raise SimulationError(
                    f"cov source {src.name!r} watches sensor {sensor.id!r} "
                    f"in {sensor.location!r}, which is not a simulated room")
            self._sources.append((
                src,
                None if src.mode == "cov" else self._schedule(src, horizon),
                EventSignature(sensor_kind=sensor.kind,
                               predicate=src.predicate,
                               location=sensor.location)))
        # So is the actuator of every rule, firing or not; its room, id and
        # kind are kept by rule index for ``step``.
        actuators = ruleset.registry.actuators
        self._targets: list[tuple[RoomState, str, str]] = []
        for rule in ruleset.rules:
            actuator = actuators.get(rule.action.actuator)
            if actuator is None:
                raise SimulationError(
                    f"rule {rule.id!r} drives undeclared actuator "
                    f"{rule.action.actuator!r}")
            effects = DEVICE_ACTIONS.get(actuator.kind)
            if effects is None:
                raise SimulationError(
                    f"rule {rule.id!r} drives {actuator.id!r} of kind "
                    f"{actuator.kind!r}, which has no simulation effects")
            if actuator.location not in self.rooms:
                raise SimulationError(
                    f"rule {rule.id!r} drives {actuator.id!r} in "
                    f"{actuator.location!r}, which is not a simulated room")
            if rule.action.action not in effects:
                raise SimulationError(
                    f"rule {rule.id!r} drives {actuator.id!r} with "
                    f"unsupported {actuator.kind} action "
                    f"{rule.action.action!r}")
            self._targets.append((self.rooms[actuator.location], actuator.id,
                                  actuator.kind))
        # Momentary actuators restore the fields their kind drives to the
        # room's initial values at the end of every tick.
        initial = {r.name: r for r in house.rooms}
        self._resets = [(self.rooms[a.location], name,
                         getattr(initial[a.location], name))
                        for a in momentary_actuators(house, actuators)
                        for name in driven_fields(a.kind)]

    def _schedule(self, src: SourceSpec, horizon: int) -> dict[int, float]:
        """A bernoulli, clock or script source's readings by tick."""
        if src.mode == "clock":
            day = self.ruleset.day_length
            return {tick: tick % day for tick in range(horizon)}
        if src.mode == "script":
            return dict(src.at)
        rng = _source_rng(self.scenario.seed, src.name)
        ticks = np.flatnonzero(rng.random(horizon) < src.p).tolist()
        if not src.choices:
            return dict.fromkeys(ticks, src.value)
        draws = rng.integers(0, len(src.choices), size=horizon)
        return {tick: src.choices[draws[tick]] for tick in ticks}

    def _emit(self, src: SourceSpec, tick: int, value: float,
              signature: EventSignature) -> Event:
        sensor = self._sensor[src.sensor]
        self._event_seq += 1
        return Event(
            id=f"e{self._event_seq}",
            sensor=sensor.id,
            time=tick,
            value=float(value),
            unit=sensor.unit,
            signature=signature,
        )

    def _sample_events(self, tick: int) -> list[Event]:
        out: list[Event] = []
        for src, schedule, signature in self._sources:
            if schedule is not None:
                value = schedule.get(tick)
                if value is None:
                    continue
            else:
                value = getattr(self.rooms[self._sensor[src.sensor].location],
                                src.feature)
                last = self._cov_last.get(src.name)
                if last is not None and not abs(value - last) > src.min_delta:
                    continue
                self._cov_last[src.name] = value
            if src.occupancy_room:
                self.rooms[src.occupancy_room].occupancy = True
            if src.emit_event:
                out.append(self._emit(src, tick, value, signature))
        return out

    def _suppressed_keys(self, conflicts: list[Conflict]) -> tuple[set, set]:
        """(event ids, action keys) to drop under enforcement, from among
        the tick's firings (``DetectionWindow.firings_at``). For a pair
        conflict the canonically later action is dropped. It is always a
        firing of the current tick: the run hands the detector one batch
        per tick, ``detect_at_tick`` reports only pairs with a member from
        that batch, and participants are ordered by (time, event, rule), so
        the later one carries the batch's tick."""
        drop_events: set[str] = set()
        drop_actions: set[tuple] = set()
        if self.scenario.detector != "on":
            return drop_events, drop_actions
        for conflict in conflicts:
            drop_events.update(conflict.suppressible)
            if conflict.kind is not ConflictKind.C7:
                drop_actions.add(conflict.participants[1].key())
        return drop_events, drop_actions

    def step(self, tick: int) -> None:
        house = self.house
        rooms = self.rooms
        for room in rooms.values():
            room.occupancy = False

        events = self._sample_events(tick)
        self.events.extend(events)

        # The benchmark tracer's detect hook fails on an empty batch, so an
        # idle tick skips the call; its ``firings_at`` is empty either way.
        conflicts = detect_at_tick(events, self.ruleset, self.window,
                                   self.cfg) if events else []
        self.conflicts.extend(conflicts)

        drop_events, drop_actions = self._suppressed_keys(conflicts)
        setpoint_step = house.params.setpoint_step
        targets = self._targets
        for ta in self.window.firings_at(tick):
            if ta.event.id in drop_events:
                self.suppressed_actions += 1
                self.suppressed_duplicates += 1
                continue
            if ta.key() in drop_actions:
                self.suppressed_actions += 1
                continue
            room, actuator_id, kind = targets[ta.index]
            apply_action(room, kind, ta.action.action, setpoint_step)
            self.actuations[actuator_id] = self.actuations.get(
                actuator_id, 0) + 1
            self.actuation_log.append(
                (tick, actuator_id, ta.action.action, ta.rule))

        t_out = house.outdoor_at(tick)
        daylight = house.daylight_at(tick)
        old_temps = {name: room.temperature for name, room in rooms.items()}
        for name, room in rooms.items():
            neighbor_temps = tuple(old_temps[n]
                                   for n in house.neighbors(name))
            new_temp = thermal_step(room, house, t_out, neighbor_temps)
            d_temp = new_temp - room.temperature
            room.temperature = new_temp
            room.humidity = humidity_step(room, house, d_temp)
            room.luminance = luminance_of(room, house, daylight)

        for state, columns in self._records:
            for name, column in columns:
                value = state[name]
                column[tick] = (_THERMO_CODE[value] if name == "thermostat"
                                else value)

        for room, name, value in self._resets:
            setattr(room, name, value)

    def report(self) -> TraceReport:
        counts = {kind.value: 0 for kind in ConflictKind}
        for conflict in self.conflicts:
            counts[conflict.kind.value] += 1
        return TraceReport(
            scenario=self.scenario.id,
            seed=self.scenario.seed,
            horizon=self.scenario.horizon,
            rooms=tuple(self.rooms),
            series=self.series,
            events=self.events,
            conflicts=self.conflicts,
            conflict_counts=counts,
            actuations=dict(sorted(self.actuations.items())),
            actuation_log=self.actuation_log,
            suppressed_actions=self.suppressed_actions,
            suppressed_duplicates=self.suppressed_duplicates,
        )


def run_arm(scenario: Scenario, ruleset: RuleSet, cfg: DetectorConfig,
            house: HouseModel) -> TraceReport:
    """Run one simulation arm to its horizon and report."""
    run = _Run(scenario, ruleset, cfg, house)
    for tick in range(scenario.horizon):
        run.step(tick)
    return run.report()
