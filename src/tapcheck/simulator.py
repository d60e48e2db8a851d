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

Each setup value is checked once, by the type it sets, as that type is
constructed: :class:`RoomState`, :class:`HouseParams`, :class:`HouseModel`,
:class:`SourceSpec` and :class:`Scenario`. Each field must hold a value of
its annotation, read by the package's one field checker in
:mod:`tapcheck.model`, which also checks the config records: a number, an
integer, a name, a bool or a ``Cmp`` as
:func:`tapcheck.model.value_problem` states it (a text field may be empty
where its default is), a record such as :class:`HouseParams`, a
``Literal``'s choice such as a source's mode, a fixed-length tuple such as
an adjacency pair, and a tuple or frozenset of them. Each type then adds
only its cross-field rules and its ranges and traces, and house overrides
meet the rules of the parameter or trace they replace.
A scenario document is read into these same types, so a value built in code
and one read from a document meet the same checks, and each failure is a
:class:`SimulationError` naming the record and the field. A run checks
every reference between scenario, ruleset and house (source sensors, rule
and momentary actuators) before tick 0.
"""

import hashlib
from dataclasses import dataclass, field, fields, replace
from operator import itemgetter
from typing import Literal, get_args

import numpy as np

from .detector import (
    KIND_TEXT,
    Conflict,
    ConflictKind,
    DetectionWindow,
    detect_at_tick,
)
# Not called here; kept because the benchmark tracer (bench/tracer.py)
# patches ``simulator.match_rules`` by name.
from .detector import match_rules  # noqa: F401
from .errors import SimulationError
from .model import (
    Cmp,
    DetectorConfig,
    Event,
    EventSignature,
    RuleSet,
    _check_fields,
    value_problem,
)

THERMOSTAT_OFF, THERMOSTAT_HEAT, THERMOSTAT_COOL = "off", "heat", "cool"
# A thermostat's modes, in the order of their codes in a trace.
ThermostatMode = Literal[THERMOSTAT_OFF, THERMOSTAT_HEAT, THERMOSTAT_COOL]


def _check_param(value, what: str) -> None:
    """The rule of a house parameter, set in :class:`HouseParams` or in an
    override: a finite number >= 0."""
    problem = value_problem(value, float)
    if problem is None and value < 0:
        problem = ">= 0"
    if problem:
        raise SimulationError(f"{what} must be {problem}")


def _check_trace(value, what: str) -> None:
    """The rule of an outdoor trace, set in :class:`HouseModel` or in an
    override: a finite number or a non-empty tuple of them."""
    values = value if isinstance(value, tuple) else (value,)
    if not values or any(value_problem(v, float) for v in values):
        raise SimulationError(
            f"{what} must be a finite number or a non-empty tuple of them")


@dataclass
class RoomState:
    """Mutable per-room simulation state, including device positions."""

    name: str
    outdoor_exposed: bool = True
    temperature: float = 70.0
    humidity: float = 50.0
    luminance: float = 0.0
    occupancy: bool = False
    thermostat: ThermostatMode = THERMOSTAT_OFF
    setpoint: float = 70.0
    humidifier: bool = False
    light: bool = False
    blind: bool = False  # True = open
    window: bool = False  # True = open
    door: bool = False  # True = open/unlocked
    alarm: bool = False

    def __post_init__(self):
        _check_fields(self, f"room {self.name!r} ", SimulationError)
        if not 0.0 <= self.humidity <= 100.0:
            raise SimulationError(
                f"room {self.name!r} humidity must start in [0, 100]")


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
            _check_param(getattr(self, f.name), f"house parameter {f.name}")


# The house parameters and outdoor traces a scenario may override.
HOUSE_PARAMETERS = frozenset(f.name for f in fields(HouseParams))
OUTDOOR_TRACES = ("outdoor_temperature", "daylight")


@dataclass(frozen=True)
class HouseModel:
    """Rooms, their adjacency, physics parameters, and the outdoor trace.

    ``outdoor_temperature`` and ``daylight`` may be scalars or per-tick
    tuples (cycled when shorter than the horizon) of finite numbers.
    ``momentary`` lists actuators that spring back to their initial
    position at the end of each tick, for devices modeled as pulses rather
    than latched state.
    """

    rooms: tuple[RoomState, ...]
    adjacency: tuple[tuple[str, str], ...] = ()
    params: HouseParams = field(default_factory=HouseParams)
    outdoor_temperature: float | tuple[float, ...] = 70.0
    daylight: float | tuple[float, ...] = 300.0
    momentary: frozenset[str] = frozenset()

    def __post_init__(self):
        _check_fields(self, "house ", SimulationError)
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
        for name in OUTDOOR_TRACES:
            _check_trace(getattr(self, name), f"house {name}")

    def neighbors(self, room: str) -> tuple[str, ...]:
        out = []
        for a, b in self.adjacency:
            if a == room:
                out.append(b)
            elif b == room:
                out.append(a)
        return tuple(out)


def _cycle(trace) -> list[float]:
    """One cycle of an outdoor trace, as the floats read at ``tick % len``."""
    return list(map(float, trace if isinstance(trace, tuple) else (trace,)))


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
    mode: Literal["bernoulli", "cov", "clock", "script"] = "bernoulli"
    p: float = 0.0
    value: float = 1.0
    choices: tuple[float, ...] | None = None
    predicate: Cmp = Cmp.EQ
    feature: Literal["temperature", "humidity", "luminance"] | None = None
    min_delta: float = 1e-9
    at: tuple[tuple[int, float], ...] = ()
    occupancy_room: str | None = None
    emit_event: bool = True

    def __post_init__(self):
        # Every field is checked whatever the mode.
        what = f"source {self.name!r}"
        _check_fields(self, f"{what} ", SimulationError)
        if not 0.0 <= self.p <= 1.0:
            raise SimulationError(f"{what} p must be in [0, 1], not {self.p}")
        if self.mode == "cov" and self.feature is None:
            raise SimulationError(
                f"cov source {self.name!r} needs a feature to watch")
        if self.min_delta < 0:
            raise SimulationError(f"{what} min_delta must be >= 0")
        if self.choices == ():
            raise SimulationError(
                f"{what} choices must be None or a non-empty tuple of finite "
                "numbers, not ()")
        ticks = set()
        for tick, _ in self.at:
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
    detector: Literal["off", "on"] = "off"
    house_overrides: dict = field(default_factory=dict)
    baseline_overrides: dict | None = None
    description: str = ""

    def __post_init__(self):
        what = f"scenario {self.id!r}"
        _check_fields(self, f"{what} ", SimulationError)
        # Each source checked itself when it was built; ``replace`` runs
        # this again for every seed and arm.
        names = set()
        for src in self.sources:
            if src.name in names:
                raise SimulationError(f"duplicate source name {src.name!r}")
            names.add(src.name)
        _check_overrides(self.house_overrides, f"{what} house_overrides")
        if self.baseline_overrides is not None:
            _check_overrides(self.baseline_overrides,
                             f"{what} baseline_overrides")


def _check_overrides(overrides, what: str) -> None:
    """House overrides, a dict: each physics parameter and outdoor trace
    meets the rule of the one it replaces."""
    for key, value in overrides.items():
        if key in HOUSE_PARAMETERS:
            _check_param(value, f"{what} {key}")
        elif key in OUTDOOR_TRACES:
            _check_trace(value, f"{what} {key}")
        else:
            raise SimulationError(f"{what} has unknown key {key!r}")


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

# A room's row of SERIES_FIELDS, read from its attribute dict.
_series_row = itemgetter(*SERIES_FIELDS)

_THERMO_CODE = {mode: code for code, mode in enumerate(
    get_args(ThermostatMode))}
THERMO_NAME = {v: k for k, v in _THERMO_CODE.items()}

# What a tick drops when it enforces nothing: no event ids, no action keys.
_NO_DROPS = (frozenset(), frozenset())


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
    """State of one simulation arm. Building it checks every reference of
    the arm and works out once what each tick reads: the rooms with their
    neighbours' positions, one cycle of each outdoor trace, each source's
    readings and event fields, each rule's target and whether the arm
    enforces. ``step`` records each room's state as one row of
    ``SERIES_FIELDS``, and ``report`` writes the rows into the series."""

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
        self._enforce = scenario.detector == "on"
        self._event_seq = 0
        self._cov_last: dict[str, float] = {}
        horizon = scenario.horizon
        try:
            self.series = {
                name: {f: np.zeros(horizon) for f in SERIES_FIELDS}
                for name in self.rooms
            }
        except (ValueError, MemoryError) as exc:
            raise SimulationError(
                f"scenario {scenario.id!r} horizon {horizon} is too long "
                f"to simulate: {exc}") from exc
        # Per room, in house order: its state, the positions of its
        # neighbours in that order, and its rows, one per tick.
        position = {name: k for k, name in enumerate(self.rooms)}
        self._rows: list[list[tuple]] = [[] for _ in self.rooms]
        self._cells = [
            (room, tuple(position[n] for n in house.neighbors(name)),
             rows.append)
            for (name, room), rows in zip(self.rooms.items(), self._rows)]
        self._outdoor = _cycle(house.outdoor_temperature)
        self._daylight = _cycle(house.daylight)
        sensors = ruleset.registry.sensors
        # Per source: its name, its readings by tick (a cov source's, None,
        # depend on the room it watches and are taken as the run goes), the
        # room and feature it watches and its min_delta, the room it marks
        # occupied, and the sensor id (None if it emits no event), unit and
        # one signature of its events.
        self._sources: list[tuple] = []
        for src in scenario.sources:
            # Every reference of a source is checked here, before any tick.
            sensor = sensors.get(src.sensor)
            if sensor is None:
                raise SimulationError(
                    f"source {src.name!r} uses undeclared sensor "
                    f"{src.sensor!r}")
            if src.occupancy_room and src.occupancy_room not in self.rooms:
                raise SimulationError(
                    f"source {src.name!r} marks {src.occupancy_room!r} "
                    f"occupied, which is not a simulated room")
            cov = src.mode == "cov"
            if cov and sensor.location not in self.rooms:
                raise SimulationError(
                    f"cov source {src.name!r} watches sensor {sensor.id!r} "
                    f"in {sensor.location!r}, which is not a simulated room")
            self._sources.append((
                src.name,
                None if cov else self._schedule(src, horizon),
                self.rooms[sensor.location] if cov else None,
                src.feature, src.min_delta,
                self.rooms[src.occupancy_room] if src.occupancy_room
                else None,
                sensor.id if src.emit_event else None, sensor.unit,
                EventSignature(sensor_kind=sensor.kind,
                               predicate=src.predicate,
                               location=sensor.location)))
        # So is the actuator of every rule, firing or not; its room, id and
        # kind are kept by rule index for ``step``.
        actuators = ruleset.registry.actuators
        self._targets: list[tuple[RoomState, str, str]] = []
        for rule in ruleset.rules:
            actuator = actuators[rule.action.actuator]
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

    def _sample_events(self, tick: int) -> list[Event]:
        out: list[Event] = []
        for (name, schedule, watched, feature, min_delta, occupied, sensor,
             unit, signature) in self._sources:
            if schedule is not None:
                value = schedule.get(tick)
                if value is None:
                    continue
            else:
                value = getattr(watched, feature)
                last = self._cov_last.get(name)
                if last is not None and not abs(value - last) > min_delta:
                    continue
                self._cov_last[name] = value
            if occupied is not None:
                occupied.occupancy = True
            if sensor is not None:
                self._event_seq += 1
                out.append(Event(id=f"e{self._event_seq}", sensor=sensor,
                                 time=tick, value=float(value), unit=unit,
                                 signature=signature))
        return out

    @staticmethod
    def _suppressed_keys(conflicts: list[Conflict]) -> tuple[set, set]:
        """(event ids, action keys) to drop under enforcement, from among
        the tick's firings (``DetectionWindow.firings_at``). For a pair
        conflict the canonically later action is dropped. It is always a
        firing of the current tick: the run hands the detector one batch
        per tick, ``detect_at_tick`` reports only pairs with a member from
        that batch, and participants are ordered by (time, event, rule), so
        the later one carries the batch's tick."""
        drop_events: set[str] = set()
        drop_actions: set[tuple] = set()
        for conflict in conflicts:
            drop_events.update(conflict.suppressible)
            if conflict.kind is not ConflictKind.C7:
                drop_actions.add(conflict.second.key())
        return drop_events, drop_actions

    def step(self, tick: int) -> None:
        house = self.house
        for room in self.rooms.values():
            room.occupancy = False

        events = self._sample_events(tick)
        # The benchmark tracer's detect hook fails on an empty batch, so an
        # idle tick skips the call; nothing fires at it.
        conflicts = detect_at_tick(events, self.ruleset, self.window,
                                   self.cfg) if events else []
        if events:
            self.events += events
            self.conflicts += conflicts
            drop_events, drop_actions = (
                self._suppressed_keys(conflicts)
                if conflicts and self._enforce else _NO_DROPS)
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

        t_out = self._outdoor[tick % len(self._outdoor)]
        daylight = self._daylight[tick % len(self._daylight)]
        # Each room steps from its neighbours' temperatures of the tick
        # before; its own row is final once it has stepped.
        temps = [room.temperature for room, _, _ in self._cells]
        for room, neighbors, record in self._cells:
            new_temp = thermal_step(room, house, t_out, tuple(
                [temps[k] for k in neighbors]) if neighbors else ())
            d_temp = new_temp - room.temperature
            room.temperature = new_temp
            room.humidity = humidity_step(room, house, d_temp)
            room.luminance = luminance_of(room, house, daylight)
            record(_series_row(room.__dict__))

        for room, name, value in self._resets:
            setattr(room, name, value)

    def report(self) -> TraceReport:
        # Each room's rows, one per tick stepped, fill its series column by
        # column; the thermostat's mode is written as its code.
        for columns, rows in zip(self.series.values(), self._rows):
            for (name, column), values in zip(columns.items(), zip(*rows)):
                column[:len(values)] = ([_THERMO_CODE[v] for v in values]
                                        if name == "thermostat" else values)
        counts = dict.fromkeys(KIND_TEXT.values(), 0)
        for conflict in self.conflicts:
            counts[KIND_TEXT[conflict.kind]] += 1
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
