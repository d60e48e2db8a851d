"""Command-line interface.

Four subcommands share one exit-code contract: 0 when no conflicts were
found, 1 when any were, 2 on usage or input errors. A bad command line is
a ``TapcheckError`` like any other input error, so ``main`` returns 2 and
prints one ``error:`` line for it too; only ``--help`` exits, with 0.

* ``check``: static misconfiguration analysis of a ruleset document.
* ``monitor``: stream an event-trace CSV through the online detector.
* ``simulate``: run a built-in or user scenario across seeds and write CSV
  reports (feature traces, event traces, conflict logs, and a summary).
* ``report``: aggregate the conflict logs in a simulate output directory.

``monitor`` writes each tick's log rows as the detector returns them, so
besides the parsed trace its live state is the detection window plus one
tick's rows. Every output file appears only once it is complete: it is
written beside its target and renamed into place, so none is left
half-written and a failed ``monitor`` run leaves no log, nor a directory
it created. ``simulate`` runs every seed before it writes anything, so a
seed that fails leaves no output behind. An ``--out`` that cannot be
written is an input error.

File formats (UTF-8, LF, comma-separated, byte-stable for fixed inputs):

* event trace: ``tick,sensor,kind,predicate,value,location``
* conflict log: ``tick,kind,rule_a,rule_b,event_a,event_b,actuator,note``
* feature trace: one row per room per tick with temperature, humidity,
  luminance, occupancy, and device states.
"""

import argparse
import os
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from itertools import groupby, islice, takewhile
from operator import attrgetter
from pathlib import Path
from typing import Iterator

from . import scenarios as scen
from .detector import (
    KIND_TEXT,
    NOTES,
    Conflict,
    ConflictKind,
    DetectionWindow,
    detect_at_tick,
)
from .errors import (
    InvalidEventError,
    TapcheckError,
    TraceError,
    UnknownSensorKindError,
)
from .model import (
    DetectorConfig,
    Event,
    EventSignature,
    RuleSet,
    check_reading,
)
from .parsing import _CMP_TOKENS, load_document, read_text
from .simulator import SERIES_FIELDS, THERMO_NAME, RoomState, TraceReport
from .static import static_check

TRACE_HEADER = "tick,sensor,kind,predicate,value,location"
CONFLICT_HEADER = "tick,kind,rule_a,rule_b,event_a,event_b,actuator,note"
# Each comparator's trace token, read per row without the enum's value.
_CMP_TEXT = {cmp: token for token, cmp in _CMP_TOKENS.items()}
# A recorded flag's cell, by its value in the series.
_FLAG_TEXT = {0.0: "0", 1.0: "1"}
# Lines of ``check``'s report joined into one write, which bounds the text
# held at once.
_CHECK_LINES_PER_WRITE = 1024


@contextmanager
def _output_file(path: Path):
    """A UTF-8 text stream whose bytes become the file ``path`` once the
    block ends without error. Parent directories are created first. The
    text goes to a temporary file beside ``path``, renamed into place at the
    end and removed on any failure, so ``path`` is either complete or
    untouched. On failure the directories this call created are removed
    too, deepest first, up to the first that is not empty. An ``OSError``
    becomes a one-line ``TapcheckError``."""
    tmp, made = None, []
    try:
        made = list(takewhile(lambda d: not d.exists(), path.parents))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_name(f".{path.name}.{os.getpid()}.tmp"), "w",
                  encoding="utf-8", newline="") as out:
            tmp = Path(out.name)
            yield out
        os.replace(tmp, path)
        tmp, made = None, []
    except OSError as exc:
        raise TapcheckError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None:
            tmp.unlink(missing_ok=True)
        for directory in made:
            try:
                directory.rmdir()
            except OSError:  # holds other files, or was never made
                break


def _write_rows(out, rows) -> None:
    """Write each row, a string, as one LF-terminated line; no rows write
    nothing."""
    rows = list(rows)
    if rows:
        out.write("\n".join(rows))
        out.write("\n")


def _apply_overrides(cfg: DetectorConfig, args) -> DetectorConfig:
    updates = {}
    if args.overlap_window is not None:
        updates["overlap_window"] = args.overlap_window
    if getattr(args, "dup_window", None) is not None:
        updates["duplicate_window"] = args.dup_window
    if args.epsilon is not None:
        updates["same_tick_epsilon"] = args.epsilon
    return replace(cfg, **updates) if updates else cfg


def parse_trace(text: str, ruleset: RuleSet) -> list[Event]:
    """Parse and validate an event-trace CSV against a ruleset registry.
    Events with one (kind, predicate, location) share one signature
    object, so the detector compares their signatures by identity."""
    # A spreadsheet export starts with a byte-order mark.
    lines = text.removeprefix("\ufeff").splitlines()
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise TraceError(f"trace header must be {TRACE_HEADER!r}", line=1)
    events: list[Event] = []
    last_tick: int | None = None
    # Ticks never decrease, so only this tick's sensors can repeat.
    tick_sensors: set[str] = set()
    signatures: dict[tuple[str, str, str], EventSignature] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 6:
            raise TraceError("expected 6 comma-separated fields", line=lineno)
        tick_s, sensor_id, kind, predicate, value_s, location = parts
        try:
            tick = int(tick_s)
            value = float(value_s)
        except ValueError as exc:
            raise TraceError(f"bad number: {exc}", line=lineno) from exc
        try:
            check_reading(tick, value)
        except InvalidEventError as exc:
            raise TraceError(str(exc), line=lineno) from exc
        if last_tick is not None and tick < last_tick:
            raise TraceError(
                f"tick {tick} decreases after {last_tick}", line=lineno)
        if tick != last_tick:
            tick_sensors.clear()
        last_tick = tick
        try:
            sensor = ruleset.registry.reading_sensor(sensor_id, kind,
                                                     location)
        except UnknownSensorKindError as exc:
            raise TraceError(str(exc), line=lineno) from exc
        if predicate not in _CMP_TOKENS:
            raise TraceError(f"bad predicate {predicate!r}", line=lineno)
        if sensor_id in tick_sensors:
            raise TraceError(
                f"sensor {sensor_id!r} emits twice at tick {tick}",
                line=lineno)
        tick_sensors.add(sensor_id)
        signature = signatures.get((kind, predicate, location))
        if signature is None:
            signature = signatures[kind, predicate, location] = (
                EventSignature(sensor_kind=kind,
                               predicate=_CMP_TOKENS[predicate],
                               location=location))
        events.append(Event(
            id=f"e{lineno - 1}",
            sensor=sensor_id,
            time=tick,
            value=value,
            unit=sensor.unit,
            signature=signature,
        ))
    return events


def format_event_row(event: Event) -> str:
    value = event.value
    if type(value) is not float and type(value) is not int:
        # A subclass is written as its base class: numpy's float64 writes
        # ``np.float64(60.5)``, which ``parse_trace`` rejects.
        value = (float if isinstance(value, float) else int)(value)
    return (f"{event.time},{event.sensor},{event.signature.sensor_kind},"
            f"{_CMP_TEXT[event.signature.predicate]},{value!r},"
            f"{event.signature.location}")


# Bound once: reading a member through its enum class costs more than the
# rest of the kind test.
_C7 = ConflictKind.C7


def format_conflict_row(conflict: Conflict) -> str:
    """One conflict log row, its note column the finding's ``note``. A C7
    row, most of a chatty stream's log, is one f-string holding the text of
    ``NOTES[C7]``; a pair row calls its kind's ``NOTES`` entry. The tick
    column is ``second.time``, which the ``tick`` property returns."""
    kind = conflict.kind
    a, b = conflict.first, conflict.second
    if kind is _C7:
        return (f"{b.time},C7,,,{a.id},{b.id},,sensor {b.sensor} "
                f"repeated value {a.value:g} after {b.time - a.time} "
                "tick(s)")
    actuator = a.action.actuator
    if b.action.actuator != actuator:
        actuator = f"{actuator}/{b.action.actuator}"
    note = NOTES[kind](b, a) if conflict._swapped else NOTES[kind](a, b)
    return (f"{b.time},{KIND_TEXT[kind]},{a.rule},{b.rule},"
            f"{a.event.id},{b.event.id},{actuator},{note}")


def _print_summary(counts: dict[str, int]) -> None:
    total = sum(counts.values())
    line = "  ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
    print(f"{line}  total={total}")


def _check_report(findings: list) -> Iterator[str]:
    """The lines of ``check``'s report: per kind, its count and then its
    findings (static_check sorts them by kind first), and the total."""
    for kind, group in groupby(findings, key=attrgetter("kind")):
        of_kind = list(group)
        yield f"{kind.value}: {len(of_kind)} potential conflict(s)"
        for f in of_kind:
            yield f"  {f.rule_a} + {f.rule_b}: {f.note}"
    yield f"{len(findings)} potential conflict(s)"


def cmd_check(args) -> int:
    doc = load_document(read_text(args.ruleset))
    cfg = _apply_overrides(doc.config, args)
    findings = static_check(doc.ruleset, cfg)
    lines = _check_report(findings)
    while chunk := list(islice(lines, _CHECK_LINES_PER_WRITE)):
        _write_rows(sys.stdout, chunk)
    return 1 if findings else 0


def cmd_monitor(args) -> int:
    doc = load_document(read_text(args.ruleset))
    cfg = _apply_overrides(doc.config, args)
    events = parse_trace(read_text(args.trace), doc.ruleset)

    # Each tick's findings are written and counted as they arrive, so no
    # finding, nor the firings it holds, outlives its tick.
    window = DetectionWindow(cfg)
    counts = Counter({k.value: 0 for k in ConflictKind})
    with (_output_file(Path(args.out) / "conflicts.csv") if args.out
          else nullcontext(sys.stdout)) as log:
        _write_rows(log, [CONFLICT_HEADER])
        for _, batch in groupby(events, key=attrgetter("time")):
            found = detect_at_tick(list(batch), doc.ruleset, window, cfg)
            _write_rows(log, map(format_conflict_row, found))
            counts.update(KIND_TEXT[c.kind] for c in found)
    _print_summary(counts)
    return 1 if sum(counts.values()) else 0


def _format_column(fieldname: str, values: list[float]) -> list[str]:
    """One recorded series as trace-CSV cells: the thermostat's mode name,
    a float field to four places, a flag as 0 or 1."""
    if fieldname == "thermostat":
        return [THERMO_NAME[int(v)] for v in values]
    if RoomState.__dataclass_fields__[fieldname].type is float:
        return [f"{v:.4f}" for v in values]
    return list(map(_FLAG_TEXT.__getitem__, values))


def write_report_csvs(report: TraceReport, out_dir: Path) -> None:
    seed = report.seed
    # Rows per room, formatted a column at a time, then interleaved so the
    # rooms of one tick sit together.
    room_rows = [
        [f"{room}," + ",".join(cells) for cells in zip(*(
            _format_column(f, report.series[room][f].tolist())
            for f in SERIES_FIELDS))]
        for room in report.rooms]
    with _output_file(out_dir / f"trace_{seed}.csv") as out:
        _write_rows(out, ["tick,room," + ",".join(SERIES_FIELDS)])
        _write_rows(out, (f"{tick},{row}"
                          for tick, tick_rows in enumerate(zip(*room_rows))
                          for row in tick_rows))

    with _output_file(out_dir / f"events_{seed}.csv") as out:
        _write_rows(out, [TRACE_HEADER])
        _write_rows(out, map(format_event_row, report.events))

    with _output_file(out_dir / f"conflicts_{seed}.csv") as out:
        _write_rows(out, [CONFLICT_HEADER])
        _write_rows(out, map(format_conflict_row, report.conflicts))


def write_summary_csv(reports: list[TraceReport], out_dir: Path) -> None:
    actuator_ids = sorted({a for r in reports for a in r.actuations})
    extra_ids = sorted({a for r in reports for a in r.extra_actuations})
    header = (["seed"] + [k.value for k in ConflictKind]
              + ["total", "suppressed_actions", "suppressed_duplicates"]
              + [f"actuations_{a}" for a in actuator_ids]
              + [f"extra_actuations_{a}" for a in extra_ids])
    lines = [",".join(header)]
    table = []
    for r in reports:
        row = [r.conflict_counts[k.value] for k in ConflictKind]
        row.append(sum(r.conflict_counts.values()))
        row.append(r.suppressed_actions)
        row.append(r.suppressed_duplicates)
        row += [r.actuations.get(a, 0) for a in actuator_ids]
        row += [r.extra_actuations.get(a, 0) for a in extra_ids]
        table.append(row)
        # Each seed's counts exactly; the means keep 6 significant digits.
        lines.append(",".join(map(str, [r.seed, *row])))
    if table:
        # Exact integer sums, so the one rounding is the division's.
        means = [sum(column) / len(table) for column in zip(*table)]
        lines.append(",".join(["mean"] + [f"{v:g}" for v in means]))
    with _output_file(out_dir / "summary.csv") as out:
        _write_rows(out, lines)


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    if Path(args.scenario).suffix in (".yaml", ".yml"):
        scenario, bundle = scen.load_scenario_bundle(args.scenario)
    else:
        scenario = scen.build(args.scenario)
        bundle = scen.load_bundle(scenario.ruleset)
    base_seed = args.seed if args.seed is not None else scenario.seed
    bundle = replace(bundle, config=_apply_overrides(bundle.config, args))

    # Every seed runs before anything is written, so a run that fails at
    # any seed leaves no output behind.
    reports = [scen.run_scenario(replace(scenario, seed=seed), bundle)
               for seed in range(base_seed, base_seed + args.seeds)]
    with _output_file(out_dir / "ruleset.yaml") as out:
        out.write(bundle.text)
    for report in reports:
        write_report_csvs(report, out_dir)
    write_summary_csv(reports, out_dir)
    print(f"{scenario.id}: {len(reports)} run(s) written to {out_dir}")
    return 1 if any(report.conflicts for report in reports) else 0


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    logs = sorted(out_dir.glob("conflicts_*.csv"))
    if not logs:
        raise TapcheckError(f"no conflicts_*.csv files in {out_dir}")
    counts = {k.value: 0 for k in ConflictKind}
    for log in logs:
        lines = read_text(log).splitlines()
        if not lines or lines[0] != CONFLICT_HEADER:
            raise TapcheckError(f"{log} is not a conflict log")
        for lineno, row in enumerate(lines[1:], start=2):
            fields = row.split(",")
            if len(fields) == 8 and fields[1] in counts:
                counts[fields[1]] += 1
            elif row.strip():
                raise TapcheckError(f"{log} line {lineno}: not a conflict row")
    print(f"{len(logs)} conflict log(s) in {out_dir}")
    _print_summary(counts)
    return 1 if sum(counts.values()) else 0


class _Parser(argparse.ArgumentParser):
    """A bad command line, in any subcommand, is a ``TapcheckError``."""

    def error(self, message):
        raise TapcheckError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tapcheck",
        description="Conflict detection for trigger-action smart-home "
                    "rulesets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, detects=True):
        # Static analysis never reads the duplicate-reading window (C7).
        p.add_argument("--overlap-window", type=int, default=None,
                       help="override the overlapping-events window")
        if detects:
            p.add_argument("--dup-window", type=int, default=None,
                           help="override the duplicate-reading window")
        p.add_argument("--epsilon", type=int, default=None,
                       help="override same-tick simultaneity slack")

    p_check = sub.add_parser("check", help="static ruleset analysis")
    p_check.add_argument("--ruleset", required=True)
    common(p_check, detects=False)
    p_check.set_defaults(func=cmd_check)

    p_mon = sub.add_parser("monitor", help="run a trace through the detector")
    p_mon.add_argument("--ruleset", required=True)
    p_mon.add_argument("--trace", required=True)
    p_mon.add_argument("--out", default=None,
                       help="directory for conflicts.csv (default: stdout)")
    common(p_mon)
    p_mon.set_defaults(func=cmd_monitor)

    p_sim = sub.add_parser("simulate", help="run a built-in scenario")
    p_sim.add_argument("--scenario", required=True,
                       help="scenario id S1..S8 or a scenario YAML file")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="base seed (default: the scenario's own)")
    p_sim.add_argument("--seeds", type=int, default=1,
                       help="number of consecutive seeds to run")
    p_sim.add_argument("--out", required=True)
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="summarize simulate output")
    p_rep.add_argument("--out", required=True,
                       help="directory holding conflicts_*.csv")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seeds", 1) < 1:
            raise TapcheckError("--seeds must be >= 1")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise TapcheckError("--seed must be >= 0")
        return args.func(args)
    except TapcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
