"""Correctness gate of a benchmark run.

Every run is checked three ways, outside the measured time:

* ``repeatable``: every measured invocation exits 0 or 1 and writes the same
  bytes as the first.
* ``oracle``: the detector's conflict log equals ``oracle_detect`` and the
  ``check`` findings equal ``oracle_static``, on a reduced instance built by
  the same generator from the run's seed; the ``check`` findings must also
  cover every C1..C6 rule pair ``oracle_detect`` finds in a house trace.
  For monitor the measured log's first ticks are compared with the oracle
  too, and for simulate every measured conflict log is compared with the
  oracle over its event log.
* ``reference``: a pinned instance (reduced size, seed 0) run through the
  CLI gives the digests in ``reference.json``, recorded from the program
  before any optimisation: the conflict log, the ``check`` stdout, and the
  ``summary.csv`` and ``conflicts_*.csv`` files.

Run ``python3 bench/gate.py --record`` to re-record ``reference.json``; a
change that alters byte-stable output must say why it does.
"""

import json
import sys
from pathlib import Path

import workloads
from measure import invoke, run_cli
from tapcheck.cli import CONFLICT_HEADER, parse_trace
from tapcheck.oracle import oracle_detect, oracle_static
from tapcheck.parsing import load_document
from tapcheck.scenarios import build as build_scenario
from tapcheck.scenarios import load_bundle

REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
# Measured monitor logs are compared with the oracle over ticks below this.
PREFIX_TICKS = 6


def log_keys(log_text: str, events, below_tick=None) -> set:
    """Oracle-style keys of the rows of a conflict log."""
    time_of = {e.id: e.time for e in events}
    lines = log_text.splitlines()
    if not lines or lines[0] != CONFLICT_HEADER:
        raise ValueError("not a conflict log")
    keys = set()
    for row in lines[1:]:
        tick, kind, rule_a, rule_b, ev_a, ev_b, _ = row.split(",", 6)
        if below_tick is not None and int(tick) >= below_tick:
            continue
        if kind == "C7":
            parts = ((time_of[ev_a], ev_a), (time_of[ev_b], ev_b))
        else:
            parts = ((time_of[ev_a], ev_a, rule_a),
                     (time_of[ev_b], ev_b, rule_b))
        keys.add((kind, int(tick), parts))
    return keys


def detector_matches_oracle(doc, trace_text: str, log_text: str,
                            below_tick=None) -> bool:
    events = parse_trace(trace_text, doc.ruleset)
    if below_tick is not None:
        events = [e for e in events if e.time < below_tick]
    want = oracle_detect(events, doc.ruleset, doc.config)
    return log_keys(log_text, events, below_tick) == want


def check_stdout_findings(stdout: str) -> set:
    """(kind, rule_a, rule_b) of every finding ``tapcheck check`` printed."""
    found = set()
    kind = None
    for line in stdout.splitlines():
        if line.startswith("  ") and kind is not None:
            rule_a, rest = line.strip().split(" + ", 1)
            found.add((kind, rule_a, rest.split(":", 1)[0]))
        elif ": " in line and line[:1] == "C":
            kind = line.split(":", 1)[0]
    return found


def static_matches_oracle(doc, stdout: str) -> bool:
    want = {(p.kind.value, p.rule_a, p.rule_b)
            for p in oracle_static(doc.ruleset, doc.config)}
    return check_stdout_findings(stdout) == want


def static_covers_dynamic(doc, stdout: str, trace_text: str) -> bool:
    """Static findings over-approximate the detector: every C1..C6 rule pair
    found in the trace is among them."""
    events = parse_trace(trace_text, doc.ruleset)
    dynamic = {(kind, *sorted((a[2], b[2])))
               for kind, _, (a, b) in oracle_detect(events, doc.ruleset,
                                                    doc.config)
               if kind != "C7"}
    return bool(dynamic) and dynamic <= check_stdout_findings(stdout)


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def simulate_logs_match_oracle(out: Path) -> bool:
    """Every conflicts_<seed>.csv of a simulate output equals the oracle
    over the events_<seed>.csv beside it."""
    checked = 0
    for scenario in workloads.SCENARIOS:
        bundle = load_bundle(build_scenario(scenario).ruleset)
        doc = load_document(bundle.text)
        for log in sorted((out / scenario).glob("conflicts_*.csv")):
            seed = log.stem.split("_", 1)[1]
            events_csv = _read(log.with_name(f"events_{seed}.csv"))
            if not detector_matches_oracle(doc, events_csv, _read(log)):
                return False
            checked += 1
    return checked > 0


def instance_spec(workload: str, seed: int, size, work: Path) -> dict:
    inputs = workloads.write_inputs(workload, seed, size, work / "in")
    return {"workload": workload, "inputs": inputs, "out": str(work / "out")}


def oracle_gate(workload: str, seed: int, size, work: Path) -> bool:
    """Run the reduced instance through the CLI and compare with the
    oracle."""
    spec = instance_spec(workload, seed, size, work)
    out, inputs = Path(spec["out"]), spec["inputs"]
    if workload == "check_house":
        doc = load_document(_read(inputs["ruleset"]))
        _, stdout = run_cli(["check", "--ruleset", inputs["ruleset"]])
        return (static_matches_oracle(doc, stdout)
                and static_covers_dynamic(doc, stdout,
                                          _read(inputs["trace"])))
    invoke(spec)
    if workload == "simulate_suite":
        return simulate_logs_match_oracle(out)
    doc = load_document(_read(inputs["ruleset"]))
    return detector_matches_oracle(doc, _read(inputs["trace"]),
                                   _read(out / "conflicts.csv"))


def measured_gate(workload: str, spec: dict) -> bool:
    """Compare the last measured invocation's output with the oracle where
    that is affordable: the monitor log's first ticks, every simulate log.
    (``oracle_static`` on the measured 150-rule building would take longer
    than the run.)"""
    out, inputs = Path(spec["out"]), spec["inputs"]
    if workload == "simulate_suite":
        return simulate_logs_match_oracle(out)
    doc = load_document(_read(inputs["ruleset"]))
    return detector_matches_oracle(doc, _read(inputs["trace"]),
                                   _read(out / "conflicts.csv"),
                                   PREFIX_TICKS)


def reference_digest(workload: str, work: Path) -> str:
    spec = instance_spec(workload, REFERENCE_SEED,
                         workloads.REDUCED[workload], work)
    return invoke(spec)["digest"]


def reference_gate(workload: str, work: Path) -> bool:
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    return reference_digest(workload, work) == want


def record_reference(work: Path) -> None:
    REFERENCE.write_text(json.dumps(
        {w: reference_digest(w, work / w) for w in workloads.WORKLOADS},
        indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 bench/gate.py --record")
    import tempfile
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        record_reference(Path(tmp))
