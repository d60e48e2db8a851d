"""Measured part of one benchmark run, executed in its own process.

Usage: ``python3 bench/measure.py SPEC.json RESULT.json``. The spec names
the workload, its input files, an output directory, the seconds to measure
and whether to trace. The process repeats the workload's ``tapcheck``
commands in-process through ``tapcheck.cli.main`` until the time is up and
writes one record per invocation, so that the parent can verify outputs
and derive metrics. Untraced, it samples the machine's speed meanwhile
(``speed.py``) and reports the timings at a reference speed. It never
reads anything but its inputs.
"""

import gc
import hashlib
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from tapcheck import cli
from speed import Speedometer
from tracer import Probes, Tracer


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def simulate_outputs(out: Path) -> list[Path]:
    return sorted([*out.glob("*/summary.csv"), *out.glob("*/conflicts_*.csv")])


def invoke(spec: dict, probes: Probes | None = None,
           clock=perf_counter) -> dict:
    """Run the workload's commands once; returns the invocation's span on
    ``clock`` and a digest of the byte-stable outputs."""
    workload, inputs, out = spec["workload"], spec["inputs"], Path(spec["out"])
    stdout = ""
    codes = []
    start = clock()
    if workload == "simulate_suite":
        for scenario in workloads.SCENARIOS:
            if probes is not None:
                probes.command_starts.append(len(probes.bundle))
            rc, text = run_cli(["simulate", "--scenario", scenario,
                                "--seed", str(inputs["seed"]),
                                "--seeds", str(inputs["seeds"]),
                                "--out", str(out / scenario)])
            codes.append(rc)
            stdout += text
        files = simulate_outputs(out)
    elif workload == "check_house":
        rc, stdout = run_cli(["check", "--ruleset", inputs["ruleset"]])
        codes.append(rc)
        files = []
    else:
        rc, stdout = run_cli(["monitor", "--ruleset", inputs["ruleset"],
                              "--trace", inputs["trace"], "--out", str(out)])
        codes.append(rc)
        files = [out / "conflicts.csv"]
    end = clock()
    blobs = [stdout.encode()] if workload == "check_house" else [
        f.read_bytes() for f in files]
    return {
        "wall_s": end - start, "span": (start, end),
        "exit_ok": all(rc in (0, 1) for rc in codes),
        "digest": digest(*blobs),
        "bytes_out": len(stdout.encode()) + sum(f.stat().st_size
                                                for f in files),
    }


def untraced(spec: dict, speed: Speedometer | None = None) -> dict:
    """One invocation under the end-to-end probes, its timings at the
    speedometer's reference speed (as measured without one). ``ops_ms``
    holds the unit-operation latencies: steady-state ticks for monitor, the
    static check for check, and the whole suite for simulate."""
    if speed is None:
        probes, dur = Probes(), (lambda start, end: end - start)
    else:
        probes, dur = Probes(speed.clock), speed.at_reference
    with probes.installed():
        rec = invoke(spec, probes, probes.clock)
    rec["wall_s"] = dur(*rec["span"])
    workload = spec["workload"]
    if workload == "simulate_suite":
        firsts = [probes.bundle[i] for i in probes.command_starts
                  if i < len(probes.bundle)]
        rec["setup_s"] = sum(dur(*span) for span in firsts)
        rec["ops_ms"] = [rec["wall_s"] * 1000]
        rec["work"] = probes.arm_ticks
        rec["work_s"] = rec["wall_s"]
    elif workload == "check_house":
        static_s = [dur(*span) for span in probes.static]
        rec["setup_s"] = sum(dur(*span) for span in probes.load)
        rec["ops_ms"] = [dt * 1000 for dt in static_s]
        rec["work"] = spec["rule_pairs"]
        rec["work_s"] = sum(static_s)
    else:
        ticks = [(tick, n, dur(*span)) for tick, n, span in probes.ticks]
        rec["setup_s"] = sum(dur(*span)
                             for span in probes.load + probes.parse_trace)
        rec["ops_ms"] = [dt * 1000 for tick, _, dt in ticks
                         if tick >= spec["horizon"]]
        rec["work"] = sum(n for _, n, _ in ticks)
        rec["work_s"] = sum(dt for _, _, dt in ticks)
        rec["tick_events"] = [(n, dt) for _, n, dt in ticks]
    return rec


def repeat(spec: dict, speed: Speedometer | None) -> dict:
    """Invoke the workload's commands until ``seconds`` have passed."""
    seconds, trace = spec["seconds"], spec["trace"]
    records, traced = [], []
    first_tracer = None
    errors = 0
    start = perf_counter()
    while errors < 3:
        # Stop before an invocation that would, at the mean pace so far,
        # end past ``seconds``, once the records suffice.
        elapsed = perf_counter() - start
        done = len(records) + len(traced) + errors
        over = done and elapsed * (done + 1) / done > seconds
        if trace:
            # Alternate untraced and traced invocations, so the overhead
            # figure compares invocations made under the same conditions.
            if over and records and traced:
                break
            traced_turn = len(traced) < len(records)
        else:
            if over and enough(spec, records):
                break
            traced_turn = False
        # Start every invocation from a collected heap, as a fresh process
        # would, rather than with the garbage of the one before.
        gc.collect()
        try:
            if traced_turn:
                tracer = Tracer()
                with tracer.installed():
                    rec = invoke(spec)
                rec["layers"] = tracer.layer_metrics()
                first_tracer = first_tracer or tracer
                traced.append(rec)
            else:
                records.append(untraced(spec, speed))
        except Exception:
            # Keep measuring; the parent counts the failure.
            traceback.print_exc()
            errors += 1
    if first_tracer is not None:
        first_tracer.dump(Path(spec["spans"]))
    return {"records": records, "traced": traced, "errors": errors}


def main(spec_path: str, result_path: str) -> None:
    """Measure with tracing, or untraced at reference speed. The peak
    memory excludes the speedometer's buffer."""
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if spec["trace"]:
        result = repeat(spec, None)
        footprint_mb = 0.0
    else:
        speed = Speedometer()
        with speed.running():
            result = repeat(spec, speed)
        footprint_mb = speed.footprint_mb
        result["speed_sample_ms"] = speed.median_sample_s() * 1000
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = peak_kb / 1024 - footprint_mb
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


def enough(spec: dict, records: list) -> bool:
    """Three invocations for the set-up median, and for monitor at least
    100 timed steady-state ticks for the p90."""
    if len(records) < 3:
        return False
    if spec["workload"].startswith("monitor"):
        return sum(len(r["ops_ms"]) for r in records) >= 100
    return True


if __name__ == "__main__":
    main(*sys.argv[1:])
