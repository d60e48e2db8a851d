"""Seeded end-to-end benchmark of the tapcheck CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload monitor_scale --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, measures its ``tapcheck``
commands for the given seconds in one single-threaded child process
(``measure.py``), checks the outputs (``gate.py``) and prints the metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Exits 0 when every output checked out, 1 when one did not, 2 when the
checkout lacks the program. See README.md for the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
NEEDED = ("src/tapcheck/cli.py", "tests/gen.py", "tests/test_acceptance.py")
# Acceptance 8 allows 1 s for a 1,000-event tick; a tick is over budget when
# it takes longer than 1 ms per event it carries.
BUDGET_S_PER_EVENT = 1e-3
CHILD_GRACE_S = 150


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default) of a sample."""
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def end_to_end(records: list, peak_rss_mb: float) -> dict:
    ops = [ms for r in records for ms in r["ops_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "op_ms_p50": percentile(ops, 0.5),
        "op_ms_p90": percentile(ops, 0.9),
        "work_per_s": (sum(r["work"] for r in records)
                       / sum(r["work_s"] for r in records)),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(records: list, traced: list) -> dict:
    names = traced[0]["layers"]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in names}
    out["cli.bytes_out"] = statistics.median(r["bytes_out"] for r in traced)
    out["detector.ticks_over_budget"] = statistics.median(
        sum(dt > n * BUDGET_S_PER_EVENT for n, dt in r.get("tick_events", ()))
        for r in records)
    out["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in records))
    return out


def measure(spec: dict, work: Path) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), str(spec_path),
         str(result_path)],
        env=env, stdout=sys.stderr, timeout=spec["seconds"] + CHILD_GRACE_S)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"measuring process exited {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes=None) -> tuple[dict, int]:
    """Measure and check one run; returns (result, exit code)."""
    import gate
    import speed
    import workloads

    size = (sizes or workloads.SIZES)[workload]
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    spans = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec = gate.instance_spec(workload, seed, size, work / "measured")
        spec.update(seconds=seconds, trace=trace, spans=str(spans))
        if workload == "simulate_suite":
            spec["ops"] = len(workloads.SCENARIOS) * size.seeds
        elif workload == "check_house":
            ruleset, _, _ = workloads.build(workload, seed, size)
            n = len(ruleset.rules)
            spec.update(ops=1, rule_pairs=n * (n - 1) // 2)
        else:
            ruleset, cfg, events = workloads.build(workload, seed, size)
            spec.update(ops=len({e.time for e in events}),
                        horizon=cfg.horizon)
        started = perf_counter()
        child = measure(spec, work)
        records, traced = child["records"], child["traced"]
        print(f"measured {len(records)} + {len(traced)} traced invocation(s)"
              f" in {perf_counter() - started:.1f} s", file=sys.stderr)
        if "speed_sample_ms" in child:
            print(f"speedometer: median sample {child['speed_sample_ms']:.3f}"
                  " ms; timings are scaled to a sample of"
                  f" {speed.REF_S * 1000:.3f} ms", file=sys.stderr)
        started = perf_counter()

        runs = records + traced
        first = runs[0]["digest"] if runs else None
        bad = [r for r in runs
               if not r["exit_ok"] or r["digest"] != first]
        checks = {
            "repeatable": bool(runs) and not bad and not child["errors"],
            "reference": gate.reference_gate(workload, work / "reference"),
        }
        if workload != "check_house":
            checks["measured_oracle"] = gate.measured_gate(workload, spec)
        if workload != "simulate_suite":  # every measured log is checked
            checks["reduced_oracle"] = gate.oracle_gate(
                workload, seed, workloads.REDUCED[workload], work / "reduced")
        for name, ok in checks.items():
            print(f"gate {name}: {'ok' if ok else 'FAILED'}", file=sys.stderr)
        print(f"gate took {perf_counter() - started:.1f} s", file=sys.stderr)
        attempted = spec["ops"] * len(runs) + child["errors"] + len(checks)
        failed = (spec["ops"] * len(bad) + child["errors"]
                  + sum(not ok for ok in checks.values()))
        good = [r for r in records if r not in bad]
        if not good or (trace and not traced):
            raise RuntimeError("no invocation produced verified output")
        if trace:
            metrics = per_layer(good, traced)
            metrics["gate.checks"] = len(checks)
            metrics["gate.error_rate"] = failed / attempted
        else:
            metrics = end_to_end(good, child["peak_rss_mb"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a tapcheck checkout, missing {missing}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    result, code = run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
