"""Self-test of the benchmark: ``python3 bench/selftest.py`` from the root
of a checkout; exits 0 when every check passes.

* Every workload runs at a tiny size, untraced and traced, and its result
  line carries exactly the metrics ``BENCHMARK.json`` declares.
* The speedometer scales a span by the reference sample time over the
  samples taken during it, and its clock leaves out the time it samples.
* Deliberately corrupted outputs are caught: a conflict log with a row
  dropped, ``check`` output with a finding dropped, a simulate conflict log
  with a kind changed, and a CLI whose rows are altered (which the pinned
  reference digests must catch).
"""

import json
import sys
import tempfile
from pathlib import Path

import run as bench_run
import workloads
import gate
from measure import run_cli
from speed import REF_S, Speedometer
from tapcheck import cli
from tapcheck.parsing import load_document
from tracer import patched

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text("utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_schema(failures: list) -> None:
    for workload in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, code = bench_run.run(workload, 0, 0, trace,
                                         sizes=workloads.TINY)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            if set(result) != RESULT_KEYS:
                failures.append(f"{label}: result keys {sorted(result)}")
            if got != want:
                failures.append(f"{label}: metrics differ from BENCHMARK.json:"
                                f" {sorted(set(got) ^ set(want))}")
            if not result["correct"] or code != 0 or result["attempted"] < 1:
                failures.append(f"{label}: not correct")
            print(f"schema {label}: {len(got)} metrics, "
                  f"attempted {result['attempted']}")


def check_speedometer(failures: list) -> None:
    speed = Speedometer()
    speed.samples = [(t / 10, 2 * REF_S) for t in range(10)]
    if abs(speed.at_reference(0.0, 0.9) - 0.45) > 1e-9:
        failures.append("speedometer: a span sampled at half the reference"
                        " speed is not halved")
    if abs(speed.at_reference(0.5, 0.51) - 0.005) > 1e-9:
        failures.append("speedometer: a short span is not scaled by its"
                        " nearest samples")
    speed = Speedometer()
    with speed.running():
        start = speed.clock()
        speed._sample(None, None)
        gap = speed.clock() - start
    if not speed.spent > 0 or not 0 <= gap < speed.spent:
        failures.append("speedometer: sampling time is not left out of its"
                        " clock")
    print("speedometer checks done")


def _drop_last_row(path: Path) -> None:
    lines = path.read_text("utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", "utf-8")


def check_corruption(failures: list, work: Path) -> None:
    # Monitor: a conflict log missing one row no longer equals the oracle.
    spec = gate.instance_spec("monitor_scale", 0,
                              workloads.TINY["monitor_scale"], work / "mon")
    rc, _ = run_cli(["monitor", "--ruleset", spec["inputs"]["ruleset"],
                     "--trace", spec["inputs"]["trace"], "--out", spec["out"]])
    log = Path(spec["out"]) / "conflicts.csv"
    doc = load_document(Path(spec["inputs"]["ruleset"]).read_text("utf-8"))
    trace_text = Path(spec["inputs"]["trace"]).read_text("utf-8")
    before = gate.detector_matches_oracle(doc, trace_text,
                                          log.read_text("utf-8"))
    _drop_last_row(log)
    after = gate.detector_matches_oracle(doc, trace_text,
                                         log.read_text("utf-8"))
    if rc != 1 or not before or after:
        failures.append("monitor: dropped conflict row not caught")

    # Check: stdout with one finding removed no longer equals the oracle.
    spec = gate.instance_spec("check_house", 0,
                              workloads.TINY["check_house"], work / "chk")
    _, stdout = run_cli(["check", "--ruleset", spec["inputs"]["ruleset"]])
    doc = load_document(Path(spec["inputs"]["ruleset"]).read_text("utf-8"))
    finding = next(line for line in stdout.splitlines()
                   if line.startswith("  "))
    corrupted = stdout.replace(finding + "\n", "", 1)
    if (not gate.static_matches_oracle(doc, stdout)
            or gate.static_matches_oracle(doc, corrupted)):
        failures.append("check: dropped finding not caught")

    # Simulate: a conflict log row with its kind changed is caught.
    out = work / "sim"
    run_cli(["simulate", "--scenario", "S5", "--seed", "0", "--out",
             str(out / "S5")])
    ok_before = gate.simulate_logs_match_oracle(out)
    log = out / "S5" / "conflicts_0.csv"
    lines = log.read_text("utf-8").splitlines()
    row = lines[1].split(",")
    row[1] = "C2" if row[1] != "C2" else "C1"
    log.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n",
                   "utf-8")
    if not ok_before or gate.simulate_logs_match_oracle(out):
        failures.append("simulate: changed conflict kind not caught")

    # Reference digests: a CLI that writes altered rows fails the gate.
    original = cli.format_conflict_row
    with patched([(cli, "format_conflict_row",
                   lambda fn: lambda c: original(c).upper())]):
        caught = not gate.reference_gate("monitor_scale", work / "ref")
    if not caught or not gate.reference_gate("monitor_scale", work / "ref2"):
        failures.append("reference digest: altered CLI output not caught")
    print("corruption checks done")


def main() -> int:
    failures: list[str] = []
    check_speedometer(failures)
    check_schema(failures)
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        check_corruption(failures, Path(tmp))
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
