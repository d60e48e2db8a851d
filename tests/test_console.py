"""The ``tapcheck`` command end to end, in process through ``cli.main``:
exit codes, the one ``error:`` line of an input error, the files written
or left absent. The console entry, ``sys.exit(main())``, runs in a child
interpreter. Outputs that must not hang on the hash seed are compared
across two fresh interpreters, one per seed."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gen import dense_trace, trace_text
from tapcheck.cli import main
from tapcheck.parsing import load_document
from tapcheck.scenarios import fixture_text
from tapcheck.simulator import SERIES_FIELDS

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
FIXTURE_DIR = SRC / "tapcheck" / "fixtures"
HOUSE = fixture_text("house")


def edited(text: str, old: str, new: str) -> str:
    """``text`` with every ``old`` made ``new``; ``old`` must be there."""
    assert old in text
    return text.replace(old, new)


def run(capsys, *argv):
    """``tapcheck argv`` in process: (exit code, stdout, stderr)."""
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    out, err = capsys.readouterr()
    return code, out, err


# A lamp in the attic, which is no house room.
ATTIC = """\
scenario: {id: attic_lamp, horizon: 20}
registry:
  locations: [hall, attic]
  controllers: [app]
  sensors:
    - {id: tap1, kind: lamp_cmd, unit: cmd, location: hall, range: [0, 1]}
  actuators:
    - {id: lamp1, kind: light, location: attic, actions: ['on', 'off']}
  features: [luminance@attic]
rules:
  - id: r_tap
    controller: app
    trigger: {sensor_kind: lamp_cmd, comparator: '==', threshold: 1}
    action: {actuator: lamp1, action: 'on', affected_features: [luminance@attic]}
house:
  rooms: [{id: hall}]
sources: []
"""
# The lamp moved to the hall, and two bernoulli sources on tap1: seeds 2
# to 4 never draw both at one tick, seed 5 does at tick 17.
TWIN = (edited(edited(edited(edited(
    ATTIC, "horizon: 20}", "horizon: 50}"),
    "location: attic", "location: hall"), "@attic", "@hall"),
    "sources: []\n", "sources:\n")
    + "  - {name: a, sensor: tap1, p: 0.1}\n"
      "  - {name: b, sensor: tap1, p: 0.1}\n")

# A ruleset written out in full, and the same written with an anchor,
# aliases and a merge key.
EXPANDED = """\
registry:
  locations: [room1]
  controllers: [ctrl]
  sensors:
    - {id: t1, kind: temperature, unit: F, location: room1}
  actuators:
    - {id: th1, kind: thermostat, location: room1, actions: [heat, cool]}
  features: [temperature@room1]
rules:
  - id: r_heat
    controller: ctrl
    trigger: {sensor_kind: temperature, comparator: '<', threshold: 65}
    action: {actuator: th1, action: heat, affected_features: [temperature@room1]}
  - id: r_cool
    controller: ctrl
    trigger: {sensor_kind: temperature, comparator: '<', threshold: 65}
    action: {actuator: th1, action: cool, affected_features: [temperature@room1]}
"""
ANCHORED = """\
registry:
  locations: [room1]
  controllers: [ctrl]
  sensors:
    - {id: t1, kind: temperature, unit: F, location: room1}
  actuators:
    - {id: th1, kind: thermostat, location: room1, actions: [heat, cool]}
  features: &room1 [temperature@room1]
rules:
  - &heat
    id: r_heat
    controller: ctrl
    trigger: {sensor_kind: temperature, comparator: '<', threshold: 65}
    action: {actuator: th1, action: heat, affected_features: *room1}
  - <<: *heat
    id: r_cool
    action: {actuator: th1, action: cool, affected_features: *room1}
"""

# Enforcement on: rival controllers drive one lamp from one bernoulli
# tap, so each tap is a C1 whose later action is dropped.
RIVAL_LAMP = """\
scenario: {id: rival_lamp, horizon: 200, detector: on}
registry:
  locations: [hall]
  controllers: [app, voice]
  sensors:
    - {id: tap1, kind: lamp_cmd, unit: cmd, location: hall, range: [0, 1]}
  actuators:
    - {id: lamp1, kind: light, location: hall, actions: ['on', 'off']}
  features: [luminance@hall]
rules:
  - id: r_app
    controller: app
    trigger: {sensor_kind: lamp_cmd, comparator: '==', threshold: 1}
    action: {actuator: lamp1, action: 'on', affected_features: [luminance@hall]}
  - id: r_voice
    controller: voice
    trigger: {sensor_kind: lamp_cmd, comparator: '==', threshold: 1}
    action: {actuator: lamp1, action: 'off', affected_features: [luminance@hall]}
house:
  rooms: [{id: hall}]
sources:
  - {name: tap, sensor: tap1, p: 0.3}
"""
# Two bad dependency edges in place of one pair, three-name edges caught
# by the graph's field check and self-loops by its walk over the edges:
# each error names the first edge in sorted order, not in the set's hash
# order.
_EDGE = "\n  - [temperature@corridor, temperature@room1]\n"
BAD_EDGES = {
    "three_names": (
        edited(HOUSE, _EDGE, "\n  - [a, b, c]\n  - [b, c, a]\n"),
        "error: dependency graph edges entry ('a', 'b', 'c') must be a pair "
        "of names, not ('a', 'b', 'c')\n"),
    "self_loops": (
        edited(HOUSE, _EDGE, "\n  - [temperature@room1, temperature@room1]"
               "\n  - [temperature@corridor, temperature@corridor]\n"),
        "error: self-loop on feature 'temperature@corridor'\n"),
}


class TestRuns:
    def test_simulate_then_report(self, tmp_path, capsys):
        out = tmp_path / "s5"
        assert run(capsys, "simulate", "--scenario", "S5",
                   "--out", out)[0] == 1
        assert run(capsys, "report", "--out", out)[0] == 1

    def test_feature_trace_header_and_rows(self, tmp_path, capsys):
        out = tmp_path / "s3"
        assert run(capsys, "simulate", "--scenario", "S3", "--seeds", "1",
                   "--out", out)[0] == 1
        [trace] = out.glob("trace_*.csv")
        text = trace.read_text(encoding="utf-8")
        assert text.split("\n", 1)[0] == "tick,room," + ",".join(
            SERIES_FIELDS)
        assert text.count("\n") == 1501

    def test_anchors_aliases_and_merge_keys_read_as_written_out(
            self, tmp_path, capsys):
        outputs = []
        for name, text in (("expanded", EXPANDED), ("anchored", ANCHORED)):
            doc = tmp_path / f"{name}.yaml"
            doc.write_text(text, encoding="utf-8")
            code, out, err = run(capsys, "check", "--ruleset", doc)
            assert (code, err) == (1, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]


def console(*argv: str) -> subprocess.CompletedProcess:
    """``python -m tapcheck.cli argv`` in a fresh interpreter, which ends
    through ``sys.exit(main())`` as the installed console script does."""
    return subprocess.run(
        [sys.executable, "-m", "tapcheck.cli", *argv], capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))


class TestConsoleEntry:
    def test_usage_error_exits_2_with_one_line(self):
        proc = console("check")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: the following arguments are required: "
                   "--ruleset\n")

    def test_help_exits_0_with_nothing_on_stderr(self):
        proc = console("--help")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: tapcheck ")


@pytest.mark.parametrize("text,message", [
    (edited(HOUSE, "location_filter", "locaton_filter"),
     "unknown trigger key 'locaton_filter' (at rules[0].trigger)"),
    (edited(HOUSE, "actuator: light3", "actuator: light9"),
     "rule 'r_light_on_motion' references undeclared actuator 'light9'"),
    (edited(HOUSE, "location: room2, range: [0, 100]}",
            "location: room2, range: [5, 1]}"),
     "sensor 'hum2' range must be two finite numbers with low < high, "
     "not (5, 1)"),
    (edited(HOUSE, "threshold: 66,", "threshold: abc,"),
     "rule 'r_warm_corridor' trigger.threshold must be a number, not 'abc'"),
    ("registry: [\n  oops\n",
     "invalid YAML: expected ',' or ']', but got '<stream end>' "
     "(line 3, column 1)"),
    (edited(EXPANDED, "ctrl", '"ctrl,2"'),
     "controller 'ctrl,2' must hold no comma or line break"),
], ids=["misspelled_trigger_key", "undeclared_actuator", "reversed_range",
        "text_threshold", "unclosed_bracket", "controller_comma"])
def test_bad_ruleset_is_one_error_line(text, message, tmp_path, capsys):
    doc = tmp_path / "bad.yaml"
    doc.write_text(text, encoding="utf-8")
    assert run(capsys, "check", "--ruleset", doc) == (
        2, "", f"error: {message}\n")


@pytest.mark.parametrize("text,flags,message", [
    (edited(ATTIC, "actuator: lamp1", "actuator: lamp9"), [],
     "rule 'r_tap' references undeclared actuator 'lamp9'"),
    (TWIN, ["--seed", "2", "--seeds", "4"],
     "sensor 'tap1' emits twice at tick 17"),
    (edited(TWIN, "name: a, sensor: tap1, p: 0.1}",
            "name: a, sensor: tap1, p: abc}"), [],
     "source 'a' p must be a number, not 'abc'"),
    (edited(TWIN, "name: a, sensor: tap1, p: 0.1}",
            "name: a, sensor: tap1, p: 0.1, mode: bernouli}"), [],
     "source 'a' mode must be one of ('bernoulli', 'cov', 'clock', "
     "'script'), not 'bernouli'"),
], ids=["undeclared_actuator", "two_readings_at_one_tick", "text_p",
        "misspelled_mode"])
def test_bad_scenario_is_one_error_line_and_no_files(text, flags, message,
                                                     tmp_path, capsys):
    doc = tmp_path / "bad.yaml"
    doc.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run(capsys, "simulate", "--scenario", doc, *flags,
               "--out", out) == (2, "", f"error: {message}\n")
    assert not out.exists()


HASH_SEEDS = ("0", "12345")


def under_each_hash_seed(script: str, *args: str) -> list[str]:
    """Run ``python -c script *args`` in one fresh interpreter per seed of
    ``HASH_SEEDS``, with tapcheck and the test helpers importable. Returns
    each child's stdout; a child that fails fails the test."""
    outs = []
    for seed in HASH_SEEDS:
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, PYTHONHASHSEED=seed,
                     PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)])))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return outs


def run_seeded_commands(inputs: str, root: str) -> None:
    """Run the hash-seed comparison's commands in ``<root>/<hash seed>``,
    with relative output paths so the printed lines match across seeds.
    Each command's stdout and stderr go to ``<name>.stdout`` and
    ``<name>.stderr`` there, and its exit code to a line of ``exits.txt``."""
    inputs = Path(inputs)
    out = Path(root) / os.environ["PYTHONHASHSEED"]
    out.mkdir(parents=True)
    os.chdir(out)
    exits = []

    def command(name, *argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            exits.append(f"{name} {main([str(arg) for arg in argv])}\n")
        Path(f"{name}.stdout").write_text(stdout.getvalue(), "utf-8")
        Path(f"{name}.stderr").write_text(stderr.getvalue(), "utf-8")

    command("s3", "simulate", "--scenario", "S3", "--seeds", "1",
            "--out", "s3")
    [events] = Path("s3").glob("events_*.csv")
    command("s3_monitor", "monitor", "--ruleset", "s3/ruleset.yaml",
            "--trace", events, "--out", "s3_monitor")
    # A pair-heavy stream: the detector's per-stream memo of policy rows
    # fills from hash-ordered buckets.
    command("house_monitor", "monitor", "--ruleset", FIXTURE_DIR /
            "house.yaml", "--trace", inputs / "house_trace.csv",
            "--out", "house_monitor")
    # Static analysis fills its memos and buckets from hash-ordered sets.
    for fixture in sorted(FIXTURE_DIR.glob("*.yaml")):
        command(f"check_{fixture.stem}", "check", "--ruleset", fixture)
    # S7's clock sensor reports every tick, so C7 walks a full window at
    # each tick.
    command("s7", "simulate", "--scenario", "S7", "--seeds", "2",
            "--out", "s7")
    for seed in (0, 1):
        command(f"s7_monitor_{seed}", "monitor", "--ruleset",
                "s7/ruleset.yaml", "--trace", f"s7/events_{seed}.csv",
                "--out", f"s7_monitor_{seed}")
    command("rival", "simulate", "--scenario", inputs / "rival.yaml",
            "--seeds", "2", "--out", "rival")
    for name in BAD_EDGES:
        command(name, "check", "--ruleset", inputs / f"{name}.yaml")
    Path("exits.txt").write_text("".join(exits), "utf-8")


def tree(root: Path) -> dict[str, bytes]:
    """Each file under ``root``, by its relative path, with its bytes."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestHashSeed:
    """What ``monitor``, ``check`` and ``simulate`` write, byte for byte,
    and each exit code, do not hang on the hash seed."""

    def test_outputs_equal_under_two_hash_seeds(self, tmp_path):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        house = load_document(HOUSE).ruleset
        (inputs / "house_trace.csv").write_text(
            trace_text(dense_trace(house, 2)), encoding="utf-8")
        (inputs / "rival.yaml").write_text(RIVAL_LAMP, encoding="utf-8")
        for name, (text, _) in BAD_EDGES.items():
            (inputs / f"{name}.yaml").write_text(text, encoding="utf-8")
        assert under_each_hash_seed(
            "import sys\n"
            "from test_console import run_seeded_commands\n"
            "run_seeded_commands(*sys.argv[1:])\n",
            str(inputs), str(tmp_path)) == ["", ""]
        trees = [tree(tmp_path / seed) for seed in HASH_SEEDS]
        assert trees[0] == trees[1]
        files = trees[0]
        exits = dict(line.split() for line in
                     files["exits.txt"].decode().splitlines())
        checks = {name: exits.pop(name) for name in list(exits)
                  if name.startswith("check_")}
        assert len(checks) == len(list(FIXTURE_DIR.glob("*.yaml")))
        assert set(checks.values()) <= {"0", "1"}
        assert checks["check_house"] == "1"
        assert exits == {"s3": "1", "s3_monitor": "1", "house_monitor": "1",
                         "s7": "1", "s7_monitor_0": "1", "s7_monitor_1": "1",
                         "rival": "1", "three_names": "2",
                         "self_loops": "2"}
        assert {name: text for name, text in files.items()
                if name.endswith(".stderr") and text} == {
            f"{name}.stderr": error.encode()
            for name, (_, error) in BAD_EDGES.items()}
        # Both seeds' runs drop actions.
        header, *rows = files["rival/summary.csv"].decode().splitlines()
        column = header.split(",").index("suppressed_actions")
        assert [int(row.split(",")[column]) > 0 for row in rows
                if not row.startswith("mean,")] == [True, True]

    def test_frozenset_entry_named_alike_under_any_hash_seed(self):
        # The record on its own, built in code: the entry the error names
        # does not hang on the set's order either.
        script = ("from tapcheck.model import FeatureDependencyGraph as G\n"
                  "try:\n"
                  "    G(nodes=frozenset('abc'), edges=frozenset({\n"
                  "        ('a', 'b', 'c'), ('b', 'c', 'a')}))\n"
                  "except Exception as exc:\n"
                  "    print(type(exc).__name__, exc)\n")
        assert set(under_each_hash_seed(script)) == {
            "InvalidConfigError dependency graph edges entry ('a', 'b', "
            "'c') must be a pair of names, not ('a', 'b', 'c')\n"}

    def test_first_of_many_frozenset_faults_named_alike(self):
        # Bad lengths and a bad name inside a pair, among good edges: the
        # error names the first bad edge as text sorts, nested path and
        # all, whatever order the set holds them in.
        script = ("from tapcheck.model import FeatureDependencyGraph as G\n"
                  "edges = {(c, d) for c in 'pqrs' for d in 'tuvw'}\n"
                  "edges |= {('b', 'c', 'a'), ('a', ''), ('c', 'a', 'b'),\n"
                  "          ('n',), ('z', 'y', 'x', 'w')}\n"
                  "try:\n"
                  "    G(nodes=frozenset('abc'), edges=frozenset(edges))\n"
                  "except Exception as exc:\n"
                  "    print(type(exc).__name__, exc)\n")
        assert set(under_each_hash_seed(script)) == {
            "InvalidConfigError dependency graph edges entry ('a', '')[1] "
            "must be a non-empty string, not ''\n"}
