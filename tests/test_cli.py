"""Command-line interface: exit codes, file formats, cross-command
consistency."""

import hashlib
import io
import math
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gen import FIXTURES, dense_trace, trace_text
from tapcheck import cli, parsing, scenarios
from tapcheck.cli import CONFLICT_HEADER, main
from tapcheck.detector import ConflictKind
from tapcheck.errors import (
    ParseError,
    SimulationError,
    TapcheckError,
    TraceError,
)
from tapcheck.parsing import load_document
from tapcheck.scenarios import fixture_text
from tapcheck.simulator import (
    HouseModel,
    RoomState,
    Scenario,
    SourceSpec,
    TraceReport,
)
from tapcheck.static import static_check

# YAML's indicators and whitespace, plus characters YAML forbids or treats
# specially, for character-level mutations of a document.
MUTATION_ALPHABET = list("\t?:{}[],\x00\ufeff -#'\"|>&*!\n") + ["a", "1"]
# CSV separators, number syntax and names the simulated logs use, for
# mutations of a trace or a conflict log.
CSV_ALPHABET = list(",\n\r\t .-+e019\x00\ufeff\"") + [
    "nan", "inf", "1e999", "smoke1", "room2", "==", "C7", "C9"]


def mutated(data, text, alphabet, lines=False):
    """``text`` with a few characters inserted, deleted or replaced, drawn
    from ``alphabet``. With ``lines`` the header line is kept, and the rows
    are first cut to the opening ones, and maybe one row copied to another
    place, so row order, repeats and the end of the file vary too."""
    header = ""
    if lines:
        header, *rows = text.splitlines(keepends=True)
        rows = rows[:data.draw(st.integers(1, min(len(rows), 40)))]
        if data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(0, len(rows))),
                        data.draw(st.sampled_from(rows)))
        text = "".join(rows)
    text = list(text)
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        at = data.draw(st.integers(0, len(text) - 1))
        char = data.draw(st.sampled_from(alphabet))
        if op == "insert":
            text.insert(at, char)
        elif op == "delete":
            del text[at]
        else:
            text[at] = char
    return header + "".join(text)


def exits_cleanly(argv):
    """Run the CLI: it passes or finds conflicts with nothing on stderr, or
    reports an input error on exactly one line. It never ends in a
    traceback."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """The output directories of one S3 and one S5 run at seed 1: their
    ruleset, event trace and conflict log."""
    out = tmp_path_factory.mktemp("simulated")
    with redirect_stdout(io.StringIO()):
        for sid in ("S3", "S5"):
            main(["simulate", "--scenario", sid, "--seed", "1",
                  "--out", str(out / sid)])
    return out


CLEAN_DOC = """
registry:
  locations: [room1]
  controllers: [home]
  sensors:
    - {id: t1, kind: temperature, unit: F, location: room1}
  actuators:
    - {id: th1, kind: thermostat, location: room1, actions: [heat, "off"]}
  features: [temperature@room1]
rules:
  - id: r1
    controller: home
    trigger: {sensor_kind: temperature, comparator: "<", threshold: 65}
    action: {actuator: th1, action: heat, affected_features: [temperature@room1]}
"""


@pytest.fixture
def clean_ruleset(tmp_path):
    path = tmp_path / "clean.yaml"
    path.write_text(CLEAN_DOC, encoding="utf-8")
    return path


@pytest.fixture
def alarm_ruleset(tmp_path):
    path = tmp_path / "alarm.yaml"
    path.write_text(fixture_text("s5_alarm"), encoding="utf-8")
    return path


class TestCheck:
    def test_clean_ruleset_exits_zero(self, clean_ruleset, capsys):
        assert main(["check", "--ruleset", str(clean_ruleset)]) == 0
        out = capsys.readouterr().out
        assert "0 potential conflict(s)" in out

    def test_seeded_conflict_exits_one_and_names_rules(self, alarm_ruleset,
                                                       capsys):
        assert main(["check", "--ruleset", str(alarm_ruleset)]) == 1
        out = capsys.readouterr().out
        assert "C1" in out
        assert "r_alarm_leak" in out and "r_alarm_smoke" in out

    @pytest.mark.parametrize("per_write", [1, 7, 1024])
    def test_report_is_the_same_whatever_lines_go_per_write(
            self, tmp_path, capsys, monkeypatch, per_write):
        # The report goes out a chunk of lines per write; no chunk edge may
        # show in it.
        path = tmp_path / "house.yaml"
        path.write_text(fixture_text("house"), encoding="utf-8")
        doc = load_document(fixture_text("house"))
        findings = static_check(doc.ruleset, doc.config)
        want = []
        for kind in ConflictKind:
            of_kind = [f for f in findings if f.kind is kind]
            if of_kind:
                want.append(f"{kind.value}: {len(of_kind)} potential "
                            "conflict(s)")
                want += [f"  {f.rule_a} + {f.rule_b}: {f.note}"
                         for f in of_kind]
        want.append(f"{len(findings)} potential conflict(s)")
        assert len(want) > 7
        monkeypatch.setattr(cli, "_CHECK_LINES_PER_WRITE", per_write)
        assert main(["check", "--ruleset", str(path)]) == 1
        assert capsys.readouterr().out == "".join(f"{line}\n"
                                                  for line in want)

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("registry: [", encoding="utf-8")
        assert main(["check", "--ruleset", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["check", "--ruleset", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("section", [
        "detector: {overlap_window: abc}",
        "rules: 5",
        "feature_deps: 3",
        "action_relations: [[sound, 'off', opposite]]",
    ])
    def test_mistyped_section_exits_two(self, section, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        registry = CLEAN_DOC.split("rules:")[0]
        bad.write_text(f"{registry}{section}\n", encoding="utf-8")
        assert main(["check", "--ruleset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "latin.yaml"
        bad.write_bytes(b"\xff" + CLEAN_DOC.encode("utf-8"))
        assert main(["check", "--ruleset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_non_finite_threshold_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "nan.yaml"
        bad.write_text(fixture_text("s5_alarm").replace(
            "threshold: 1}", "threshold: .nan}"), encoding="utf-8")
        assert main(["check", "--ruleset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


    def test_unhashable_comparator_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "cmp.yaml"
        text = fixture_text("s5_alarm")
        assert 'comparator: "=="' in text
        bad.write_text(text.replace('comparator: "=="', "comparator: []"),
                       encoding="utf-8")
        assert main(["check", "--ruleset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "comparator must be one of" in err

    @pytest.mark.parametrize("text", [
        "registry: 0b_\n",
        "registry: 2001-13-01\n",
        "registry: 0000-01-01\n",
        "registry: !!float abc\n",
        "registry: " + "7" * 5000 + "\n",
        "registry: " + "[" * 3000 + "\n",
        fixture_text("s5_alarm").replace(
            'comparator: "=="',
            "comparator: " + "[" * 3000 + "]" * 3000, 1),
    ], ids=["binary_without_digits", "month_13", "year_0", "float_tag",
            "5000_digit_integer", "3000_open_brackets",
            "3000_deep_comparator"])
    def test_unbuildable_or_deep_document_exits_two(self, text, tmp_path,
                                                    capsys):
        # A scalar that matches an int, float or timestamp pattern but
        # cannot be built, and collections nested too deeply for PyYAML's
        # recursive composer, once ended in a traceback.
        bad = tmp_path / "bad.yaml"
        bad.write_text(text, encoding="utf-8")
        assert main(["check", "--ruleset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid YAML: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", [None, True, 2.5, "", "x", []],
                             ids=["null", "true", "float", "empty", "text",
                                  "list"])
    def test_each_house_leaf_set_to_a_value_exits_cleanly(self, value,
                                                          tmp_path):
        # One leaf of house.yaml at a time takes the value: the check
        # passes, finds conflicts, or reports an input error on one line.
        doc = yaml.safe_load(fixture_text("house"))
        leaves = [(parent, key) for parent, key, is_key
                  in _mutation_spots(doc) if not is_key]
        assert len(leaves) == 249
        path = tmp_path / "leaf.yaml"
        for parent, key in leaves:
            leaf, parent[key] = parent[key], value
            path.write_text(yaml.dump(doc, Dumper=parsing._DUMPER),
                            encoding="utf-8")
            parent[key] = leaf
            exits_cleanly(["check", "--ruleset", str(path)])

    @pytest.mark.parametrize("loader", ["libyaml", "pure"])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_fixture_exits_cleanly(self, loader, data, tmp_path,
                                           monkeypatch):
        # A few characters inserted, deleted or replaced anywhere in a
        # bundled fixture: the check passes, finds conflicts, or reports an
        # input error on one line. It never ends in a traceback. "pure" is
        # the loader tapcheck picks when PyYAML lacks libyaml.
        if loader == "pure":
            monkeypatch.setattr(parsing, "_LOADER", yaml.SafeLoader)
        text = fixture_text(data.draw(st.sampled_from(FIXTURES)))
        path = tmp_path / "mutant.yaml"
        path.write_text(mutated(data, text, MUTATION_ALPHABET),
                        encoding="utf-8")
        exits_cleanly(["check", "--ruleset", str(path)])


@pytest.fixture
def alarm_trace(tmp_path):
    # Smoke and leak read 1 at every tick: rival rules collide on the
    # alarm and each reading repeats the last.
    path = tmp_path / "trace.csv"
    path.write_text(
        "tick,sensor,kind,predicate,value,location\n" + "".join(
            f"{t},smoke1,smoke,==,1,room1\n{t},leak1,leak,==,1,room1\n"
            for t in range(12)), encoding="utf-8")
    return path


# sha256 of ``monitor``'s log on two streams, recorded before the detector
# kept its policy rows per pair of rule classes: a pair-heavy one
# (house.yaml under its dense trace at seed 2: 3,296 findings, 515 of them
# C1 to C6) and one where C7 walks a full window every tick (S7's clock at
# seed 1, whose log is the one ``simulate`` wrote, in
# ``SIMULATE_DIGESTS``).
MONITOR_DIGESTS = {
    "house":
        "4d62ce0d12587ec390b9a3aa16c16e7a1ccf6a108f55795f91f9cbb09598bbce",
    "S7": "31b70fd6822a2888a9d3774e8da7aeb7727ba76bd912bfae1289ca425a1bf678",
}


class TestMonitor:
    def test_empty_trace_summary_of_zeros(self, alarm_ruleset, tmp_path,
                                          capsys):
        trace = tmp_path / "empty.csv"
        trace.write_text("tick,sensor,kind,predicate,value,location\n",
                         encoding="utf-8")
        assert main(["monitor", "--ruleset", str(alarm_ruleset),
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "total=0" in out

    def test_duplicate_reading_logged(self, tmp_path, capsys):
        doc = tmp_path / "dup.yaml"
        doc.write_text(fixture_text("c7_duplicate"), encoding="utf-8")
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "tick,sensor,kind,predicate,value,location\n"
            "0,temp1,temperature,==,60.0,room1\n"
            "20,temp1,temperature,==,60.0,room1\n", encoding="utf-8")
        assert main(["monitor", "--ruleset", str(doc),
                     "--trace", str(trace)]) == 1
        out = capsys.readouterr().out
        assert out.count("C7") >= 1
        assert "C7=1" in out

    def test_signed_zero_readings_keep_their_sign_in_c7_rows(self, tmp_path):
        # -0.0 == 0.0, so each later reading repeats each earlier one, yet
        # a note prints the earlier reading with its own sign: a note text
        # kept per value would print one sign for both.
        doc = tmp_path / "dup.yaml"
        doc.write_text(fixture_text("c7_duplicate"), encoding="utf-8")
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "tick,sensor,kind,predicate,value,location\n"
            "0,temp1,temperature,==,-0.0,room1\n"
            "1,temp1,temperature,==,0.0,room1\n"
            "2,temp1,temperature,==,0.0,room1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["monitor", "--ruleset", str(doc), "--trace", str(trace),
                     "--out", str(out)]) == 1
        assert (out / "conflicts.csv").read_text(encoding="utf-8") == (
            f"{CONFLICT_HEADER}\n"
            "1,C7,,,e1,e2,,sensor temp1 repeated value -0 after 1 tick(s)\n"
            "2,C7,,,e1,e3,,sensor temp1 repeated value -0 after 2 tick(s)\n"
            "2,C7,,,e2,e3,,sensor temp1 repeated value 0 after 1 tick(s)\n")

    def test_byte_order_mark_before_the_header_accepted(self, tmp_path,
                                                         capsys):
        # A spreadsheet export starts with a UTF-8 byte-order mark: the
        # trace reads as without it, with the same line numbers.
        doc = tmp_path / "dup.yaml"
        doc.write_text(fixture_text("c7_duplicate"), encoding="utf-8")
        rows = ("tick,sensor,kind,predicate,value,location\n"
                "0,temp1,temperature,==,60.0,room1\n"
                "20,temp1,temperature,==,60.0,room1\n")
        for name, text in (("plain", rows), ("bom", "\ufeff" + rows)):
            trace = tmp_path / f"{name}.csv"
            trace.write_text(text, encoding="utf-8")
            assert main(["monitor", "--ruleset", str(doc), "--trace",
                         str(trace), "--out", str(tmp_path / name)]) == 1
        assert (tmp_path / "bom.csv").read_bytes().startswith(
            b"\xef\xbb\xbftick,")
        assert ((tmp_path / "bom" / "conflicts.csv").read_bytes()
                == (tmp_path / "plain" / "conflicts.csv").read_bytes())
        capsys.readouterr()
        trace = tmp_path / "bad.csv"
        trace.write_text("\ufeff" + rows + "5,temp1,temperature,==,x,room1\n",
                         encoding="utf-8")
        assert main(["monitor", "--ruleset", str(doc),
                     "--trace", str(trace)]) == 2
        assert "(line 4)" in capsys.readouterr().err
        # One mark is dropped, not two.
        with pytest.raises(TraceError, match=r"trace header .*\(line 1\)"):
            cli.parse_trace("\ufeff\ufeff" + rows,
                            load_document(fixture_text("c7_duplicate")).ruleset)

    def test_numpy_float_event_row_round_trips(self):
        ruleset = load_document(fixture_text("c7_duplicate")).ruleset
        [event] = cli.parse_trace(
            f"{cli.TRACE_HEADER}\n0,temp1,temperature,==,60.0,room1\n",
            ruleset)
        numpy_row = cli.format_event_row(
            replace(event, value=np.float64(60.5)))
        assert numpy_row == "0,temp1,temperature,==,60.5,room1"
        [back] = cli.parse_trace(f"{cli.TRACE_HEADER}\n{numpy_row}\n",
                                 ruleset)
        assert back.value == 60.5 and type(back.value) is float
        # Plain floats and ints keep their bytes.
        for value in (60.0, -0.0, 1e-05, 1e+16, 0.1 + 0.2, 60, -3):
            assert cli.format_event_row(replace(event, value=value)) == (
                f"0,temp1,temperature,==,{value!r},room1")

    def test_out_of_order_trace_names_line(self, alarm_ruleset, tmp_path,
                                           capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(
            "tick,sensor,kind,predicate,value,location\n"
            "5,smoke1,smoke,==,1,room1\n"
            "3,leak1,leak,==,1,room1\n", encoding="utf-8")
        assert main(["monitor", "--ruleset", str(alarm_ruleset),
                     "--trace", str(trace)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_two_readings_of_one_sensor_at_one_tick_exit_two(
            self, alarm_ruleset, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(
            "tick,sensor,kind,predicate,value,location\n"
            "5,smoke1,smoke,==,1,room1\n"
            "5,leak1,leak,==,1,room1\n"
            "5,smoke1,smoke,==,0,room1\n", encoding="utf-8")
        assert main(["monitor", "--ruleset", str(alarm_ruleset),
                     "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "smoke1" in err and "tick 5" in err and "line 4" in err

    def test_no_finding_outlives_its_tick(self, alarm_ruleset, alarm_trace,
                                          tmp_path, monkeypatch):
        # A finding is logged and counted as its tick ends, so at each call
        # every finding of two or more calls back is gone.
        calls = []
        detect = cli.detect_at_tick

        def recorded(*args):
            assert all(ref() is None for refs in calls[:-1] for ref in refs)
            found = detect(*args)
            calls.append([weakref.ref(c) for c in found])
            return found

        monkeypatch.setattr(cli, "detect_at_tick", recorded)
        assert main(["monitor", "--ruleset", str(alarm_ruleset),
                     "--trace", str(alarm_trace), "--out", str(tmp_path)]) == 1
        assert len(calls) == 12 and all(calls)

        doc = load_document(alarm_ruleset.read_text(encoding="utf-8"))
        window = cli.DetectionWindow(doc.config)
        rows = [CONFLICT_HEADER]
        events = cli.parse_trace(alarm_trace.read_text(encoding="utf-8"),
                                 doc.ruleset)
        for _, batch in groupby(events, key=lambda e: e.time):
            rows += [cli.format_conflict_row(c) for c in detect(
                list(batch), doc.ruleset, window, doc.config)]
        assert any(",C7," in row for row in rows)
        assert ((tmp_path / "conflicts.csv").read_text(encoding="utf-8")
                == "\n".join(rows) + "\n")

    def test_parse_trace_builds_one_signature_per_kind(self, alarm_ruleset,
                                                        alarm_trace):
        doc = load_document(alarm_ruleset.read_text(encoding="utf-8"))
        events = cli.parse_trace(alarm_trace.read_text(encoding="utf-8"),
                                 doc.ruleset)
        first = {}
        for event in events:
            assert first.setdefault(event.signature,
                                    event.signature) is event.signature
        assert len(first) == len({id(e.signature) for e in events}) == 2

    def test_unknown_sensor_rejected(self, alarm_ruleset, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(
            "tick,sensor,kind,predicate,value,location\n"
            "5,ghost,smoke,==,1,room1\n", encoding="utf-8")
        assert main(["monitor", "--ruleset", str(alarm_ruleset),
                     "--trace", str(trace)]) == 2
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize("row,message", [
        ("6,leak1,smoke,==,1,room1",
         "sensor 'leak1' is kind 'leak', not 'smoke'"),
        ("6,leak1,leak,==,1,room2",
         "sensor 'leak1' sits in 'room1', not 'room2'"),
        ("-6,leak1,leak,==,1,room1", "tick must be >= 0")])
    def test_reading_off_its_sensor_names_its_line(
            self, alarm_ruleset, tmp_path, row, message, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(
            "tick,sensor,kind,predicate,value,location\n"
            f"5,smoke1,smoke,==,1,room1\n{row}\n", encoding="utf-8")
        assert main(["monitor", "--ruleset", str(alarm_ruleset),
                     "--trace", str(trace)]) == 2
        assert capsys.readouterr().err == f"error: {message} (line 3)\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_reading_exits_two(self, alarm_ruleset, tmp_path,
                                          value, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text(
            "tick,sensor,kind,predicate,value,location\n"
            "5,smoke1,smoke,==,1,room1\n"
            f"6,leak1,leak,==,{value},room1\n", encoding="utf-8")
        assert main(["monitor", "--ruleset", str(alarm_ruleset),
                     "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and err.count("\n") == 1

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_trace_exits_cleanly(self, data, simulated, tmp_path):
        # A simulated event trace, cut, maybe with a row copied elsewhere,
        # and with a few characters changed: the row parser, the stream
        # checks and the detector's checks each end in one error line,
        # never a traceback.
        run = simulated / data.draw(st.sampled_from(["S3", "S5"]))
        text = (run / "events_1.csv").read_text(encoding="utf-8")
        path = tmp_path / "mutant.csv"
        path.write_text(mutated(data, text, CSV_ALPHABET, lines=True),
                        encoding="utf-8")
        exits_cleanly(["monitor", "--ruleset", str(run / "ruleset.yaml"),
                       "--trace", str(path)])

    @pytest.mark.parametrize("stream", sorted(MONITOR_DIGESTS))
    def test_monitor_log_matches_pinned_digest(self, stream, tmp_path):
        if stream == "house":
            ruleset = tmp_path / "house.yaml"
            ruleset.write_text(fixture_text("house"), encoding="utf-8")
            trace = tmp_path / "trace.csv"
            trace.write_text(trace_text(dense_trace(
                load_document(fixture_text("house")).ruleset, 2)),
                encoding="utf-8")
        else:
            with redirect_stdout(io.StringIO()):
                main(["simulate", "--scenario", stream, "--seed", "1",
                      "--out", str(tmp_path / "sim")])
            ruleset = tmp_path / "sim" / "ruleset.yaml"
            trace = tmp_path / "sim" / "events_1.csv"
        out = tmp_path / "out"
        with redirect_stdout(io.StringIO()):
            assert main(["monitor", "--ruleset", str(ruleset),
                         "--trace", str(trace), "--out", str(out)]) == 1
        assert hashlib.sha256((out / "conflicts.csv").read_bytes(
        )).hexdigest() == MONITOR_DIGESTS[stream]


# The simulate output files of one seed, and the sha256 of each per
# built-in scenario at seed 1.
SIMULATE_FILES = ("trace_{}.csv", "events_{}.csv", "conflicts_{}.csv",
                  "summary.csv")
SIMULATE_DIGESTS = {
    "S1": (
        "d3e80bd29abfee1ce363c39995ce68a8c41b4f5d16b9b7097f502ce4be5c45ca",
        "171867c7a99615027a2d82aa65c4c1fa764e2b20706637b7411721412d58f34d",
        "3e146e02c4c5cdcd512695e3bab519d6e35ea73fb23cd6aa89962397c1706b15",
        "ddc22fb64998d5bfdb08353e77ddf8a6f5e9190dde3621173e4d79d139c3bd93",
    ),
    "S2": (
        "dcfd688af98eff7c5206ac606242d81b4a47f2e7581349239a963336fe5fd87b",
        "c5b5941822b231655a555a14a74218699e1912fef53f07bacf0349ea433083b3",
        "fe3c052c37996bceccb0e8abf4d99c6ab95b751179f9e375d1b84741cec50b9f",
        "7ff5c589274df2303ff8cc052f44359a846cd914e376413bf98097930edd4440",
    ),
    "S3": (
        "5f291109317251a7c5d4c5e16d009b7767a39fe8945bc1c7f1d959487c9f455a",
        "f1667f7459089d676684d1c0676531fac62442eda7ca83efe239cb120dc1db18",
        "da97fd24ae323cf8618a8c7e8d5b4c0bb604a361a0e355d1e8eb6acb64b2304f",
        "26f7f5145ee49361fb02e3a1d33c61c2018b3eaef685d33f2f8718acbd3d2285",
    ),
    "S4": (
        "7247398f10118bf5c9534ef41fd3026e4573f8b3b7aa1e8216311a45131d80b9",
        "1269f3f5cd4cbe5b64a6f4e84e7b39d209d6f3cb9395510205e647c848b9a367",
        "5d2f4cfd87cff97c977485c6c13a1c7454e7b728520fb05d86778a24f7c1764c",
        "79046dbbb910414fd3eb913163c0bd7aa85e495bb04baa78b31aa46bb92c09d1",
    ),
    "S5": (
        "71ebb0afa847326195c3125fd3de4dd46f0aaffc666cb22786c341c5abbffc29",
        "94ef73d89c4ba70da40681ea0028fd4e2ad3d38ce2ed2cf4c901f4c529c89b6b",
        "055bfd1f0af2ae6aef2b36eb8b28569cb916aa84adde35cd702bb936156fe04d",
        "074907f00bfed045cb746f43533f25900298c084d034b32621ddd148e9a1c178",
    ),
    "S6": (
        "7b96f01b0fb8773cb2d9fc5c0ac0e01f8c50e03f17cffe7aaaa9b86ada97fbf8",
        "26985e49d6f7e39f7d7a5e6f0aef37ff3a8fb6e1098fc7d1c1843ef9aab243cb",
        "96ada006ebade8e404b479d17fa97596198bc91c5b85a60bf06e1a5c7c1d691e",
        "206c24568ebe1085da1295c5bdb4164f73a2eae7b679c2751cf93759c34c515a",
    ),
    "S7": (
        "b5d80580ea674884cc8ec4720e89e5bfa07881336679c8df34dc4c5c556626f9",
        "9d5244518c86d1a9ace7d0612b88a4b2aa434313b4a2f126cc90647f6ffbc438",
        "31b70fd6822a2888a9d3774e8da7aeb7727ba76bd912bfae1289ca425a1bf678",
        "10b30b30fe65db5947a6dc1ac5892cd00662ac04f0a32d08a5214e242e8115b1",
    ),
    "S8": (
        "3b12931b91b131368a1de7ffbe4688cf70b92ae172ed26f93dfef86248427e13",
        "148836570ace821d5cb3eea50efd12ba2299d0c5d2f207b9d9f835ff10fd8057",
        "eaffffe92327af61fee5764938b2160b0dc260c48a5750dc9874d554424966f4",
        "d0d63a371aaba49ea10039f4971d79e014ca2d3324963ec6b6d4b3522ef34fe6",
    ),
}


# The same files at seed 2, the benchmark's second seed, which also runs
# the paired baseline arms of S7 and S8.
SIMULATE_SEED_2_DIGESTS = {
    "S1": (
        "6f83138dc4a79b8679a938f5013c2032473c0a0cbe63f1164537647df4f80039",
        "e4552d20d9652028aecf52aec00443f4b63323b044a128947006f31122257bb1",
        "df1633000a284f66e7886b4b111b095ba3bc4a1147dc202b3e4a61761cf41b12",
        "6b7cc0e050659de30f8f1142c5e9ff7f943efa589c4a9a8b6c4456305a7c0955",
    ),
    "S2": (
        "1ea41b80d6619ecfe6d5fa26f99ea57a41c2d8bf0b3b61b900f9dbd7e0853e32",
        "d3e0cb0f63ad86dfc7029cb6d309550ca4994b003b73d0de72c3f91e67cbc619",
        "744d6ca1d3b3d108f0f22e3a38579908088d825ec5bc80915e0d660d93b97c0c",
        "f95679b810cd814d91a82838e9a2ce2e75ef66c7ae51873713ca48e6502c1df3",
    ),
    "S3": (
        "d72c2d526b7649763c631ce59e05cb90ae04ee88610ab656aa9dcd5aa2afee85",
        "0e0ff0bb6f87d3d61ad06b996b29c581ef3914d29fd3c7ab32234ef5d6f2621f",
        "da97fd24ae323cf8618a8c7e8d5b4c0bb604a361a0e355d1e8eb6acb64b2304f",
        "23a7bcd729c308b5ba702d140ccf65fb39e6657946a0aeaa7a4b8396ab68d63b",
    ),
    "S4": (
        "f36545b760b14a4248d9b84860cddf9a0dc8a1fac9e20f39b7f918876853a28d",
        "78eca95506d2337ff28a5f66f28320670613bdb99a03be2fca73718911902eb4",
        "82051dfce10325459a130040a80daf92bfcd0516ac3f0acb4bcc4729bc379a0c",
        "d292274328f22cc7e8c784b59add18255cbf822b2daad6038907391778b86ac3",
    ),
    "S5": (
        "6e8b2e8b461f848247a7a98377eb74a9d394b5f8caa348ba82ae2a4060b709a6",
        "8fd25994ba72ab8561d4aaa991b0ab1b5d86c4e6fc6b1d9dff442f57c30eb60c",
        "08f659b058e6a7bbaba152cd3d87e19dae596e7d3c613209b7f8104f9e809a81",
        "1260e7f21f99ed034bb427e57607b555ab0982634ca2e61d482255db6f7aefdf",
    ),
    "S6": (
        "f15170af681b1149827c5a0408b4e5cc2abe6f79607bc1a739a87b1df0b89d15",
        "2c6d480ea4d8f811317054f3cbc206411a5619bcd21b7ba16f896166698b48a6",
        "065ae1312b33b9c58f46c7e055aa896902447c6be39f5317bff0cd191c72445d",
        "dcf03b0dc5e14740788a3219fc45f37368a5476e1528b13164eebd5b9912e829",
    ),
    "S7": (
        "82ae905d9f0a80e597be986e09f00f6084d22bcbbd3d7f856d14adb690906b51",
        "cc5a22cda0c5183540aa26a8d09133d14b057219d42dc885f42cd1e619a854a3",
        "7e8eeb3ffc0937521be81e24a3f23b6a32fa38f8d9a8f19824b77af2c868cc34",
        "faa7523935511947c654313a16a1358daf2a52d865dbfb1c682a16e1c14e69e0",
    ),
    "S8": (
        "989fce5866c369cc5cf919c173e4376fa78ec12e275196148b8c15236360dc8e",
        "875eded9a4c2a64ee4550b61809d10b2613466a7838ced754292249644e74ed2",
        "e072a30d8d9ffc90fddc931969c683ee90e78493954480b5113797affc52bbc5",
        "200b12147e991444342da9d5c84ef0b8e61da6fc7a8b3381daf2031d760200ca",
    ),
}

# S5 and S7 with enforcement on, per seed: the sha256 of the trace, events
# and conflict logs and of a one-seed summary, then the suppressed actions
# and those suppressed as duplicates. No built-in scenario enforces.
ENFORCED_DIGESTS = {
    ("S5", 1): (
        "7b45f617144d8097cd646b58cb3b25e170a5a90b07f06aeaba034b9cb5be6b73",
        "94ef73d89c4ba70da40681ea0028fd4e2ad3d38ce2ed2cf4c901f4c529c89b6b",
        "055bfd1f0af2ae6aef2b36eb8b28569cb916aa84adde35cd702bb936156fe04d",
        "40698024cdf73851035a670b8da52728cfcb21adfcb393eccc647e38b6a43ebb",
        204, 203,
    ),
    ("S5", 2): (
        "55aedea00555487f1be7120cf096311cb515920f4a4ae8d2cc54a5f303dcb376",
        "8fd25994ba72ab8561d4aaa991b0ab1b5d86c4e6fc6b1d9dff442f57c30eb60c",
        "08f659b058e6a7bbaba152cd3d87e19dae596e7d3c613209b7f8104f9e809a81",
        "3b8ba29d9183af0878e0b0613423aa703a8beed46da5e92f252436f36852735c",
        208, 208,
    ),
    ("S7", 1): (
        "277a69af641ad515e64ca6e2d136f53327e517665e48594cf0e51690de6728a4",
        "0dc825e6687b77a15418c4dd1e65af05643df8d3ab0e6dd3a51a285c6218a993",
        "b0afcb1f4d8d0a45c8d6ffd1656f7c9432c240a747472755b563c97a74ce3d49",
        "0cb77bc08423339826a233eb1d565cfce45bfacfd47bfa6f1e1ae61552be5054",
        315, 0,
    ),
    ("S7", 2): (
        "0ed984c93b301969e92db081e1a7c72b9136bb9fda02d8f5db3714c191f5a93a",
        "226f5350f27ed7c561cee8c8c8302599961a8be6af23a0baf482e1808acf5f2d",
        "928d19323cc623acdfe66bf8bc30f5898d7de81d0a776cb79ae0f7e76ff03c0d",
        "db8bc1c3ec5f63ac1f49eb2deaabb3c115fc5ee6aaaa48d5aa08997900fb7734",
        325, 0,
    ),
}


class TestOutputFiles:
    """Every file the CLI writes appears whole or not at all, and one that
    cannot be written is an input error."""

    @pytest.mark.parametrize("command", ["monitor", "simulate"])
    def test_out_naming_a_file_exits_two(self, command, alarm_ruleset,
                                         alarm_trace, tmp_path, capsys):
        target = tmp_path / "not_a_dir"
        target.write_bytes(b"kept\n")
        argv = (["monitor", "--ruleset", str(alarm_ruleset),
                 "--trace", str(alarm_trace)] if command == "monitor"
                else ["simulate", "--scenario", "S5", "--seeds", "1"])
        capsys.readouterr()
        assert main(argv + ["--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert target.read_bytes() == b"kept\n"

    def test_failed_monitor_keeps_the_old_log(self, alarm_ruleset,
                                              alarm_trace, tmp_path,
                                              monkeypatch, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "conflicts.csv").write_bytes(b"old log\n")
        calls = []
        detect = cli.detect_at_tick

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise TapcheckError("detector failed at the third tick")
            return detect(*args)

        monkeypatch.setattr(cli, "detect_at_tick", failing)
        assert main(["monitor", "--ruleset", str(alarm_ruleset),
                     "--trace", str(alarm_trace), "--out", str(out)]) == 2
        assert len(calls) == 3
        assert "third tick" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["conflicts.csv"]
        assert (out / "conflicts.csv").read_bytes() == b"old log\n"

    def test_failed_monitor_removes_the_directories_it_made(
            self, alarm_ruleset, alarm_trace, tmp_path, monkeypatch, capsys):
        calls = []
        detect = cli.detect_at_tick

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise TapcheckError("detector failed at the third tick")
            return detect(*args)

        monkeypatch.setattr(cli, "detect_at_tick", failing)
        # An empty directory that was there before is not this run's.
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main(["monitor", "--ruleset", str(alarm_ruleset),
                     "--trace", str(alarm_trace),
                     "--out", str(kept / "new" / "sub")]) == 2
        assert len(calls) == 3
        assert "third tick" in capsys.readouterr().err
        assert kept.is_dir() and not any(kept.iterdir())

    def test_failed_simulate_keeps_finished_files(self, tmp_path,
                                                  monkeypatch, capsys):
        # The summary, written last, fails: the directory this run made
        # holds each seed's finished files, so it stays.
        write = cli._write_rows

        def failing(out, rows):
            if Path(out.name).name.startswith(".summary.csv"):
                raise TapcheckError("summary failed")
            write(out, rows)

        monkeypatch.setattr(cli, "_write_rows", failing)
        out = tmp_path / "new" / "sub"
        assert main(["simulate", "--scenario", "S5", "--seeds", "2",
                     "--out", str(out)]) == 2
        assert "summary failed" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [f"{kind}_{seed}.csv" for kind in ("conflicts", "events", "trace")
             for seed in (0, 1)] + ["ruleset.yaml"])

    def test_stdout_log_equals_out_log(self, alarm_ruleset, alarm_trace,
                                       tmp_path, capsys):
        args = ["monitor", "--ruleset", str(alarm_ruleset),
                "--trace", str(alarm_trace)]
        capsys.readouterr()
        assert main(args) == 1
        printed = capsys.readouterr().out.encode("utf-8")
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == 1
        summary = capsys.readouterr().out.encode("utf-8")
        assert [p.name for p in out.iterdir()] == ["conflicts.csv"]
        log = (out / "conflicts.csv").read_bytes()
        assert log.count(b"\n") > 12 and printed == log + summary

    @pytest.mark.parametrize("rows", [[], [""], ["a"], ["", ""],
                                      ["a", "", "b,c"]])
    def test_each_row_is_one_line(self, rows):
        for given in (rows, iter(rows)):
            out = io.StringIO()
            cli._write_rows(out, given)
            assert out.getvalue() == "".join(f"{row}\n" for row in rows)


class TestSimulate:
    def test_s1_writes_expected_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", "S1", "--seed", "3",
                     "--out", str(out)])
        assert code == 1  # seed 3 produces conflicts
        for name in ("trace_3.csv", "events_3.csv", "conflicts_3.csv",
                     "summary.csv", "ruleset.yaml"):
            assert (out / name).exists()
        trace_rows = (out / "trace_3.csv").read_text().splitlines()
        assert len(trace_rows) == 1 + 500  # header + one room x 500 ticks

    def test_unknown_scenario_exits_two(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "S99",
                     "--out", str(tmp_path / "x")]) == 2

    def test_byte_stable_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["simulate", "--scenario", "S5", "--seed", "7",
                  "--out", str(out)])
        for name in ("trace_7.csv", "events_7.csv", "conflicts_7.csv",
                     "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @staticmethod
    def file_digests(out, seed):
        return tuple(hashlib.sha256((out / name.format(seed)).read_bytes(
        )).hexdigest() for name in SIMULATE_FILES)

    @pytest.mark.parametrize("sid", sorted(SIMULATE_DIGESTS))
    def test_outputs_match_pinned_digests(self, sid, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--scenario", sid, "--seed", "1",
              "--out", str(out)])
        assert self.file_digests(out, 1) == SIMULATE_DIGESTS[sid]

    @pytest.mark.parametrize("sid", sorted(SIMULATE_SEED_2_DIGESTS))
    def test_seed_2_outputs_match_pinned_digests(self, sid, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--scenario", sid, "--seed", "2",
              "--out", str(out)])
        assert self.file_digests(out, 2) == SIMULATE_SEED_2_DIGESTS[sid]

    @pytest.mark.parametrize("sid,seed", sorted(ENFORCED_DIGESTS))
    def test_enforced_outputs_match_pinned_digests(self, sid, seed,
                                                   tmp_path):
        scenario = scenarios.build(sid)
        report = scenarios.run_scenario(
            replace(scenario, seed=seed, detector="on"),
            scenarios.load_bundle(scenario.ruleset))
        cli.write_report_csvs(report, tmp_path)
        cli.write_summary_csv([report], tmp_path)
        assert report.suppressed_actions > 0
        assert sid != "S5" or report.suppressed_duplicates > 0
        assert (*self.file_digests(tmp_path, seed), report.suppressed_actions,
                report.suppressed_duplicates) == ENFORCED_DIGESTS[sid, seed]

    def test_summary_has_extra_actuations_column(self, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--scenario", "S7", "--seed", "0", "--out",
              str(out)])
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert "extra_actuations_thermostat" in header

    def test_summary_mean_tracks_collision_expectation(self, tmp_path):
        # 100 seeds of the shared-alarm run: the summary's mean C1 sits at
        # the analytic expectation, 2000 x 0.05 x 0.07 = 7.
        out = tmp_path / "out"
        main(["simulate", "--scenario", "S5", "--seed", "0",
              "--seeds", "100", "--out", str(out)])
        lines = (out / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        c1 = header.index("C1")
        rows = [line.split(",") for line in lines[1:]]
        assert rows[-1][0] == "mean"
        per_seed = [float(r[c1]) for r in rows[:-1]]
        assert len(per_seed) == 100
        mean = float(rows[-1][c1])
        assert mean == pytest.approx(sum(per_seed) / len(per_seed))
        assert 6.0 <= mean <= 8.0

    def test_summary_counts_of_a_million_and_more_are_exact(self,
                                                             tmp_path):
        def report(seed, c1, heats):
            counts = {k.value: 0 for k in ConflictKind}
            counts["C1"] = c1
            return TraceReport(
                scenario="big", seed=seed, horizon=1, rooms=(), series={},
                events=[], conflicts=[], conflict_counts=counts,
                actuations={"th1": heats}, actuation_log=[],
                suppressed_actions=10**6)

        cli.write_summary_csv([report(0, 1_234_567, 10**6),
                               report(1, 2**53 + 1, 999_999)], tmp_path)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [(r["seed"], r["C1"], r["total"], r["suppressed_actions"],
                 r["actuations_th1"]) for r in rows[:2]] == [
            ("0", "1234567", "1234567", "1000000", "1000000"),
            ("1", "9007199254740993", "9007199254740993", "1000000",
             "999999")]
        # The means keep 6 significant digits.
        assert rows[2]["seed"] == "mean"
        assert rows[2]["actuations_th1"] == "1e+06"
        assert rows[2]["C1"] == f"{(1_234_567 + 2.0**53 + 1) / 2:g}"

    def test_summary_means_read_as_numpy_means(self, tmp_path):
        # Every column is an integer count, summed exactly before its one
        # division, so each mean reads as numpy's float mean, negative
        # columns (extra actuations) included.
        rng = np.random.default_rng(38)

        def count():
            return int(rng.integers(-10**9, 10**9, endpoint=True))

        def report(seed):
            return TraceReport(
                scenario="t", seed=seed, horizon=1, rooms=(), series={},
                events=[], conflicts=[], actuation_log=[],
                conflict_counts={k.value: count() for k in ConflictKind},
                actuations={"a": count(), "b": count()},
                baseline_actuations={"a": count(), "c": count()},
                suppressed_actions=count(), suppressed_duplicates=count())

        for _ in range(300):
            reports = [report(seed)
                       for seed in range(int(rng.integers(1, 61)))]
            cli.write_summary_csv(reports, tmp_path)
            *rows, mean = (tmp_path / "summary.csv").read_text(
                encoding="utf-8").splitlines()[1:]
            table = [list(map(int, row.split(",")[1:])) for row in rows]
            assert mean == ",".join(["mean"] + [
                f"{v:g}" for v in np.asarray(table, dtype=float).mean(axis=0)])

    def test_fixture_loaded_once_for_all_seeds(self, tmp_path,
                                               monkeypatch):
        calls = []
        load = scenarios.load_bundle

        def counted(name):
            calls.append(name)
            return load(name)

        monkeypatch.setattr(scenarios, "load_bundle", counted)
        main(["simulate", "--scenario", "S5", "--seeds", "3",
              "--out", str(tmp_path / "out")])
        assert calls == ["s5_alarm"]
        assert len(list((tmp_path / "out").glob("conflicts_*.csv"))) == 3

    def test_zero_seed_count_rejected(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "S1", "--seeds", "0",
                     "--out", str(tmp_path / "x")]) == 2

    def test_negative_seed_rejected(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "S1", "--seed", "-5",
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--seed" in err


def pinned_arm(sid):
    """The arm ``simulate --scenario <sid> --seed 1`` runs, with its
    bundle."""
    scenario = scenarios.build(sid)
    bundle = scenarios.load_bundle(scenario.ruleset)
    return scenarios.run_scenario(replace(scenario, seed=1), bundle), bundle


def log_digest(rows):
    return hashlib.sha256("".join(
        f"{row}\n" for row in [CONFLICT_HEADER, *rows]).encode()).hexdigest()


class TestConflictRows:
    """Each column of a conflict log row is read off its finding, the note
    column is the finding's ``note``, and no row splits, on the pinned
    monitor streams and simulate arms."""

    @staticmethod
    def rows_read_off(findings):
        rows = []
        for c in findings:
            row = cli.format_conflict_row(c)
            a, b = c.first, c.second
            if c.kind is ConflictKind.C7:
                head = [str(c.tick), "C7", "", "", a.id, b.id, ""]
            else:
                actuator = a.action.actuator
                if b.action.actuator != actuator:
                    actuator += f"/{b.action.actuator}"
                head = [str(c.tick), c.kind.value, a.rule, b.rule,
                        a.event.id, b.event.id, actuator]
            assert row.split(",", 7) == [*head, c.note]
            assert len(row.split(",")) == 8 and row.splitlines() == [row]
            rows.append(row)
        return rows

    @pytest.mark.parametrize("sid", sorted(SIMULATE_DIGESTS))
    def test_simulate_arm(self, sid):
        report, _ = pinned_arm(sid)
        rows = self.rows_read_off(report.conflicts)
        assert log_digest(rows) == SIMULATE_DIGESTS[sid][2]

    @pytest.mark.parametrize("stream", sorted(MONITOR_DIGESTS))
    def test_monitor_stream(self, stream):
        if stream == "house":
            doc = load_document(fixture_text("house"))
            ruleset, cfg = doc.ruleset, doc.config
            text = trace_text(dense_trace(ruleset, 2))
        else:
            report, bundle = pinned_arm(stream)
            ruleset, cfg = bundle.ruleset, bundle.config
            text = trace_text(report.events)
        window = cli.DetectionWindow(cfg)
        found = []
        for _, batch in groupby(cli.parse_trace(text, ruleset),
                                key=attrgetter("time")):
            found += cli.detect_at_tick(list(batch), ruleset, window, cfg)
        rows = self.rows_read_off(found)
        assert log_digest(rows) == MONITOR_DIGESTS[stream]


class TestMonitorReplaysSimulate:
    @pytest.mark.parametrize("sid", [f"S{i}" for i in range(1, 9)])
    def test_same_conflict_log(self, sid, tmp_path, capsys):
        # The events a simulation logs replay through ``monitor`` to the
        # same conflict log, byte for byte.
        out = tmp_path / "sim"
        main(["simulate", "--scenario", sid, "--seed", "5",
              "--out", str(out)])
        sim_log = (out / "conflicts_5.csv").read_bytes()
        code = main(["monitor", "--ruleset", str(out / "ruleset.yaml"),
                     "--trace", str(out / "events_5.csv"),
                     "--out", str(tmp_path / "mon")])
        assert (tmp_path / "mon" / "conflicts.csv").read_bytes() == sim_log
        assert code == (1 if sim_log.count(b"\n") > 1 else 0)


class TestReport:
    def test_aggregates_conflict_logs(self, tmp_path, capsys):
        out = tmp_path / "sim"
        main(["simulate", "--scenario", "S5", "--seed", "1", "--seeds", "2",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "2 conflict log(s)" in printed
        assert "C1=" in printed

    def test_empty_directory_exits_two(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("row", [
        "5,C9,r1,r2,e1,e2,alarm1,no such policy",
        "5,C1",
    ])
    def test_malformed_row_exits_two(self, row, tmp_path, capsys):
        log = tmp_path / "conflicts_0.csv"
        log.write_text(f"{CONFLICT_HEADER}\n{row}\n", encoding="utf-8")
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "conflicts_0.csv line 2" in err

    def test_non_utf8_row_exits_two(self, tmp_path, capsys):
        log = tmp_path / "conflicts_0.csv"
        log.write_bytes(f"{CONFLICT_HEADER}\n".encode("utf-8")
                        + b"5,C1,r1,r2,e1,e2,alarm1,\xff\n")
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and err.count("\n") == 1
        assert "conflicts_0.csv" in err

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_log_exits_cleanly(self, data, simulated, tmp_path):
        run = simulated / data.draw(st.sampled_from(["S3", "S5"]))
        text = (run / "conflicts_1.csv").read_text(encoding="utf-8")
        (tmp_path / "conflicts_1.csv").write_text(
            mutated(data, text, CSV_ALPHABET, lines=True), encoding="utf-8")
        exits_cleanly(["report", "--out", str(tmp_path)])


class TestOverrides:
    def test_dup_window_override_changes_monitor(self, tmp_path, capsys):
        doc = tmp_path / "dup.yaml"
        doc.write_text(fixture_text("c7_duplicate"), encoding="utf-8")
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "tick,sensor,kind,predicate,value,location\n"
            "0,temp1,temperature,==,60.0,room1\n"
            "20,temp1,temperature,==,60.0,room1\n", encoding="utf-8")
        assert main(["monitor", "--ruleset", str(doc), "--trace", str(trace),
                     "--dup-window", "10"]) == 0

    def test_check_takes_no_dup_window(self, clean_ruleset, capsys):
        # Static analysis never reads the duplicate-reading window, so
        # ``check`` has no flag to set it.
        assert main(["check", "--ruleset", str(clean_ruleset),
                     "--dup-window", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: unrecognized arguments: --dup-window 3\n")

    @pytest.mark.parametrize("argv", [
        ["check", "--ruleset", "house.yaml", "--epsilon", "abc"],
        ["monitor", "--ruleset", "house.yaml"],
        ["simulate", "--scenario", "S5", "--out", "o", "--seeds", "two"],
        ["report"], [], ["audit"]],
        ids=["bad_int", "missing_flag", "bad_seeds", "missing_out",
             "no_command", "unknown_command"])
    def test_bad_command_line_is_one_error_line(self, argv, capsys):
        # Usage errors end like every other input error: one line, exit 2.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if argv[-1:] == ["abc"]:
            assert err == "error: argument --epsilon: invalid int value: " \
                          "'abc'\n"


USER_SCENARIO = """
scenario:
  id: night_light_race
  horizon: 200
  seed: 4
  detector: "off"
  description: two lamps race on one hallway

registry:
  locations: [hall]
  controllers: [app, auto]
  sensors:
    - {id: tap1, kind: lamp_cmd, unit: cmd, location: hall, range: [0, 1]}
    - {id: pir1, kind: motion, unit: bool, location: hall, range: [0, 1]}
  actuators:
    - {id: lampA, kind: light, location: hall, actions: ["on", "off"]}
    - {id: lampB, kind: light, location: hall, actions: ["on", "off"]}
  features: [luminance@hall]

rules:
  - id: r_tap
    controller: app
    trigger: {sensor_kind: lamp_cmd, comparator: "==", threshold: 1}
    action: {actuator: lampA, action: "on", affected_features: [luminance@hall]}
  - id: r_pir
    controller: auto
    trigger: {sensor_kind: motion, comparator: "==", threshold: 1}
    action: {actuator: lampB, action: "on", affected_features: [luminance@hall]}

detector: {overlap_window: 5, duplicate_window: 30, same_tick_epsilon: 0}

house:
  rooms:
    - {id: hall, exposed: true, temperature: 70, humidity: 50}
  momentary: [lampA, lampB]

sources:
  - {name: taps, sensor: tap1, p: 0.2}
  - {name: walkers, sensor: pir1, p: 0.2, occupancy_room: hall}
"""


def _mutation_spots(node):
    """Every (container, key, is_key) of a loaded document: each mapping
    key, to rename, and each scalar leaf, to replace."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        if isinstance(node, dict):
            yield node, key, True
        if isinstance(value, (dict, list)):
            yield from _mutation_spots(value)
        else:
            yield node, key, False


# Two rules of rival controllers fire on one tap reading and drive one
# lamp, so each simulated log row carries the rule ids and the sensor.
RIVAL_TAPS = """
scenario: {id: rival_taps, horizon: 40}
registry:
  locations: [hall]
  controllers: [app, ctl2]
  sensors:
    - {id: tap1, kind: lamp_cmd, unit: cmd, location: hall, range: [0, 1]}
  actuators:
    - {id: lamp1, kind: light, location: hall, actions: ["on", "off"]}
  features: [luminance@hall]
rules:
  - id: r_on
    controller: app
    trigger: {sensor_kind: lamp_cmd, comparator: "==", threshold: 1}
    action: {actuator: lamp1, action: "on", affected_features: [luminance@hall]}
  - id: r_off
    controller: ctl2
    trigger: {sensor_kind: lamp_cmd, comparator: "==", threshold: 1}
    action: {actuator: lamp1, action: "off", affected_features: [luminance@hall]}
house:
  rooms: [{id: hall}]
sources:
  - {name: taps, sensor: tap1, p: 0.3}
"""


class TestUserScenarioFiles:
    def test_simulate_accepts_scenario_file(self, tmp_path):
        doc = tmp_path / "race.yaml"
        doc.write_text(USER_SCENARIO, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(doc), "--seed", "4",
                     "--out", str(out)])
        assert code == 1
        assert (out / "trace_4.csv").exists()
        rows = (out / "conflicts_4.csv").read_text().splitlines()
        assert any(",C2," in r for r in rows[1:])

    def test_library_loader_round_trip(self, tmp_path):
        from tapcheck.scenarios import load_scenario_bundle, run_scenario
        doc = tmp_path / "race.yaml"
        doc.write_text(USER_SCENARIO, encoding="utf-8")
        scenario = load_scenario_bundle(str(doc))[0]
        assert scenario.id == "night_light_race"
        assert scenario.horizon == 200
        report = run_scenario(scenario)
        assert report.conflict_counts["C2"] > 0

    def test_scenario_file_parsed_once_for_all_seeds(self, tmp_path,
                                                     monkeypatch):
        doc = tmp_path / "race.yaml"
        doc.write_text(USER_SCENARIO, encoding="utf-8")
        calls = []
        load = scenarios.load_document

        def counted(text):
            calls.append(text)
            return load(text)

        monkeypatch.setattr(scenarios, "load_document", counted)
        main(["simulate", "--scenario", str(doc), "--seeds", "3",
              "--out", str(tmp_path / "out")])
        assert len(calls) == 1
        assert len(list((tmp_path / "out").glob("conflicts_*.csv"))) == 3

    @pytest.mark.parametrize("old,new", [
        ("temperature: 70,", "temperature: abc,"),
        ("horizon: 200", "horizon: abc"),
        ("seed: 4", "seed: -4"),
        ("sensor: tap1, p: 0.2}", "sensor: tap1, p: 0.2, predicate: '!='}"),
        ("sensor: tap1, p: 0.2}", "sensor: tap1, p: 0.2, predicate: [1]}"),
        ("sensor: tap1, p: 0.2}", "sensor: tap1, p: abc}"),
        ("sensor: tap1, p: 0.2}", "sensor: tap1, p: 0.2, value: abc}"),
        ("sensor: pir1, p: 0.2,", "sensor: pir1, mode: cov, "
         "feature: temperature, min_delta: [1],"),
        ("sensor: tap1, p: 0.2}", "sensor: tap1, mode: script, "
         "at: [[1, 2, 3]]}"),
        ("sensor: tap1, p: 0.2}", "sensor: tap1, mode: script, at: [5]}"),
        ("sensor: tap1, p: 0.2}", "sensor: tap1, mode: script, at: 5}"),
        ("sensor: tap1, p: 0.2}", "sensor: tap1, mode: script, "
         "at: [[-1, 1]]}"),
        ("sensor: tap1, p: 0.2}", "sensor: tap1, mode: script, "
         "at: [[3, 1], [3, 0]]}"),
        ("sensor: tap1, p: 0.2}", "sensor: tap1, p: 0.2, choices: 5}"),
        ("sensor: tap1, p: 0.2}", "sensor: tap1, p: 0.2, emit_event: 'no'}"),
        ("exposed: true,", "exposed: 'no',"),
        ("exposed: true,", "exposed: true, window: 1,"),
        ("temperature: 70,", "temperature: 70, thermostat: warm,"),
        ("  momentary:", "  outdoor: [1, 2]\n  momentary:"),
        ("  momentary:", "  outdoor: {daylight: []}\n  momentary:"),
        ("  seed: 4\n", "  seed: 4\n  baseline_overrides: {k_loss: abc}\n"),
        ("  seed: 4\n", "  seed: 4\n  baseline_overrides: [1]\n"),
        ("  seed: 4\n", "  seed: 4\n  baseline_overrides: 0\n"),
        ("  seed: 4\n", "  seed: 4\n  baseline_overrides: {k_los: 1}\n"),
        ("{name: walkers,", "{name: taps,"),
        ("{name: walkers,", "{name: 5,"),
        ("momentary: [lampA, lampB]", "momentary: 5"),
        ("momentary: [lampA, lampB]", "momentary: [[1]]"),
        ("  momentary:", "  params: 5\n  momentary:"),
        ("  momentary:", "  adjacency: 5\n  momentary:"),
        ("  rooms:\n    - {id: hall, exposed: true, temperature: 70, "
         "humidity: 50}\n", "  rooms: 5\n"),
        ("sources:\n  - {name: taps, sensor: tap1, p: 0.2}\n"
         "  - {name: walkers, sensor: pir1, p: 0.2, occupancy_room: hall}\n",
         "sources: 5\n"),
        ("scenario:\n  id: night_light_race\n  horizon: 200\n  seed: 4\n"
         "  detector: \"off\"\n  description: two lamps race on one "
         "hallway\n", "scenario: 5\n"),
        ("occupancy_room: hall}", "occupancy_room: nowhere}"),
        ("occupancy_room: hall}", "occupancy_room: [a]}"),
        ("sensor: tap1, p: 0.2}", "sensor: [tap1], p: 0.2}"),
        ("{id: lampB, kind: light,", "{id: lampB, kind: sprinkler,"),
        ("temperature: 70,", "temprature: 10,"),
        ("  id: night_light_race\n", "  id: [1]\n"),
        ("  description: two lamps race on one hallway\n",
         "  description: {}\n"),
        ('  detector: "off"\n', "  detector: enforce\n"),
        ("detector: {overlap_window: 5, duplicate_window: 30, "
         "same_tick_epsilon: 0}", "detector: false"),
        ("sources:\n  - {name: taps, sensor: tap1, p: 0.2}\n"
         "  - {name: walkers, sensor: pir1, p: 0.2, occupancy_room: hall}\n",
         "sources: {}\n"),
        ("sources:\n  - {name: taps, sensor: tap1, p: 0.2}\n"
         "  - {name: walkers, sensor: pir1, p: 0.2, occupancy_room: hall}\n",
         "sources: 0\n"),
    ], ids=["room_temperature", "horizon", "seed_negative",
            "source_predicate",
            "source_predicate_list", "source_p", "source_value",
            "source_min_delta", "source_at_triple", "source_at_scalar_entry",
            "source_at_scalar", "source_at_negative", "source_at_repeated",
            "source_choices_scalar", "source_emit_string",
            "room_exposed_string", "room_flag_number", "room_thermostat",
            "outdoor_list", "outdoor_empty_series", "baseline_value",
            "baseline_list", "baseline_zero", "baseline_unknown_key",
            "source_name_repeated", "source_name_number",
            "momentary_scalar", "momentary_nested", "params_scalar",
            "adjacency_scalar", "rooms_scalar", "sources_scalar",
            "scenario_scalar", "occupancy_room_unknown",
            "occupancy_room_list", "source_sensor_list",
            "momentary_kind_unsimulated", "room_key_unknown",
            "scenario_id_list", "description_mapping", "detector_word",
            "detector_false", "sources_mapping", "sources_zero"])
    def test_bad_scenario_value_exits_two(self, old, new, tmp_path, capsys):
        doc = tmp_path / "bad.yaml"
        assert old in USER_SCENARIO
        doc.write_text(USER_SCENARIO.replace(old, new), encoding="utf-8")
        assert main(["simulate", "--scenario", str(doc),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("old,new,build", [
        ("sensor: tap1, p: 0.2}", "sensor: tap1, p: abc}",
         lambda: SourceSpec(name="taps", sensor="tap1", p="abc")),
        ("sensor: tap1, p: 0.2}", "sensor: tap1, p: 0.2, emit_event: 'no'}",
         lambda: SourceSpec(name="taps", sensor="tap1", emit_event="no")),
        ("temperature: 70,", "temperature: abc,",
         lambda: RoomState(name="hall", temperature="abc")),
        ("horizon: 200", "horizon: abc",
         lambda: Scenario(id="night_light_race", ruleset="r", sources=(),
                          horizon="abc")),
        ("  seed: 4\n", "  seed: 4\n  baseline_overrides: {k_loss: abc}\n",
         lambda: Scenario(id="night_light_race", ruleset="r", sources=(),
                          horizon=1, baseline_overrides={"k_loss": "abc"})),
        ("  momentary:", "  outdoor: {daylight: [300, .nan]}\n  momentary:",
         lambda: HouseModel(rooms=(RoomState(name="hall"),),
                            daylight=(300, math.nan))),
    ], ids=["source_p", "source_emit", "room_temperature", "horizon",
            "baseline_value", "outdoor_series"])
    def test_bad_value_reads_the_same_from_document_and_code(
            self, old, new, build, tmp_path, capsys):
        # A document is read into the setup types, so one bad leaf value
        # fails with the error the type gives when built in code.
        doc = tmp_path / "bad.yaml"
        assert old in USER_SCENARIO
        doc.write_text(USER_SCENARIO.replace(old, new), encoding="utf-8")
        assert main(["simulate", "--scenario", str(doc),
                     "--out", str(tmp_path / "out")]) == 2
        with pytest.raises(SimulationError) as raised:
            build()
        assert capsys.readouterr().err == f"error: {raised.value}\n"

    @pytest.mark.parametrize("adjacency,message", [
        ("[[hall, den], [hall, hall]]", "adjacency joins room hall to itself"),
        ("[[hall, den], [den, hall]]", "adjacency lists (den, hall) twice")])
    def test_bad_adjacency_exits_two(self, adjacency, message, tmp_path,
                                     capsys):
        # Each listing of a pair would pull its rooms together once more.
        doc = tmp_path / "bad.yaml"
        doc.write_text(USER_SCENARIO.replace(
            "locations: [hall]", "locations: [hall, den]").replace(
            "  momentary:", "    - {id: den}\n"
            f"  adjacency: {adjacency}\n  momentary:"), encoding="utf-8")
        assert main(["simulate", "--scenario", str(doc),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_rival_taps_round_trip_through_report(self, tmp_path):
        doc = tmp_path / "taps.yaml"
        doc.write_text(RIVAL_TAPS, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(doc), "--out",
                     str(out)]) == 1
        assert main(["report", "--out", str(out)]) == 1

    @pytest.mark.parametrize("old,new,message", [
        ("r_on", '"r,on"', "rule 'r,on'"),
        ("r_on", '"r\\non"', "rule 'r\\non'"),
        ("r_on", '"r\\u2028on"', "rule 'r\\u2028on'"),
        ("tap1", '"tap,1"', "sensor 'tap,1'"),
        ("lamp1", '"lamp,1"', "actuator 'lamp,1'"),
        ("kind: lamp_cmd", 'kind: "lamp\\rcmd"', "sensor kind 'lamp\\rcmd'"),
        ("locations: [hall]", 'locations: ["hall,1"]', "location 'hall,1'"),
        ("ctl2", '"ctl,2"', "controller 'ctl,2'"),
        ("ctl2", '"ctl\\n2"', "controller 'ctl\\n2'"),
        ('"off"', '"of,f"', "actuator 'lamp1' action 'of,f'"),
    ], ids=["rule_comma", "rule_newline", "rule_line_separator",
            "sensor_comma", "actuator_comma", "kind_return",
            "location_comma", "controller_comma", "controller_newline",
            "action_comma"])
    def test_name_that_would_split_a_row_exits_two(self, old, new, message,
                                                   tmp_path, capsys):
        # A comma or line break in a name a log row carries would make
        # simulate write rows that report and monitor reject.
        doc = tmp_path / "taps.yaml"
        doc.write_text(RIVAL_TAPS.replace(old, new), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(doc), "--out",
                     str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {message} must hold no comma or line break\n")
        assert not out.exists()

    @pytest.mark.parametrize("old,new,message", [
        ("temperature: 70,", "temprature: 10,",
         "unknown room key 'temprature'"),
    ])
    def test_bad_house_entry_rejected_on_load(self, old, new, message,
                                              tmp_path):
        # Rejected as the file is read, even if no rule ever fires.
        doc = tmp_path / "bad.yaml"
        doc.write_text(USER_SCENARIO.replace(old, new), encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            scenarios.load_scenario_bundle(str(doc))

    def test_bare_detector_word_reads_as_quoted(self, tmp_path):
        # YAML 1.1 reads a bare on as true; the scenario still enforces.
        outputs = []
        for word in ('"on"', "on"):
            doc = tmp_path / "race.yaml"
            doc.write_text(USER_SCENARIO.replace('detector: "off"',
                                                 f"detector: {word}"),
                           encoding="utf-8")
            out = tmp_path / f"out{len(outputs)}"
            assert main(["simulate", "--scenario", str(doc),
                         "--out", str(out)]) == 1
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "ruleset.yaml"})
        assert len(outputs[0]) == 4 and outputs[0] == outputs[1]
        assert scenarios.load_scenario_bundle(str(doc))[0].detector == "on"

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_scenario_exits_cleanly(self, data, tmp_path):
        # One renamed key or one replaced leaf anywhere in the document:
        # the run succeeds, finds conflicts, or is an input error reported
        # on one line. It never ends in a traceback.
        doc = yaml.safe_load(USER_SCENARIO)
        doc["scenario"]["horizon"] = 20
        spots = list(_mutation_spots(doc))
        parent, key, is_key = data.draw(st.sampled_from(spots))
        if is_key:
            parent[data.draw(st.sampled_from(
                [f"{key}_", key[:-1], "id", 5]))] = parent.pop(key)
        else:
            parent[key] = data.draw(st.sampled_from(
                [None, True, False, 0, -1, 2.5, "", "x", [], {}, [1],
                 {"a": 1}]))
        path = tmp_path / "mutant.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["simulate", "--scenario", str(path), "--out", out])
        assert code in (0, 1, 2)
        if code == 2:
            text = err.getvalue()
            assert text.startswith("error: ") and text.count("\n") == 1

    def test_cov_source_outside_the_house_exits_two(self, tmp_path,
                                                     capsys):
        # pir1 sits in a declared location that is not a house room, so
        # there is no room reading for its change-of-value source to watch.
        text = USER_SCENARIO.replace(
            "locations: [hall]", "locations: [hall, attic]").replace(
            "pir1, kind: motion, unit: bool, location: hall",
            "pir1, kind: motion, unit: bool, location: attic").replace(
            "sensor: pir1, p: 0.2,", "sensor: pir1, mode: cov, "
            "feature: temperature,")
        assert "location: attic" in text and "mode: cov" in text
        doc = tmp_path / "attic.yaml"
        doc.write_text(text, encoding="utf-8")
        assert main(["simulate", "--scenario", str(doc),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "attic" in err

    @pytest.mark.parametrize("kind,location,action,actions", [
        ("sprinkler", "hall", "on", '["on"]'),
        ("light", "attic", "on", '["on", "off"]'),
        ("light", "hall", "dim", '["on", "off", "dim"]'),
    ], ids=["kind_unsimulated", "location_not_a_room", "action_unsupported"])
    def test_rule_actuator_checked_before_tick_zero(self, kind, location,
                                                    action, actions,
                                                    tmp_path, capsys):
        # No source feeds leak1, so r_spare never fires. Its actuator has
        # no simulated effect all the same, and no seed writes a file.
        # Actuators of one kind share one vocabulary, the lamps' included.
        text = USER_SCENARIO
        if kind == "light":
            text = text.replace('actions: ["on", "off"]', f"actions: {actions}")
        text = text.replace(
            "locations: [hall]", "locations: [hall, attic]").replace(
            "  actuators:\n",
            "    - {id: leak1, kind: leak, unit: bool, location: hall, "
            "range: [0, 1]}\n  actuators:\n").replace(
            "  features:",
            f"    - {{id: spare, kind: {kind}, location: {location}, "
            f"actions: {actions}}}\n  features:").replace(
            "\ndetector:", f"""  - id: r_spare
    controller: auto
    trigger: {{sensor_kind: leak, comparator: "==", threshold: 1}}
    action: {{actuator: spare, action: "{action}", affected_features: [luminance@hall]}}

detector:""")
        assert "r_spare" in text and "id: leak1" in text
        doc = tmp_path / "spare.yaml"
        doc.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(doc), "--seeds", "2",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "r_spare" in err
        assert not out.exists()

    def test_rejected_scenario_leaves_no_out_directory(self, tmp_path,
                                                       capsys):
        # The lamp sits in the attic, which is no house room, so both arms
        # are rejected before tick 0: no ruleset.yaml, no directory.
        doc = tmp_path / "attic.yaml"
        doc.write_text("""\
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
""", encoding="utf-8")
        out = tmp_path / "attic"
        assert main(["simulate", "--scenario", str(doc), "--seeds", "2",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        "{k_loss: abc}", "[1]", "0", "{k_los: 1}"],
        ids=["{k_loss: abc}", "[1]", "0", "{k_los: 1}"])
    def test_bad_baseline_overrides_rejected_on_load(self, overrides,
                                                     tmp_path):
        # Rejected as the file is read, before either arm simulates:
        # Scenario judges the mapping, its keys and its values.
        doc = tmp_path / "bad.yaml"
        doc.write_text(USER_SCENARIO.replace(
            "  seed: 4\n", f"  seed: 4\n  baseline_overrides: {overrides}\n"),
            encoding="utf-8")
        with pytest.raises(SimulationError, match="baseline_overrides"):
            scenarios.load_scenario_bundle(str(doc))

    def test_two_readings_of_one_sensor_at_one_tick_exit_two(self, tmp_path,
                                                            capsys):
        # Two script sources on tap1 emit at tick 3. ``monitor`` rejects a
        # trace with two readings of one sensor at one tick, and so does
        # the detector that ``simulate`` runs.
        text = USER_SCENARIO.replace(
            "  - {name: taps, sensor: tap1, p: 0.2}\n",
            "  - {name: taps, sensor: tap1, mode: script, at: [[3, 1]]}\n"
            "  - {name: dims, sensor: tap1, mode: script, at: [[3, 0.5]]}\n"
        ).replace("\ndetector:", """  - id: r_dim
    controller: auto
    trigger: {sensor_kind: lamp_cmd, comparator: "==", threshold: 0.5}
    action: {actuator: lampA, action: "on", affected_features: [luminance@hall]}

detector:""")
        assert text.count("mode: script") == 2 and "r_dim" in text
        doc = tmp_path / "twice.yaml"
        doc.write_text(text, encoding="utf-8")
        assert main(["simulate", "--scenario", str(doc),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "tap1" in err and "tick 3" in err

    def test_failing_later_seed_writes_nothing(self, tmp_path, capsys):
        # Sources a and b both read tap1. Seeds 2 to 4 never draw them at
        # one tick, seed 5 does at tick 17. Every seed runs before any
        # file is written, so the failure leaves no --out directory.
        text = USER_SCENARIO.replace("horizon: 200", "horizon: 50").replace(
            "  - {name: taps, sensor: tap1, p: 0.2}\n",
            "  - {name: a, sensor: tap1, p: 0.1}\n"
            "  - {name: b, sensor: tap1, p: 0.1}\n")
        assert "name: b, sensor: tap1" in text and "horizon: 50" in text
        doc = tmp_path / "later.yaml"
        doc.write_text(text, encoding="utf-8")
        clean = tmp_path / "clean"
        assert main(["simulate", "--scenario", str(doc), "--seed", "2",
                     "--seeds", "3", "--out", str(clean)]) in (0, 1)
        assert (clean / "summary.csv").exists()
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(doc), "--seed", "2",
                     "--seeds", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "tap1" in err and "tick 17" in err
        assert not out.exists()

    # Both horizons fail in numpy before any memory is taken; a horizon
    # that could be allocated is never tried here.
    @pytest.mark.parametrize("horizon", [10**400, 2**62],
                             ids=["ten_to_400", "two_to_62"])
    def test_horizon_too_long_to_allocate_exits_two(self, horizon, tmp_path,
                                                    capsys):
        doc = tmp_path / "long.yaml"
        doc.write_text(USER_SCENARIO.replace("horizon: 200",
                                             f"horizon: {horizon}"),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(doc),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario 'night_light_race' horizon "
                              f"{horizon} is too long to simulate: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_scenario_file_without_meta_rejected(self, tmp_path):
        from tapcheck.scenarios import load_scenario_bundle
        doc = tmp_path / "bad.yaml"
        doc.write_text("registry:" + USER_SCENARIO.split("registry:", 1)[1],
                       encoding="utf-8")
        with pytest.raises(SimulationError, match="no scenario section"):
            load_scenario_bundle(str(doc))
