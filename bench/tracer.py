"""Timing at tapcheck's module boundaries, installed from outside the package.

Both recorders replace the public names each module imports (for example
``tapcheck.cli.detect_at_tick``) with wrappers, and put the originals back
when the ``with`` block ends. Nothing under ``src/`` is edited.

* ``Probes`` is the untraced mode: a handful of timers at the points the
  end-to-end metrics need (set-up, per-tick latency, the static check, the
  first bundle load of a simulate command), one call each per tick or less.
  They record spans on the clock of ``speed.Speedometer``, which converts
  them to times at a reference machine speed afterwards.
* ``Tracer`` is the traced mode: a span (name, start, end, parent) around
  every layer call, call counters on the ``model`` predicates, and the work
  counters of each layer. Spans stay in memory until the run ends.
"""

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from tapcheck import cli, detector, model, scenarios, simulator

KINDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")


@contextmanager
def patched(replacements):
    """Apply ``(owner, name, wrap)`` replacements, where ``wrap`` maps the
    current attribute to its stand-in; undo them on exit."""
    saved = []
    try:
        for owner, name, wrap in replacements:
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, wrap(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class Probes:
    """End-to-end timers for one untraced command invocation. Each records
    its spans as (start, end) on ``clock``."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.load = []            # load_document spans
        self.parse_trace = []
        self.ticks = []           # (tick, events, span) per detect call
        self.static = []
        self.bundle = []          # load_bundle spans
        self.command_starts = []  # bundle length as each command starts
        self.arm_ticks = 0

    def _timer(self, record):
        clock = self.clock

        def wrap(fn):
            def timed(*args, **kwargs):
                start = clock()
                out = fn(*args, **kwargs)
                record(args, (start, clock()))
                return out
            return timed
        return wrap

    def installed(self):
        def on_detect(args, span):
            events = args[0]
            if events:
                self.ticks.append((events[0].time, len(events), span))

        def on_arm(args, span):
            self.arm_ticks += args[0].horizon

        return patched([
            (cli, "load_document", self._timer(
                lambda a, span: self.load.append(span))),
            (cli, "parse_trace", self._timer(
                lambda a, span: self.parse_trace.append(span))),
            (cli, "detect_at_tick", self._timer(on_detect)),
            (cli, "static_check", self._timer(
                lambda a, span: self.static.append(span))),
            (scenarios, "load_bundle", self._timer(
                lambda a, span: self.bundle.append(span))),
            (scenarios, "run_arm", self._timer(on_arm)),
        ])


class Tracer:
    """Spans and work counters of one traced command invocation."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent index]
        self._stack = []
        self.calls = Counter()    # model predicate call counts
        self.work = Counter()     # layer work counters
        self._firings = 0         # firings matched inside the current detect
        self._history = {}        # window -> [(tick, firings)]

    def _span(self, name, after=None):
        spans, stack = self.spans, self._stack

        def wrap(fn):
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append([name, perf_counter(), 0.0,
                              stack[-1] if stack else -1])
                stack.append(index)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = perf_counter()
                if after is not None:
                    after(args, out)
                return out
            return traced
        return wrap

    def _count(self, name):
        calls = self.calls

        def wrap(fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    def _on_match(self, args, out):
        self._firings += len(out)

    def _on_detect(self, args, out):
        """Count the candidate pairs the tick's firings form: unordered
        pairs at most max(epsilon, overlap window) ticks apart with at least
        one fresh member. This depends on the firings alone, not on how
        the detector enumerates them."""
        events, _, window, cfg = args[:4]
        fresh, self._firings = self._firings, 0
        history = self._history.setdefault(window, [])
        tick = events[0].time if events else window.last_tick
        reach = tick - max(cfg.same_tick_epsilon, cfg.overlap_window)
        history[:] = [(t, n) for t, n in history if t >= reach]
        older = sum(n for _, n in history)
        history.append((tick, fresh))
        self.work["detector.firings"] += fresh
        self.work["detector.candidate_pairs"] += (fresh * (fresh - 1) // 2
                                                 + fresh * older)
        for conflict in out:
            self.work[f"detector.conflicts.{conflict.kind.value}"] += 1

    def _on_static(self, args, out):
        n = len(args[0].rules)
        self.work["static.rule_pairs"] += n * (n - 1) // 2
        for finding in out:
            self.work[f"static.findings.{finding.kind.value}"] += 1

    def _on_parse_trace(self, args, out):
        self.work["cli.trace_events"] += len(out)

    def _on_arm(self, args, out):
        self.work["simulator.ticks"] += args[0].horizon
        self.work["simulator.events"] += len(out.events)
        self.work["simulator.actuations"] += sum(out.actuations.values())
        self.work["simulator.suppressed_actions"] += out.suppressed_actions

    def installed(self):
        span, count = self._span, self._count
        detect = span("detector.detect_at_tick", self._on_detect)
        return patched([
            (cli, "cmd_check", span("cli.command")),
            (cli, "cmd_monitor", span("cli.command")),
            (cli, "cmd_simulate", span("cli.command")),
            (cli, "load_document", span("parsing.load_document")),
            (cli, "parse_trace", span("cli.parse_trace",
                                      self._on_parse_trace)),
            (cli, "detect_at_tick", detect),
            (cli, "static_check", span("static.static_check",
                                       self._on_static)),
            (cli, "write_report_csvs", span("cli.write")),
            (cli, "write_summary_csv", span("cli.write")),
            (scenarios, "load_bundle", span("scenarios.load_bundle")),
            (scenarios, "load_document", span("parsing.load_document")),
            (scenarios, "run_scenario", span("scenarios.run_scenario")),
            (scenarios, "run_arm", span("simulator.run_arm", self._on_arm)),
            (simulator, "detect_at_tick", detect),
            (simulator, "match_rules", span("simulator.match_rules")),
            (detector, "match_rules", span("detector.match_rules",
                                           self._on_match)),
            (detector, "overlapping_events", count("model.overlap_calls")),
            (model.TriggerCondition, "matches", count("model.trigger_evals")),
            (model.DetectorConfig, "features_related",
             count("model.features_related_calls")),
            (model.DetectorConfig, "similar", count("model.similar_calls")),
            (model.ActionRelationTable, "relation",
             count("model.relation_calls")),
        ])

    def layer_metrics(self) -> dict:
        """Per-layer time and work of the invocation, from the spans and
        counters. Self time is a span's duration minus its children's."""
        total = Counter()
        count = Counter()
        children = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            count[name] += 1
            children.setdefault(parent, []).append(index)
        spans = self.spans

        # The command's tail after its last child is output formatting and
        # writing (monitor and check write inline; simulate has cli.write).
        tail = sum(end - max((spans[c][2] for c in children.get(i, ())),
                             default=end)
                   for i, (name, _, end, _) in enumerate(spans)
                   if name == "cli.command")
        # Detector time inside simulation arms (run_arm -> step -> detect).
        arm_detect = sum(
            spans[c][2] - spans[c][1]
            for i, span in enumerate(spans) if span[0] == "simulator.run_arm"
            for c in children.get(i, ())
            if spans[c][0] == "detector.detect_at_tick")
        work = self.work
        pair_conflicts = sum(work[f"detector.conflicts.{k}"]
                             for k in KINDS[:6])
        findings = sum(work[f"static.findings.{k}"] for k in KINDS[:6])
        return {
            "parsing.load_s": total["parsing.load_document"],
            "parsing.load_calls": count["parsing.load_document"],
            "cli.parse_trace_s": total["cli.parse_trace"],
            "cli.trace_events": work["cli.trace_events"],
            "cli.write_s": total["cli.write"] + tail,
            "detector.detect_s": total["detector.detect_at_tick"],
            "detector.ticks": count["detector.detect_at_tick"],
            "detector.match_s": total["detector.match_rules"],
            "detector.firings": work["detector.firings"],
            "detector.pair_s": (total["detector.detect_at_tick"]
                                - total["detector.match_rules"]),
            **{f"detector.conflicts.{k}": work[f"detector.conflicts.{k}"]
               for k in KINDS},
            "detector.candidate_pairs": work["detector.candidate_pairs"],
            "detector.conflicts_per_candidate_pair": _ratio(
                pair_conflicts, work["detector.candidate_pairs"]),
            **{f"model.{name}": self.calls[f"model.{name}"]
               for name in ("trigger_evals", "overlap_calls",
                            "features_related_calls", "relation_calls",
                            "similar_calls")},
            "static.check_s": total["static.static_check"],
            "static.rule_pairs": work["static.rule_pairs"],
            **{f"static.findings.{k}": work[f"static.findings.{k}"]
               for k in KINDS[:6]},
            "static.findings_per_pair": _ratio(findings,
                                               work["static.rule_pairs"]),
            "simulator.arm_s": total["simulator.run_arm"],
            "simulator.self_s": (total["simulator.run_arm"] - arm_detect
                                 - total["simulator.match_rules"]),
            "simulator.detect_s": arm_detect,
            "simulator.match_s": total["simulator.match_rules"],
            "simulator.arms": count["simulator.run_arm"],
            **{f"simulator.{name}": work[f"simulator.{name}"]
               for name in ("ticks", "events", "actuations",
                            "suppressed_actions")},
            "scenarios.load_bundle_s": total["scenarios.load_bundle"],
            "scenarios.bundle_loads": count["scenarios.load_bundle"],
            "trace.spans": len(spans),
        }

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and one
        [name index, start, end, parent index] row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(s, 7), round(e, 7), p]
                for n, s, e, p in self.spans]
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"names": names, "spans": rows},
                                   separators=(",", ":")), encoding="utf-8")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
