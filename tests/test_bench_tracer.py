"""The benchmark's recorders patch tapcheck names from outside the package
(``bench/tracer.py``); a renamed or removed name must fail here, not only
in a benchmark run."""

import sys
from pathlib import Path

from dataclasses import replace

from conftest import ev
from tapcheck import cli, detector, model, scenarios, simulator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracer  # noqa: E402

# The names the detector's matching and pair checks are reached through.
PATCHED = [
    (detector, "match_rules"),
    (detector, "overlapping_events"),
    (simulator, "match_rules"),
    (simulator, "detect_at_tick"),
    (cli, "detect_at_tick"),
    (model.ActionRelationTable, "relation"),
    (model.TriggerCondition, "matches"),
    (model.DetectorConfig, "features_related"),
    (model.DetectorConfig, "similar"),
]


def current():
    return [getattr(owner, name) for owner, name in PATCHED]


def test_probes_install_and_restore():
    before = current()
    with tracer.Probes().installed():
        assert cli.detect_at_tick is not before[PATCHED.index(
            (cli, "detect_at_tick"))]
    assert current() == before


def test_tracer_installs_counts_and_restores(alarm_home):
    rs, cfg = alarm_home
    before = current()
    recorder = tracer.Tracer()
    with recorder.installed():
        assert all(now is not then for now, then in zip(current(), before))
        window = detector.DetectionWindow(cfg)
        out = cli.detect_at_tick([ev(rs, "e1", "smoke1", 5, 1),
                                  ev(rs, "e2", "leak1", 5, 1)],
                                 rs, window, cfg)
    assert current() == before
    assert [c.kind.value for c in out] == ["C1"]
    metrics = recorder.layer_metrics()
    assert metrics["detector.ticks"] == 1
    assert metrics["detector.firings"] == 2
    assert metrics["detector.conflicts.C1"] == 1


def test_traced_simulation_counts_every_firing():
    # The run applies the detector's own firings, so the traced mode counts
    # each one once, at the detector: applied plus suppressed.
    scenario = replace(scenarios.build("S5", seed=1), horizon=300,
                       detector="on")
    bundle = scenarios.load_bundle(scenario.ruleset)
    before = current()
    recorder = tracer.Tracer()
    with recorder.installed():
        report = scenarios.run_arm(scenario, bundle.ruleset, bundle.config,
                                   bundle.house)
    assert current() == before
    metrics = recorder.layer_metrics()
    assert report.suppressed_actions > 0
    assert metrics["detector.firings"] == (sum(report.actuations.values())
                                           + report.suppressed_actions)
    assert metrics["simulator.arms"] == 1
