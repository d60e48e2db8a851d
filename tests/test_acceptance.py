"""Acceptance suite: one test per exit criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s``).

1. Detector output equals the brute-force oracle on >= 1000 random cases.
2. Duplicate-reading worked example: repeated 60 F readings double-step a
   setpoint to 80 F unsuppressed, 70 F with suppression, one C7 logged.
3. Shared-alarm collisions match the analytic expectation and rise with
   the detection probabilities.
4. Luminance leaves the comfort band exactly at co-fire ticks, with a
   conflict logged there, and never under enforcement.
5. Conflict counts trend monotonically with event probability.
6. Paired management-policy runs cost extra actuations, growing with
   horizon.
7. Static analysis recovers exactly the seeded misconfigurations in a
   50-rule set.
8. Throughput: 10,000 rules and 1,000 events per tick under one second
   per tick.
"""

import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import gen
from tapcheck.detector import DetectionWindow, detect_at_tick
from tapcheck.model import (
    ActionRelationTable,
    ActionSpec,
    Actuator,
    Cmp,
    DetectorConfig,
    Event,
    EventSignature,
    FeatureDependencyGraph,
    Registry,
    Relation,
    Rule,
    RuleSet,
    Sensor,
    TriggerCondition,
)
from tapcheck.oracle import oracle_detect, oracle_static
from tapcheck.scenarios import build, load_bundle, run_scenario, with_probability
from tapcheck.simulator import Scenario, SourceSpec, run_arm
from tapcheck.static import static_check


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""
    def ranks(vals):
        order = np.argsort(vals, kind="stable")
        r = np.empty(len(vals))
        r[order] = np.arange(1, len(vals) + 1)
        vals = np.asarray(vals)
        for v in np.unique(vals):
            mask = vals == v
            r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx ** 2).sum() * (ry ** 2).sum()))


def test_acceptance_1_oracle_equivalence():
    cases = 1000
    start = time.perf_counter()
    for case in range(cases):
        rng = np.random.default_rng(100_000 + case)
        rs, cfg = gen.random_ruleset(rng, max_rules=10)
        trace = gen.random_trace(rng, rs, max_ticks=200)
        window = DetectionWindow(cfg)
        got = []
        for batch in gen.group_by_tick(trace):
            got.extend(detect_at_tick(batch, rs, window, cfg))
        got_keys = [c.key() for c in got]
        assert sorted(got_keys) == sorted(oracle_detect(trace, rs, cfg)), (
            f"case {case} diverged from the oracle")
        assert len(got_keys) == len(set(got_keys))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"{cases} cases took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: {cases} random cases equal the oracle "
          f"in {elapsed:.1f}s")


def _run_duplicate_example(enforce: bool):
    bundle = load_bundle("c7_duplicate")
    scenario = Scenario(
        id="dup60", ruleset="c7_duplicate",
        sources=(SourceSpec(name="readings", sensor="temp1", mode="script",
                            at=((0, 60.0), (20, 60.0))),),
        horizon=30, seed=0, detector="on" if enforce else "off")
    return run_arm(scenario, bundle.ruleset, bundle.config, bundle.house)


def test_acceptance_2_duplicate_reading_worked_example():
    plain = _run_duplicate_example(enforce=False)
    assert plain.series["room1"]["setpoint"][-1] == 80.0
    assert plain.conflict_counts["C7"] == 1

    suppressed = _run_duplicate_example(enforce=True)
    assert suppressed.series["room1"]["setpoint"][-1] == 70.0
    assert suppressed.conflict_counts["C7"] == 1
    assert suppressed.suppressed_duplicates == 1
    print("\nACCEPTANCE 2 PASS: setpoint 80.0 unsuppressed, 70.0 "
          "suppressed, exactly one C7")


def test_acceptance_3_alarm_collision_expectation():
    start = time.perf_counter()
    base_counts = [
        run_scenario(build("S5", seed=seed)).conflict_counts["C1"]
        for seed in range(100)]
    mean_base = float(np.mean(base_counts))
    assert 6.0 <= mean_base <= 8.0, mean_base

    def doubled(seed):
        s = build("S5", seed=seed)
        s = with_probability(s, "smoke", 0.10)
        return with_probability(s, "leak", 0.10)

    dbl_counts = [run_scenario(doubled(seed)).conflict_counts["C1"]
                  for seed in range(100)]
    mean_dbl = float(np.mean(dbl_counts))
    assert mean_dbl > mean_base
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 PASS: mean collisions {mean_base:.2f} in [6, 8]; "
          f"raised probabilities give {mean_dbl:.2f} in {elapsed:.1f}s")


def test_acceptance_4_luminance_band_violations():
    checked_cofires = 0
    for seed in (1, 3, 5):
        report = run_scenario(build("S1", seed=seed))
        lum = report.series["room1"]["luminance"]
        occupancy = report.series["room1"]["occupancy"]
        blind_ticks = {t for t, a, *_ in report.actuation_log
                       if a == "blind1"}
        light_ticks = {t for t, a, *_ in report.actuation_log
                       if a == "light1"}
        conflict_ticks = {c.tick for c in report.conflicts}
        for t in blind_ticks & light_ticks:
            if not occupancy[t]:
                continue
            checked_cofires += 1
            assert not 200.0 <= lum[t] <= 450.0, f"tick {t} in band"
            assert t in conflict_ticks, f"no conflict at co-fire tick {t}"

        enforced = run_scenario(replace(build("S1", seed=seed),
                                        detector="on"))
        lum2 = enforced.series["room1"]["luminance"]
        assert np.all((lum2 >= 200.0) & (lum2 <= 450.0))
    assert checked_cofires > 0
    print(f"\nACCEPTANCE 4 PASS: {checked_cofires} co-fire ticks out of "
          "band with conflicts logged; zero out-of-band under enforcement")


def test_acceptance_5_monotonic_conflict_trend():
    probabilities = [0.02, 0.04, 0.06, 0.08, 0.10]
    means = []
    for p in probabilities:
        totals = []
        for seed in range(50):
            scenario = with_probability(build("S1", seed=seed),
                                        "blind_taps", p)
            counts = run_scenario(scenario).conflict_counts
            totals.append(sum(counts.values()))
        means.append(float(np.mean(totals)))
    rho = spearman(probabilities, means)
    assert rho > 0.0, (probabilities, means, rho)
    print(f"\nACCEPTANCE 5 PASS: mean conflicts {means} over blind "
          f"probabilities {probabilities}, spearman rho {rho:.2f} > 0")


@pytest.mark.parametrize("sid,actuator", [("S7", "thermostat"),
                                          ("S8", "humidifier")])
def test_acceptance_6_management_policy_deltas(sid, actuator):
    seeds = range(10)
    short, long = [], []
    for seed in seeds:
        r_short = run_scenario(replace(build(sid, seed=seed), horizon=500))
        r_long = run_scenario(replace(build(sid, seed=seed), horizon=2000))
        for r in (r_short, r_long):
            assert r.extra_actuations[actuator] >= 0, (sid, seed)
        short.append(r_short.extra_actuations[actuator])
        long.append(r_long.extra_actuations[actuator])
    assert np.mean(long) > np.mean(short)
    print(f"\nACCEPTANCE 6 PASS ({sid}): deltas >= 0 for every seed; mean "
          f"{np.mean(long):.1f} at 2000 ticks > {np.mean(short):.1f} at 500")


def _seeded_static_fixture():
    """50 rules: 40 isolated background rules plus five planted conflicting
    pairs, one per policy C1, C2, C3, C4, C6."""
    locations = ("loc1",)
    sensors: dict[str, Sensor] = {}
    actuators: dict[str, Actuator] = {}
    features: set[str] = set()
    rules: list[Rule] = []
    entries: dict = {}

    def add_sensor(sid, kind):
        sensors[sid] = Sensor(id=sid, kind=kind, unit="u", location="loc1",
                              range=(0.0, 100.0))

    def add_actuator(aid, kind):
        actuators[aid] = Actuator(id=aid, kind=kind, location="loc1",
                                  actions=("go", "stop"))

    def add_rule(rid, ctrl, kind, cmp_token, threshold, aid, action, feats):
        rules.append(Rule(
            id=rid, controller=ctrl,
            trigger=TriggerCondition(sensor_kind=kind, comparator=Cmp(cmp_token),
                                     threshold=float(threshold), unit="u"),
            action=ActionSpec(actuator=aid, action=action, location="loc1",
                              affected_features=frozenset(feats))))

    for i in range(40):
        add_sensor(f"bg_s{i}", f"bg_kind{i}")
        add_actuator(f"bg_a{i}", f"bg_akind{i}")
        features.add(f"bg_f{i}")
        add_rule(f"bg_r{i}", "background", f"bg_kind{i}", ">", 50,
                 f"bg_a{i}", "go", [f"bg_f{i}"])

    # C1: one actuator, two controllers, independent sensors.
    add_sensor("p1_s1", "p1_k1")
    add_sensor("p1_s2", "p1_k2")
    add_actuator("p1_a", "p1_ak")
    features.add("p1_f")
    add_rule("p1_r1", "p1_ctrl_a", "p1_k1", ">", 10, "p1_a", "go", ["p1_f"])
    add_rule("p1_r2", "p1_ctrl_b", "p1_k2", ">", 10, "p1_a", "go", ["p1_f"])

    # C2: different actuators, two controllers, one shared feature.
    add_sensor("p2_s1", "p2_k1")
    add_sensor("p2_s2", "p2_k2")
    add_actuator("p2_a1", "p2_ak1")
    add_actuator("p2_a2", "p2_ak2")
    features.add("p2_f")
    add_rule("p2_r1", "p2_ctrl_a", "p2_k1", ">", 10, "p2_a1", "go", ["p2_f"])
    add_rule("p2_r2", "p2_ctrl_b", "p2_k2", ">", 10, "p2_a2", "go", ["p2_f"])

    # C3: one controller, one sensor, one actuator, two distinct commands.
    add_sensor("p3_s", "p3_k")
    add_actuator("p3_a", "p3_ak")
    features.add("p3_f1")
    features.add("p3_f2")
    add_rule("p3_r1", "p3_ctrl", "p3_k", ">", 10, "p3_a", "go", ["p3_f1"])
    add_rule("p3_r2", "p3_ctrl", "p3_k", "<", 90, "p3_a", "stop", ["p3_f2"])

    # C4: one controller, one sensor, two actuator kinds with an opposite
    # cross-kind relation, one shared feature.
    add_sensor("p4_s", "p4_k")
    add_actuator("p4_a1", "p4_ak1")
    add_actuator("p4_a2", "p4_ak2")
    features.add("p4_f")
    add_rule("p4_r1", "p4_ctrl", "p4_k", ">", 10, "p4_a1", "go", ["p4_f"])
    add_rule("p4_r2", "p4_ctrl", "p4_k", "<", 90, "p4_a2", "stop", ["p4_f"])
    entries[ActionRelationTable.key("p4_ak1", "go", "p4_ak2", "stop")] = \
        Relation.OPPOSITE

    # C6: one controller, two sensors of different kinds, two actuator
    # kinds with an opposite cross-kind relation, one shared feature.
    add_sensor("p5_s1", "p5_k1")
    add_sensor("p5_s2", "p5_k2")
    add_actuator("p5_a1", "p5_ak1")
    add_actuator("p5_a2", "p5_ak2")
    features.add("p5_f")
    add_rule("p5_r1", "p5_ctrl", "p5_k1", ">", 10, "p5_a1", "go", ["p5_f"])
    add_rule("p5_r2", "p5_ctrl", "p5_k2", ">", 10, "p5_a2", "stop", ["p5_f"])
    entries[ActionRelationTable.key("p5_ak1", "go", "p5_ak2", "stop")] = \
        Relation.OPPOSITE

    controllers = tuple(sorted({r.controller for r in rules}))
    registry = Registry(locations=locations, sensors=sensors,
                        actuators=actuators, controllers=controllers,
                        features=frozenset(features))
    ruleset = RuleSet(registry=registry, rules=tuple(rules))
    cfg = DetectorConfig(
        dependency_graph=FeatureDependencyGraph(
            nodes=frozenset(features), edges=frozenset()),
        action_relations=ActionRelationTable(
            vocabulary={a.kind: frozenset(a.actions)
                        for a in actuators.values()},
            entries=entries),
    )
    expected = {
        ("C1", "p1_r1", "p1_r2"),
        ("C2", "p2_r1", "p2_r2"),
        ("C3", "p3_r1", "p3_r2"),
        ("C4", "p4_r1", "p4_r2"),
        ("C6", "p5_r1", "p5_r2"),
    }
    return ruleset, cfg, expected


def test_acceptance_7_static_seeded_recovery():
    ruleset, cfg, expected = _seeded_static_fixture()
    assert len(ruleset.rules) == 50
    found = static_check(ruleset, cfg)
    got = {(p.kind.value, p.rule_a, p.rule_b) for p in found}
    assert got == expected, (sorted(got - expected), sorted(expected - got))
    brute = {(p.kind.value, p.rule_a, p.rule_b)
             for p in oracle_static(ruleset, cfg)}
    assert got == brute
    print("\nACCEPTANCE 7 PASS: exactly the 5 seeded pairs recovered, "
          "matching the sampling oracle")


def _scaling_fixture(n_kinds=100, rules_per_kind=100, sensors_per_kind=10):
    """10,000 rules over 100 sensor kinds; every tick all 1,000 sensors
    report, a few of them hot enough to fire a handful of rules."""
    locations = tuple(f"loc{i}" for i in range(n_kinds))
    sensors = {}
    for k in range(n_kinds):
        for i in range(sensors_per_kind):
            sid = f"s{k}_{i}"
            sensors[sid] = Sensor(id=sid, kind=f"kind{k}", unit="u",
                                  location=f"loc{k}", range=(0.0, 300.0))
    actuators = {f"act{k}": Actuator(id=f"act{k}", kind="siren",
                                     location=f"loc{k}",
                                     actions=("go", "stop"))
                 for k in range(n_kinds)}
    features = frozenset(f"f{k}" for k in range(n_kinds))
    controllers = tuple(f"ctrl{i}" for i in range(4))
    registry = Registry(locations=locations, sensors=sensors,
                        actuators=actuators, controllers=controllers,
                        features=features)
    rules = []
    for k in range(n_kinds):
        for j in range(rules_per_kind):
            rules.append(Rule(
                id=f"r{k}_{j}",
                controller=controllers[j % len(controllers)],
                trigger=TriggerCondition(
                    sensor_kind=f"kind{k}", comparator=Cmp.GT,
                    threshold=100.0 + j, unit="u"),
                action=ActionSpec(actuator=f"act{k}", action="go",
                                  location=f"loc{k}",
                                  affected_features=frozenset({f"f{k}"}))))
    cfg = DetectorConfig(
        dependency_graph=FeatureDependencyGraph(nodes=features,
                                                edges=frozenset()),
        action_relations=ActionRelationTable(
            vocabulary={"siren": frozenset({"go", "stop"})}),
    )
    return RuleSet(registry=registry, rules=tuple(rules)), cfg


def test_acceptance_8_throughput_smoke():
    ruleset, cfg = _scaling_fixture()
    assert len(ruleset.rules) == 10_000
    sensor_list = sorted(ruleset.registry.sensors.values(),
                         key=lambda s: s.id)
    assert len(sensor_list) == 1000
    rng = np.random.default_rng(0)
    window = DetectionWindow(cfg)
    ticks = 10
    seq = 0
    per_tick = []
    for tick in range(ticks):
        hot = set(rng.choice(len(sensor_list), size=40, replace=False))
        events = []
        for idx, sensor in enumerate(sensor_list):
            seq += 1
            value = 103.5 if idx in hot else 50.0
            events.append(Event(
                id=f"e{seq}", sensor=sensor.id, time=tick, value=value,
                unit="u",
                signature=EventSignature(sensor_kind=sensor.kind,
                                         predicate=Cmp.EQ,
                                         location=sensor.location)))
        start = time.perf_counter()
        detect_at_tick(events, ruleset, window, cfg)
        per_tick.append(time.perf_counter() - start)
    worst = max(per_tick)
    mean = float(np.mean(per_tick))
    assert worst < 1.0, f"worst tick {worst:.2f}s"
    print(f"\nACCEPTANCE 8 PASS: 10,000 rules, 1,000 events/tick; "
          f"mean {mean * 1000:.0f} ms/tick, worst {worst * 1000:.0f} ms/tick "
          f"({1000 / mean:,.0f} events/s)")


def test_static_check_on_scaling_fixture():
    # Per kind, 100 rules stack "go" on one siren: all 4,950 pairs can do
    # so staggered inside the overlap window (C3), and the 3,750 pairs on
    # different controllers can fire together (C1). Kinds share nothing.
    ruleset, cfg = _scaling_fixture(n_kinds=10)
    counts = Counter(p.kind.value for p in static_check(ruleset, cfg))
    assert counts == {"C1": 37_500, "C3": 49_500}
