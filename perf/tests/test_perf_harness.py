"""Tests of the benchmark harness itself.

Not part of tier-1 (``testpaths = ["tests"]``); run from the repo root:

    PYTHONPATH=src python -m pytest perf/tests -q
"""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.audit import AuditLog

from perf import calibrate, run, stats, trace
from perf.compare import verdict
from perf.workloads import WORKLOADS, exact_mix, plan_hash, run_round

ROOT = Path(__file__).resolve().parents[2]
SMOKE_SCALE = 0.02


# ----------------------------------------------------------------------
# the plan is a pure function of (workload, seed, scale)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops_other_seed_other_ops(name):
    def hash_for(seed):
        return plan_hash(WORKLOADS[name](seed, SMOKE_SCALE).plan())

    assert hash_for(12) == hash_for(12)
    assert hash_for(12) != hash_for(13)


def test_exact_mix_keeps_the_composition_and_lets_the_seed_order_it():
    shares = [("a", 30), ("b", 30), ("c", 30), ("d", 10)]
    one = exact_mix(random.Random(1), 1000, shares)
    two = exact_mix(random.Random(2), 1000, shares)
    assert sorted(one) == sorted(two)
    assert one != two
    assert {k: one.count(k) for k in "abcd"} == {
        "a": 300, "b": 300, "c": 300, "d": 100}


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_nested_sibling_and_zero_length_spans():
    #  0: op        [0, 10]
    #  1:  a        [1, 6]      child of 0
    #  2:   a1      [2, 3]      child of 1
    #  3:   a2      [3, 5]      child of 1 (sibling of a1, back to back)
    #  4:  b        [6, 6]      child of 0, zero length
    #  5:  c        [7, 9]      child of 0
    start = [0.0, 1.0, 2.0, 3.0, 6.0, 7.0]
    end = [10.0, 6.0, 3.0, 5.0, 6.0, 9.0]
    parent = [-1, 0, 1, 1, 0, 0]
    own = trace.self_times(start, end, parent)
    assert own == [3.0, 2.0, 1.0, 2.0, 0.0, 2.0]
    # self times partition the root: nothing is lost, nothing counted twice
    assert sum(own) == end[0] - start[0]


def test_aggregate_routes_self_time_to_one_metric_and_the_rest_to_unattributed():
    rec = trace.Recorder()
    emit = rec.intern("AuditLog.emit", "audit.events", "audit.self_s")
    other = rec.intern("Odd.handle", "odd.requests", "odd.self_s")
    op = rec.begin_op(0)
    for nid in (emit, emit, other):
        rec.close(rec.open(nid))
    rec.end_op(op)
    agg = trace.aggregate(rec)
    assert agg["audit.events"] == 2 and agg["trace.spans"] == 4
    assert "odd.requests" not in agg  # a layer the report does not name
    wall = rec.end[op] - rec.start[op]
    assert agg["audit.self_s"] + agg["trace.unattributed_s"] == \
        pytest.approx(wall)


def test_aggregate_scales_each_ops_spans_by_that_ops_factor():
    rec = trace.Recorder()
    emit = rec.intern("AuditLog.emit", "audit.events", "audit.self_s")
    for index in (0, 1):
        op = rec.begin_op(index)
        rec.close(rec.open(emit))
        rec.end_op(op)
    plain = trace.aggregate(rec)
    only_second = trace.aggregate(rec, [0.0, 1.0])
    own = trace.self_times(rec.start, rec.end, rec.parent)
    assert plain["audit.self_s"] == pytest.approx(own[1] + own[3])
    assert only_second["audit.self_s"] == pytest.approx(own[3])
    assert only_second["audit.events"] == 2  # counts are never scaled


def test_slowdown_is_local_and_shrugs_off_one_bad_sample():
    ref = calibrate.REF_S
    samples = [ref] * 20 + [1.5 * ref] * 20
    samples[5] = 40 * ref                      # one interrupted kernel run
    slow = calibrate.slowdowns(samples)
    assert slow[:12] == pytest.approx([1.0] * 12)
    assert slow[-12:] == pytest.approx([1.5] * 12)
    assert calibrate.reference_time([3.0] * 40, samples)[-1] == \
        pytest.approx(2.0)


def test_layer_is_the_second_module_component():
    assert trace.layer_of("repro.broker.tokens") == "broker"
    assert trace.layer_of("repro.audit") == "audit"
    assert trace.layer_of("repro.federation.myaccessid") == "federation"
    assert trace.layer_of("repro.federation.directory.sharding") == "directory"
    assert trace.layer_of("json") == "json"


# ----------------------------------------------------------------------
# the percentile rule, and how rounds become one number
# ----------------------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percent(1000) == 99
    assert stats.tail_percent(999) == 98
    assert stats.tail_percent(400) == 97   # 12 beyond
    assert stats.tail_percent(300) == 96   # 12 beyond
    assert stats.tail_percent(15) == 50    # no tail to speak of
    for n in (25, 120, 999, 1000, 5000):
        pct = stats.tail_percent(n)
        assert n - math.ceil(pct * n / 100) >= stats.MIN_BEYOND
        assert pct == 99 or n - math.ceil((pct + 1) * n / 100) < stats.MIN_BEYOND
    # nearest rank: exactly ten of a thousand samples lie beyond p99
    assert stats.tail(list(range(1, 1001))) == (99, 990)
    assert stats.tail(list(range(400, 0, -1))) == (97, 388)
    # ... and the value is the mean of the eleven order statistics centred
    # there (2^2 .. 12^2 here; the nearest rank alone would read 7^2)
    sparse = [1.0] * 380 + [float(i * i) for i in range(20)]
    assert stats.tail(sparse) == (97, 59.0)


def _round(latencies, gap=0.001, setup=1.0, rss=50.0, failed=0, slow=None):
    """A child's raw result; ``slow[i]`` is how much slower than the
    reference box the box ran around op ``i`` (kernel and op alike)."""
    slow = slow or [1.0] * len(latencies)
    return {"latencies_s": [v * s for v, s in zip(latencies, slow)],
            "cycles_s": [(v + gap) * s for v, s in zip(latencies, slow)],
            "kernel_s": [calibrate.REF_S * s for s in slow],
            "setup_steps_s": [setup / 20 * slow[0]] * 20,
            "setup_kernel_s": [calibrate.REF_S * slow[0]] * 20,
            "failed_timed": failed, "peak_rss_mb": rss}


CLEAN = [0.002] * 80 + [0.004] * 20


def test_every_metric_is_computed_per_round():
    got = run.round_metrics(_round(CLEAN, setup=1.2), reference=True)
    assert got["ops_per_s"] == pytest.approx(100 / (sum(CLEAN) + 0.1))
    assert got["op_ms_p50"] == pytest.approx(2.0)
    assert got["op_ms_p99"] == pytest.approx(4.0)   # p90 of 100 ops
    assert got["late_early_ratio"] == pytest.approx(2.0)
    assert got["setup_s"] == pytest.approx(1.2)
    assert got["peak_rss_mb"] == 50.0
    # an op with another outcome than the expected one is not a completed op
    assert run.round_metrics(_round(CLEAN, failed=5), True)["ops_per_s"] == \
        pytest.approx(95 / (sum(CLEAN) + 0.1))


def test_a_slow_box_is_not_a_slow_program():
    reference = run.round_metrics(_round(CLEAN), reference=True)
    # the whole round at two thirds of the clock: raw time shows it,
    # reference time does not
    throttled = _round(CLEAN, slow=[1.5] * 100)
    assert run.box_slowdown(throttled) == pytest.approx(1.5)
    assert run.round_metrics(throttled, reference=True) == \
        pytest.approx(reference)
    assert run.round_metrics(throttled, reference=False)["op_ms_p50"] == \
        pytest.approx(1.5 * reference["op_ms_p50"])
    # the clock dropping and recovering in the middle of the round; the
    # few ops at either edge read wrong and would own this round's tail
    wobbly = run.round_metrics(
        _round(CLEAN, slow=[1.0] * 30 + [1.6] * 40 + [1.0] * 30), True)
    del wobbly["op_ms_p99"]
    assert wobbly == pytest.approx(
        {k: reference[k] for k in wobbly}, rel=0.02)
    # a program that got slower still reads slower
    worse = run.round_metrics(_round([v * 1.3 for v in CLEAN]), True)
    assert worse["op_ms_p50"] == pytest.approx(1.3 * reference["op_ms_p50"])


def test_result_keeps_every_rounds_value_their_median_and_quartiles():
    fast, slow = [0.002] * 100, [0.003] * 100
    e2e = run.end_to_end([_round(fast), _round(slow, slow=[2.0] * 100),
                          _round(slow, rss=52.0)])
    p50 = e2e["op_ms_p50"]
    assert p50["values"] == pytest.approx([2.0, 3.0, 3.0])
    assert p50["raw_values"] == pytest.approx([2.0, 6.0, 3.0])
    assert (p50["q1"], p50["value"], p50["q3"]) == pytest.approx((2.0, 3.0, 3.0))
    assert p50["unit"] == "ms" and p50["samples"] == 100
    assert e2e["op_ms_p99"]["percentile"] == 90
    assert e2e["peak_rss_mb"]["value"] == 50.0


def test_tail_is_that_of_the_typical_round():
    burst = list(CLEAN)
    burst[40:60] = [0.050] * 20            # something else hit one round
    e2e = run.end_to_end([_round(CLEAN), _round(burst), _round(CLEAN)])
    p99 = e2e["op_ms_p99"]
    assert p99["values"] == pytest.approx([4.0, 50.0, 4.0])
    assert p99["value"] == pytest.approx(4.0)
    # a slow op is slow in every round and stays in the tail
    slow_op = [0.002] * 80 + [0.009] * 20
    assert run.end_to_end([_round(slow_op)] * 3)["op_ms_p99"]["value"] == \
        pytest.approx(9.0)


def test_fewer_than_three_rounds_are_refused():
    with pytest.raises(SystemExit):
        run.main(["--repeats", "2", "--workload", "sso_login"])


# ----------------------------------------------------------------------
# wrappers: only in the traced pass, and fully restored
# ----------------------------------------------------------------------
def test_wrappers_exist_only_inside_the_traced_pass():
    original = vars(AuditLog)["emit"]
    dumps = json.dumps
    run_round("sso_login", 12, SMOKE_SCALE)          # untraced
    assert vars(AuditLog)["emit"] is original
    with trace.installed(trace.Recorder()):
        assert vars(AuditLog)["emit"].__wrapped__ is original
        assert json.dumps.__wrapped__ is dumps
    assert vars(AuditLog)["emit"] is original
    assert json.dumps is dumps
    run_round("sso_login", 12, SMOKE_SCALE, traced=True)
    assert vars(AuditLog)["emit"] is original
    assert json.dumps is dumps


def test_wrappers_are_restored_when_the_traced_block_raises():
    original = vars(AuditLog)["emit"]
    with pytest.raises(RuntimeError):
        with trace.installed(trace.Recorder()):
            raise RuntimeError("boom")
    assert vars(AuditLog)["emit"] is original


@pytest.mark.parametrize("name", ["access_mix", "all_tiers_mix",
                                  "directory_scale"])
def test_layer_counts_repeat_exactly_and_self_times_add_up(name):
    one = run_round(name, 12, SMOKE_SCALE, traced=True)
    two = run_round(name, 12, SMOKE_SCALE, traced=True)
    assert one["failures"] == two["failures"] == []
    counts = [m for m, unit in trace.METRICS if unit == "count"]
    assert {m: one["layers"][m] for m in counts} == \
        {m: two["layers"][m] for m in counts}
    assert one["layers"]["trace.spans"] > 0
    attributed = sum(v for m, v in one["layers"].items()
                     if m.endswith("_s") and m != "directory.invariants_s")
    op_wall = sum(calibrate.reference_time(one["latencies_s"],
                                           one["kernel_s"]))
    assert attributed == pytest.approx(op_wall, rel=0.01)


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def test_compare_verdicts():
    steady = stats.summary([99.0, 100.0, 101.0])
    assert verdict(steady, stats.summary([103.0, 104.0, 105.0]),
                   "lower", 0.10) == "within"
    assert verdict(steady, stats.summary([114.0, 115.0, 116.0]),
                   "lower", 0.10) == "worse"
    assert verdict(steady, stats.summary([114.0, 115.0, 116.0]),
                   "higher", 0.10) == "better"
    assert verdict(steady, stats.summary([84.0, 85.0, 86.0]),
                   "higher", 0.10) == "worse"
    # one side's rounds disagree by more than the bound and reach into
    # the other side's: the difference decides nothing
    noisy = stats.summary([95.0, 115.0, 135.0])
    assert verdict(steady, noisy, "lower", 0.10) == "unresolved"
    # ... unless every round of one side is past every round of the other
    apart = stats.summary([130.0, 150.0, 170.0])
    assert verdict(steady, apart, "lower", 0.10) == "worse"


# ----------------------------------------------------------------------
# the declared contract and the one command
# ----------------------------------------------------------------------
def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(trace.METRICS)
    assert spec["paths"] == ["perf"]


def test_smoke_all_five_workloads_both_passes(tmp_path):
    out = tmp_path / "smoke.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--scale",
         str(SMOKE_SCALE), "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 30
    result = json.loads(out.read_text())
    assert sorted(result["workloads"]) == sorted(WORKLOADS)
    for name, res in result["workloads"].items():
        assert res["fail_share"] == 0, (name, res["failures"])
        assert res["per_layer"]["attribution_gap"] < 0.01
        for metric in ("ops_per_s", "op_ms_p50", "op_ms_p99",
                       "late_early_ratio", "peak_rss_mb", "setup_s"):
            assert res["end_to_end"][metric]["value"] > 0
    # every line of the report names its metric and unit
    for metric, unit in trace.METRICS:
        assert f"{metric} " in proc.stdout
