#!/usr/bin/env python3
"""The wall-clock benchmark: five workloads, end to end and layer by layer.

    PYTHONPATH=src python perf/run.py            # everything, both passes
    python3 perf/run.py --workload sso_login --seed 3 --trace 0

Each workload runs as a sequence of *rounds*, every round in a fresh
child process (``python -m perf.workloads``) started strictly one after
another — the parent only waits.  The untraced pass runs ``--repeats``
rounds of the same seed, computes the end-to-end metrics of each round
and reports their median over the rounds; the traced pass runs one round
with the wrappers of ``perf/trace.py`` installed and reports the
per-layer metrics.  See ``perf/README.md`` for what every number means.

Exit status is non-zero if any op had an outcome other than the expected
one, any post-run invariant failed, or a child could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perf import calibrate, stats  # noqa: E402  (needs ROOT on the path)
from perf.trace import METRICS as LAYER_METRICS  # noqa: E402

WORKLOADS = ("sso_login", "onboard_wave", "access_mix", "all_tiers_mix",
             "directory_scale")
# name, unit — BENCHMARK.json carries the same names with their bounds;
# fail_share travels as attempted/failed because a bounded metric may
# never read 0
END_TO_END = (("ops_per_s", "ops/s"), ("op_ms_p50", "ms"),
              ("op_ms_p99", "ms"), ("late_early_ratio", "ratio"),
              ("peak_rss_mb", "MiB"), ("setup_s", "s"))
PER_OP = ("audit.events", "net.hops", "crypto.verify_calls", "json.calls")
CHILD_TIMEOUT_S = 170  # a run must end inside the driver's 180 s


def run_child(workload: str, seed: int, scale: float, *,
              traced: bool = False, spans: Optional[Path] = None
              ) -> Dict[str, object]:
    """One round in a fresh interpreter; returns its raw result."""
    cmd = [sys.executable, "-m", "perf.workloads", "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale),
           "--trace", str(int(traced))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: round exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def durations(r: Dict[str, object], key: str, reference: bool) -> List[float]:
    """A round's per-op ``latencies_s`` or ``cycles_s``, in reference-box
    time (see ``perf/calibrate.py``) or as the raw wall-clock measured."""
    return (calibrate.reference_time(r[key], r["kernel_s"]) if reference
            else r[key])


def round_metrics(r: Dict[str, object], reference: bool) -> Dict[str, float]:
    """The six end-to-end metrics of one round."""
    lat = durations(r, "latencies_s", reference)
    steps = (calibrate.reference_time(r["setup_steps_s"], r["setup_kernel_s"])
             if reference else r["setup_steps_s"])
    tenth = max(1, len(lat) // 10)
    return {
        "ops_per_s": ((len(lat) - r["failed_timed"])
                      / sum(durations(r, "cycles_s", reference))),
        "op_ms_p50": 1e3 * median(lat),
        "op_ms_p99": 1e3 * stats.tail(lat)[1],
        "late_early_ratio": median(lat[-tenth:]) / median(lat[:tenth]),
        "peak_rss_mb": r["peak_rss_mb"],
        "setup_s": sum(steps),
    }


def typical_tail(rounds: Sequence[Dict[str, object]], reference: bool) -> float:
    """``op_ms_p99`` of the *typical round*: op *i* is the same op in every
    round of a seed, and its latency here is its median over the rounds.

    A burst of preemption on the shared box adds milliseconds to a few
    dozen consecutive ops of one round — enough to own that round's
    tail, but it hits other ops in the next round.  Over ten seeds the
    median of the rounds' own tails spread 13.4 % between runs on
    ``sso_login`` and 12.2 % on ``directory_scale`` (bound 15 %) where
    this spread 2.5 and 6.9 % (``perf/results/SPREAD_12.json``).
    """
    columns = zip(*(durations(r, "latencies_s", reference) for r in rounds))
    return 1e3 * stats.tail([median(col) for col in columns])[1]


def box_slowdown(r: Dict[str, object]) -> float:
    """Median calibration-kernel time of a round over its reference: how
    much slower than the reference box this one ran, for the record."""
    return median(r["kernel_s"]) / calibrate.REF_S


def end_to_end(rounds: Sequence[Dict[str, object]]) -> Dict[str, dict]:
    """Per metric its value in every round, their median (the reported
    value, except the tail: see :func:`typical_tail`) and quartiles, in
    reference-box time; and the same in raw wall-clock."""
    ref = [round_metrics(r, reference=True) for r in rounds]
    raw = [round_metrics(r, reference=False) for r in rounds]
    out = {}
    for name, unit in END_TO_END:
        raw_values = [m[name] for m in raw]
        out[name] = dict(stats.summary([m[name] for m in ref]), unit=unit,
                         raw_value=median(raw_values), raw_values=raw_values)
    out["op_ms_p99"]["value"] = typical_tail(rounds, reference=True)
    out["op_ms_p99"]["raw_value"] = typical_tail(rounds, reference=False)
    samples = len(rounds[0]["latencies_s"])
    out["op_ms_p50"]["samples"] = out["op_ms_p99"]["samples"] = samples
    out["op_ms_p99"]["percentile"] = stats.tail_percent(samples)
    return out


def timed_s(r: Dict[str, object]) -> float:
    """A round's timed phase in reference time."""
    return sum(durations(r, "cycles_s", reference=True))


def per_layer(traced: Dict[str, object],
              rounds: Sequence[Dict[str, object]]) -> dict:
    """The traced round's aggregates, all in reference-box time."""
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = timed_s(traced) / median(
        timed_s(r) for r in rounds)
    latencies = durations(traced, "latencies_s", reference=True)
    op_wall = sum(latencies)
    times = {k: v for k, v in layers.items()
             if k.endswith("_s") and k != "directory.invariants_s"}
    n_ops = len(latencies)

    def shares(agg: Dict[str, float]) -> Dict[str, float]:
        total = sum(agg[k] for k in times)
        return {k: agg[k] / total for k in times if agg[k]}

    return {
        "metrics": layers,
        "op_wall_s": op_wall,
        # how far summed self time + unattributed is from summed op wall
        "attribution_gap": abs(sum(times.values()) - op_wall) / op_wall,
        "share_of_op_wall": shares(layers),
        "share_first_decile": shares(traced["first_decile"]),
        "share_last_decile": shares(traced["last_decile"]),
        "per_op": {k: layers[k] / n_ops for k in PER_OP},
    }


# ----------------------------------------------------------------------
def measure(workload: str, args: argparse.Namespace) -> Dict[str, object]:
    """All rounds of one workload for the passes asked for."""
    want_e2e = args.trace in ("0", "both")
    # the traced pass alone still needs one untraced round, for overhead
    rounds = [run_child(workload, args.seed, args.scale)
              for _ in range(args.repeats if want_e2e else 1)]
    result: Dict[str, object] = {
        "plan_hash": rounds[0]["plan_hash"],
        "timed_ops": len(rounds[0]["latencies_s"]),
    }
    counted = list(rounds)
    if want_e2e:
        result["box_slowdown"] = [box_slowdown(r) for r in rounds]
        result["end_to_end"] = end_to_end(rounds)
    if args.trace in ("1", "both"):
        out_dir = ROOT / "perf" / "out"
        out_dir.mkdir(exist_ok=True)
        traced = run_child(
            workload, args.seed, args.scale, traced=True,
            spans=out_dir / f"spans_{workload}_seed{args.seed}.csv")
        result["per_layer"] = per_layer(traced, rounds)
        counted.append(traced)
    failures = [f for r in counted for f in r["failures"]]
    result["attempted"] = sum(r["attempted"] for r in counted)
    result["failed"] = len(failures)
    result["fail_share"] = len(failures) / result["attempted"]
    result["failures"] = failures[:20]
    return result


def fmt(value: float, unit: str) -> str:
    if unit == "count":
        return f"{int(value):,}"
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def report(name: str, res: Dict[str, object]) -> None:
    print(f"\n== {name}: {res['timed_ops']} timed ops/round, "
          f"{res['attempted']} attempted, {res['failed']} failed "
          f"(fail_share {res['fail_share']:.4f} fraction)")
    for failure in res["failures"]:
        print(f"   FAILED {failure}")
    e2e = res.get("end_to_end")
    if e2e:
        slow = " ".join(f"{s:.2f}x" for s in res["box_slowdown"])
        print(f"   end to end, reference-box time: median of "
              f"{len(res['box_slowdown'])} rounds [each round] (raw "
              f"wall-clock median); the box ran the reference kernel "
              f"{slow} slow:")
        for metric, unit in END_TO_END:
            m = e2e[metric]
            note = ""
            if "percentile" in m:
                note = f"  p{m['percentile']} of {m['samples']} ops"
            elif "samples" in m:
                note = f"  {m['samples']} ops"
            print(f"   {metric:<18}{fmt(m['value'], unit):>12} {unit:<6}"
                  f" [{' '.join(fmt(v, unit) for v in m['values'])}]"
                  f" ({fmt(m['raw_value'], unit)}){note}")
    layers = res.get("per_layer")
    if layers:
        print(f"   per layer, one traced round "
              f"(self time summed over {res['timed_ops']} ops; "
              f"share of op wall-clock):")
        share = layers["share_of_op_wall"]
        for metric, unit in LAYER_METRICS:
            value = layers["metrics"][metric]
            pct = f"{100 * share[metric]:5.1f} %" if metric in share else ""
            print(f"   {metric:<32}{fmt(value, unit):>12} {unit:<6}{pct}")
        print("   per op: " + ", ".join(
            f"{k} {v:.1f}" for k, v in layers["per_op"].items()))
        print(f"   attribution gap {layers['attribution_gap']:.2e} of "
              f"{layers['op_wall_s']:.3f} s op wall-clock")
        if e2e and name == "onboard_wave":
            first, last = (layers["share_first_decile"],
                           layers["share_last_decile"])
            print("   late_early_ratio "
                  f"{e2e['late_early_ratio']['value']:.3f}; "
                  "first -> last decile share: " + ", ".join(
                      f"{k} {100 * first.get(k, 0):.1f} % -> "
                      f"{100 * last.get(k, 0):.1f} %"
                      for k in ("telemetry.slo_s", "portal.self_s")))


def driver_line(res: Dict[str, object], traced: bool) -> str:
    """The one JSON object the benchmark contract asks for."""
    if traced:
        units = dict(LAYER_METRICS)
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in res["per_layer"]["metrics"].items()}
    else:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in res["end_to_end"].items()}
    return json.dumps({"correct": res["failed"] == 0,
                       "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # a bare checkout is not a repository


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default: all five")
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--repeats", type=int, default=3,
                    help="untraced pass: rounds per workload, at least 3 "
                         "(default 3)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="one common factor on every count (default 1.0, "
                         "the full-size workloads)")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="both",
                    help="0: end-to-end pass only (--no-trace); 1: traced "
                         "pass only; default both")
    ap.add_argument("--out", type=Path,
                    default=ROOT / "perf" / "out" / "bench.json",
                    help="result file for this set of runs")
    ap.add_argument("--seconds", type=float,
                    help="the benchmark driver passes its nominal run "
                         "length; op counts are fixed, so nothing reads it")
    args = ap.parse_args(argv)
    if args.repeats < 3:
        ap.error("--repeats: quartiles need at least 3 rounds")
    names = args.workload or list(WORKLOADS)

    results = {name: measure(name, args) for name in names}
    for name in names:
        report(name, results[name])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "commit": commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "seed": args.seed, "scale": args.scale,
        "repeats": args.repeats,
        "workloads": results,
    }, indent=1) + "\n")
    print(f"\nresult file: {args.out}")
    if len(names) == 1 and args.trace != "both":
        print(driver_line(results[names[0]], traced=args.trace == "1"))
    return 1 if any(r["failed"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
