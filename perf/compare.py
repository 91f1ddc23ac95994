#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py``, metric by metric.

    python perf/compare.py OLD.json NEW.json

One row per (workload, end-to-end metric): both values, the ratio
NEW/OLD with its base, the regression bound from ``BENCHMARK.json`` and
a verdict:

* ``worse``      NEW's value is worse than OLD's by more than the bound;
* ``better``     it is better by more than the bound;
* ``within``     neither;
* ``unresolved`` the spread of either side (inter-quartile distance of
  its rounds' values, over their median) exceeds the bound and the two
  sides' rounds overlap, so the difference decides nothing.

Exits non-zero on any ``worse`` and on a larger ``fail_share``.  Two sets
of runs of one commit (A/A) must come out with no ``worse`` and no
``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def spread(metric: Dict[str, object]) -> float:
    return (metric["q3"] - metric["q1"]) / metric["value"]


def verdict(old: Dict[str, object], new: Dict[str, object],
            better: str, bound: float) -> str:
    change = new["value"] / old["value"] - 1.0
    worse_by = change if better == "lower" else -change
    overlap = (min(new["values"]) <= max(old["values"])
               and min(old["values"]) <= max(new["values"]))
    if max(spread(old), spread(new)) > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def compare(old: Dict[str, object], new: Dict[str, object],
            spec: Dict[str, object]) -> int:
    """Print the table; returns the number of regressions."""
    regressions = 0
    print(f"OLD {old['commit'][:12]} seed {old['seed']} scale {old['scale']}"
          f"   NEW {new['commit'][:12]} seed {new['seed']} "
          f"scale {new['scale']}")
    if (old["seed"], old["scale"]) != (new["seed"], new["scale"]):
        print("warning: seeds or scales differ; the sides did not do "
              "identical work")
    print(f"{'workload':<16}{'metric':<18}{'OLD':>11}{'NEW':>11}"
          f"{'NEW/OLD':>9}  {'unit':<6}{'bound':>7}"
          f"{'spread OLD/NEW':>17}  verdict")
    for name in old["workloads"]:
        if name not in new["workloads"]:
            continue
        a, b = old["workloads"][name], new["workloads"][name]
        for m in spec["end_to_end"]:
            metric = m["name"]
            x, y = a["end_to_end"][metric], b["end_to_end"][metric]
            word = verdict(x, y, m["better"], m["bound"])
            regressions += word == "worse"
            sign = "+" if m["better"] == "lower" else "-"
            print(f"{name:<16}{metric:<18}{x['value']:>11.4g}"
                  f"{y['value']:>11.4g}{y['value'] / x['value']:>9.3f}"
                  f"  {m['unit']:<6}{sign}{100 * m['bound']:>4.0f} %"
                  f"{100 * spread(x):>8.1f} %{100 * spread(y):>6.1f} %"
                  f"  {word}")
        word = "worse" if b["fail_share"] > a["fail_share"] else "within"
        regressions += word == "worse"
        print(f"{name:<16}{'fail_share':<18}{a['fail_share']:>11.4g}"
              f"{b['fail_share']:>11.4g}{'':>9}  {'fraction':<9}"
              f"any increase{'':>11}  {word}")
    print("ratio base: the OLD column, in the unit shown")
    return regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return 1 if compare(old, new, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
