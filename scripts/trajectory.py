"""Print the benchmark trajectory: every committed ``BENCH_*.json``, in PR order.

    python scripts/trajectory.py

Points run with the same seed and scale form one table: per workload and
end-to-end metric, each point's value and, against the point before it,
``perf/compare.py``'s verdict — better, within or worse by the metric's
bound, or unresolved when either side's rounds spread past the bound and
overlap.  A move inside the bound reads ``within``: these are single runs
on a shared box, and the ten-pair medians in CHANGES.md are the claims."""
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perf.compare import verdict  # noqa: E402

WORD = {"better": "+", "within": "=", "worse": "-", "unresolved": "?"}


def points():
    """(label, result) per file, PR order; ``perf/results`` holds PR 12's."""
    found = [(path.stem[len("BENCH_"):], json.loads(path.read_text()))
             for where in (ROOT, ROOT / "perf" / "results")
             for path in where.glob("BENCH_*.json")]
    return sorted(found, key=lambda p: (int(re.match(r"\d+", p[0])[0]), p[0]))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = {}
    for label, result in points():
        groups.setdefault((result["scale"], result["seed"]), []).append(
            (label, result))
    for (scale, seed), series in groups.items():
        labels = [label for label, _ in series]
        if len(series) == 1:
            print(f"\nscale {scale} seed {seed}: {labels[0]} alone")
            continue
        print(f"\nscale {scale} seed {seed}: {' -> '.join(labels)}  "
              f"(+ better, = within, - worse, ? unresolved)")
        for workload in series[-1][1]["workloads"]:
            for m in spec["end_to_end"]:
                cells, prev = [], None
                for _, result in series:
                    cur = result["workloads"].get(workload, {}).get(
                        "end_to_end", {}).get(m["name"])
                    mark = (WORD[verdict(prev, cur, m["better"], m["bound"])]
                            if prev and cur else " ")
                    cells.append(f"{cur['value']:>9.4g} {mark}" if cur
                                 else f"{'-':>9}  ")
                    prev = cur
                print(f"{workload:<16}{m['name']:<17}" + " ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
