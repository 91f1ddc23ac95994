"""Order statistics for the runner: the tail rule, and what a result
file keeps per metric."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

__all__ = ["MIN_BEYOND", "tail_percent", "tail", "summary"]

MIN_BEYOND = 10  # a percentile is reported only with this many samples past it


def tail_percent(n: int, want: int = 99) -> int:
    """The highest whole percentile <= ``want`` that still has at least
    ``MIN_BEYOND`` of ``n`` samples beyond it (nearest rank): 1 000
    samples give 99, 400 give 97, 300 give 96.  50 when there is no tail
    to speak of."""
    for p in range(want, 50, -1):
        if n - math.ceil(p * n / 100) >= MIN_BEYOND:
            return p
    return 50


def tail(values: Sequence[float], want: int = 99) -> Tuple[int, float]:
    """(percentile used, tail latency there): the mean of the
    ``MIN_BEYOND + 1`` order statistics centred on the percentile's
    nearest rank, so at least ``MIN_BEYOND // 2`` samples still lie
    beyond the window.

    One order statistic is too few where the tail is a few dozen very
    slow ops: on ``all_tiers_mix`` the ops that carry a journal snapshot
    take 15-50x the median and lie 2-10 ms apart, so one rank either way
    moves the nearest-rank value by several per cent.  Over ten seeds of
    that workload the nearest rank varied 3.9 % (cv) from seed to seed
    and this window 2.4 %; on the other four workloads, whose tails are
    dense at the size ``BENCHMARK.json`` runs, the two read the same
    within 1.5 %.
    """
    pct = tail_percent(len(values), want)
    rank = math.ceil(pct * len(values) / 100) - 1
    half = MIN_BEYOND // 2
    window = sorted(values)[max(0, rank - half):rank + half + 1]
    return pct, sum(window) / len(window)


def summary(values: Sequence[float]) -> Dict[str, object]:
    """What a result file keeps for one metric: its value in every round,
    their median (the reported value) and their quartiles (what the
    comparer calls the run-to-run spread)."""
    q1, value, q3 = statistics.quantiles(values, n=4)
    return {"value": value, "q1": q1, "q3": q3, "values": list(values)}
