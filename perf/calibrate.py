"""Reference-box time: telling a slow box from a slow program.

The box the benchmark runs on is shared.  It executes the same code at
its full clock one moment and 1.4-1.8x slower the next, for milliseconds
or for minutes on end, so raw wall-clock of one commit spreads 12-38 %
between runs where the metrics' bounds are 10-15 %
(``perf/results/SPREAD_12.json``).  A round therefore times a fixed
:func:`kernel` after every op (and every step of set-up), outside the
op's own timing, and every duration is divided by how much slower than
on the reference box the kernel ran around it.  A slow box slows kernel
and op alike and cancels; a slow program does not.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import List, Sequence

__all__ = ["REF_S", "NEAR", "kernel", "slowdowns", "reference_time"]

# kernel() on the unloaded 2.1 GHz Xeon vCPU the first baseline was taken
# on; "reference-box time" means a box that runs it in this long
REF_S = 143e-6
NEAR = 5  # kernel samples either side of a duration that set its scale


def kernel() -> None:
    """A fixed slice of the kind of work the simulator does: dict and
    string building, a JSON round trip, one digest."""
    record = {f"k{i}": (i * 7) % 13 for i in range(150)}
    text = json.dumps(record, sort_keys=True)
    hashlib.sha256(text.encode()).hexdigest()
    json.loads(text)


def slowdowns(samples: Sequence[float]) -> List[float]:
    """Per duration, how much slower than the reference box the box ran
    around it.  ``samples[i]`` is the kernel's time right after duration
    ``i``; the local value is the median of ``NEAR`` samples either side,
    so one interrupted kernel run does not rescale an op."""
    return [statistics.median(samples[max(0, i - NEAR - 1):i + NEAR + 1])
            / REF_S for i in range(len(samples))]


def reference_time(durations: Sequence[float],
                   samples: Sequence[float]) -> List[float]:
    return [d / s for d, s in zip(durations, slowdowns(samples))]
