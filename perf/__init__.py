"""Wall-clock benchmark of the repo's public API (see perf/README.md).

Lives outside ``src/`` and ``benchmarks/`` on purpose: those trees must
replay from ``SimClock`` and CI's determinism lint rejects
``time.perf_counter`` there.  This is the one place that reads the real
clock.
"""
