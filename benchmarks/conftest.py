"""Shared plumbing for the benchmark harness.

Every bench regenerates one paper artefact (figure, user story, scale
claim or ablation).  The printed/saved tables are the reproduction
output: compare their *shape* with the paper (who wins, what is denied,
where the crossover falls) rather than absolute timings — the substrate
is a simulator, not the authors' testbed.

Tables are written to ``benchmarks/results/<id>.txt`` and echoed to
stdout (visible with ``pytest -s``).  A ``BENCH_QUICK=1`` run (the one
smoke switch: every ablation shrinks to CI size) only echoes: the
committed tables are the full-mode baseline that "byte-identical output"
is checked against.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture()
def report():
    """Save + echo one bench's reproduction table."""

    quick = os.environ.get("BENCH_QUICK") == "1"

    def _report(name: str, text: str) -> None:
        if not quick:
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _report
