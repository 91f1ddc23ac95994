"""Shared plumbing for the benchmark harness.

Every bench regenerates one paper artefact (figure, user story, scale
claim or ablation).  The printed/saved tables are the reproduction
output: compare their *shape* with the paper (who wins, what is denied,
where the crossover falls) rather than absolute timings — the substrate
is a simulator, not the authors' testbed.

Tables are written to ``benchmarks/results/<id>.txt`` and echoed to
stdout (visible with ``pytest -s``).  A run with any ``*_QUICK=1`` smoke
switch set only echoes: the committed tables are the full-mode baseline
that "byte-identical output" is checked against.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture()
def report():
    """Save + echo one bench's reproduction table."""

    quick = any(key.endswith("_QUICK") and value == "1"
                for key, value in os.environ.items())

    def _report(name: str, text: str) -> None:
        if not quick:
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _report
