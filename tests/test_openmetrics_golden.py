"""Golden-file test for the OpenMetrics exposition.

The exposition format is a contract with whatever scrapes ``/metrics``:
family ordering is alphabetical, series within a family sort by label
key, exemplars trail histogram bucket lines, and label values escape
backslash / double-quote / newline.  A refactor that silently reorders
or re-escapes output would break downstream parsers without failing any
behavioural test — so the full text is pinned byte-for-byte.

Regenerate after an *intentional* format change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_openmetrics_golden.py

then eyeball the diff before committing it.
"""

from __future__ import annotations

import pytest

from repro.telemetry.metrics import MetricsRegistry
from tests.conftest import golden

pytestmark = pytest.mark.pipeline


def build_registry() -> MetricsRegistry:
    """A registry exercising every exposition feature deterministically."""
    reg = MetricsRegistry()

    # counter: multiple series, label values needing every escape
    requests = reg.counter(
        "repro_http_requests_total", "Requests by destination and path")
    requests.inc(3, dst="broker", path="/token")
    requests.inc(dst="broker", path='we"ird\\path\nnl')
    requests.inc(2, dst="zenith", path="/app/jupyter")

    # gauge: float and integer-valued series
    sessions = reg.gauge("repro_live_sessions", "Live sessions per surface")
    sessions.set(4, surface="ssh")
    sessions.set(1.5, surface="tunnels")

    # histogram: exemplars on distinct buckets, one empty-label series
    latency = reg.histogram(
        "repro_login_duration_seconds", "Federated login latency",
        buckets=(0.1, 0.5, 2.5))
    latency.observe(0.04, trace_id="tr-fast", time=10.0, idp="myaccessid")
    latency.observe(0.3, idp="myaccessid")
    latency.observe(1.9, trace_id="tr-slow", time=12.5, idp="myaccessid")
    latency.observe(7.0, trace_id="tr-tail", time=13.0, idp="myaccessid")
    latency.observe(0.2)

    # cardinality budget: second label set folds into __overflow__ and
    # mints the dropped-labels counter
    shed = reg.counter(
        "repro_admission_shed_total", "Shed requests", max_series=1)
    shed.inc(5, tenant="proj-0001")
    shed.inc(tenant="proj-0002")
    shed.inc(tenant="proj-0003")

    return reg


def test_exposition_matches_golden_file():
    text = build_registry().expose()
    assert text == golden("openmetrics.txt", text)


def test_golden_file_covers_the_contract():
    """Belt-and-braces: the pinned text actually contains the features
    this test exists to protect, so a bad regen can't hollow it out."""
    text = golden("openmetrics.txt", lambda: build_registry().expose())
    # escaping
    assert 'path="we\\"ird\\\\path\\nnl"' in text
    # exemplars trail bucket lines
    assert '# {trace_id="tr-slow"} 1.9 12.5' in text
    assert '# {trace_id="tr-tail"} 7 13' in text
    # +Inf bucket and _sum/_count per series
    assert 'le="+Inf"' in text
    assert "repro_login_duration_seconds_sum " in text
    # cardinality overflow series and the meter counting it
    assert 'tenant="__overflow__"} 2' in text
    assert ('repro_metrics_dropped_labels_total'
            '{family="repro_admission_shed_total"} 2') in text
    # families are alphabetical and the stream is terminated
    families = [ln.split()[2] for ln in text.splitlines()
                if ln.startswith("# TYPE")]
    assert families == sorted(families)
    assert text.endswith("# EOF\n")
