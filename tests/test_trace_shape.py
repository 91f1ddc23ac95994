"""Refactor oracle for trace propagation: the shape of every trace, pinned.

Behavioural tests say a trace is connected; they do not say a rewrite of
how the context travels between hops minted the same span ids under the
same parents with the same attributes, stamped the same audit records
with the same trace id, or fed the same metric series.  For stories 1–6
and a relogin, on a default build and on an all-tiers build, plus one
retried call and two hedged ones (a client kit's, a balancer's), this
pins — per story — every span opened, the ``trace_id`` stamp of every
audit record of every log, and the OpenMetrics exposition.

Regenerate after an *intentional* change to what is traced with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_trace_shape.py

then read the diff before committing it: a moved ``spans`` hash with the
count unchanged means an id, parent, time or attribute moved; a moved
``audit_trace_ids`` entry means some record gained or lost its stamp.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import partial

import pytest

from repro.audit import AuditLog
from repro.clock import SimClock
from repro.core import build_isambard
from repro.net import (HttpRequest, HttpResponse, Network, OperatingDomain,
                       Service, Zone, route)
from repro.resilience import FaultInjector, Resilience, RetryPolicy
from repro.resilience.tail import MIN_SAMPLES, TailConfig, TailController
from repro.scale.balancer import LoadBalancer, ReplicaPool
from repro.telemetry import Telemetry
from tests.conftest import Wiring, golden
from tests.test_deployment_fingerprint import OPT_IN

BUILDS = {
    "default": {},
    "all-tiers": {flag: True for flag in OPT_IN},
}


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode()).hexdigest()


def _span_row(span) -> list:
    return [span.trace_id, span.span_id, span.parent_id, span.name,
            span.service, span.kind, span.start, span.end, span.status,
            span.error, sorted(span.attrs.items())]


class _Recorder:
    """Cuts one deployment's span store, audit logs and exposition into
    per-story slices."""

    def __init__(self, tele: Telemetry, logs) -> None:
        self.tele = tele
        self.logs = dict(logs)
        self.spans_seen = 0
        self.events_seen = {name: 0 for name in self.logs}
        self.shape: dict = {}

    def cut(self, story: str) -> None:
        store = self.tele.store
        assert store.compactions == 0, "a compaction would hide spans"
        assert store.orphans() == [], f"{story}: a hop dropped its context"
        assert store.unfinished() == [], f"{story}: a span was left open"
        spans = store.spans()[self.spans_seen:]
        self.spans_seen += len(spans)
        stamps = {}
        for name, log in sorted(self.logs.items()):
            events = log.events()[self.events_seen[name]:]
            self.events_seen[name] += len(events)
            stamps[name] = {
                "events": len(events),
                "hash": _digest([e.attrs.get("trace_id") for e in events]),
            }
        self.shape[story] = {
            "span_count": len(spans),
            "spans": _digest([_span_row(s) for s in spans]),
            "audit_trace_ids": stamps,
            "exposition": hashlib.sha256(
                self.tele.exposition().encode()).hexdigest(),
        }


def deployment_shape(flags) -> dict:
    dri = build_isambard(seed=42, **flags)
    wf = dri.workflows
    rec = _Recorder(dri.telemetry, dri.logs)
    rec.cut("build")
    s1 = wf.story1_pi_onboarding("alice")
    assert s1.ok, s1.steps
    rec.cut("story1")
    assert wf.story2_admin_registration("ops1").ok
    rec.cut("story2")
    assert wf.story3_researcher_setup(s1.data["project_id"], "alice", "bob").ok
    rec.cut("story3")
    assert wf.story4_ssh_session("bob").ok
    rec.cut("story4")
    assert wf.story5_privileged_operation("ops1").ok
    rec.cut("story5")
    assert wf.story6_jupyter("bob").ok
    rec.cut("story6")
    assert wf.relogin(wf.personas["bob"]).ok
    rec.cut("relogin")
    dri.ship_logs()
    rec.cut("ship_logs")
    return rec.shape


class _Pong(Service):
    @route("GET", "/ping")
    def ping(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json({"pong": True})


def _fabric(seed: int):
    """A chaos-wired, traced network with one ``srv`` and one ``client``."""
    clock = SimClock()
    faults = FaultInjector(clock, random.Random(seed))
    network = Network(clock, audit=AuditLog("net"), faults=faults)
    network.telemetry = Telemetry(clock)
    client = Service("client")
    network.attach(client, OperatingDomain.FDS, Zone.ACCESS)
    network.attach(_Pong("srv"), OperatingDomain.FDS, Zone.ACCESS)
    return clock, faults, network, client


def _traced_ping(network, client, dst: str, name: str) -> None:
    """One GET /ping whose context arrives as a W3C header, the way a
    request from outside the deployment would carry it."""
    tele = network.telemetry
    root = tele.tracer.start_trace(name, service=client.name)
    request = HttpRequest("GET", "/ping")
    root.context().inject(request.headers)
    assert client.call(dst, request).ok
    tele.tracer.end(root)


def retried_call_shape() -> dict:
    clock, faults, network, client = _fabric(7)
    client.resilience = Resilience(
        "client", clock, random.Random(1),
        policy=RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.0))
    rec = _Recorder(network.telemetry, {"net": network.audit})
    faults.outage("srv", duration=0.5)  # first attempt fails, retry wins
    _traced_ping(network, client, "srv", "retry probe")
    assert client.resilience.metrics.retries == 1
    rec.cut("retried")
    return rec.shape


def kit_hedged_call_shape() -> dict:
    clock, faults, network, client = _fabric(5)
    kit = Resilience("client", clock, random.Random(7),
                     policy=RetryPolicy(max_attempts=3, base_delay=0.01,
                                        jitter=0.0))
    kit.tail = TailController(clock, TailConfig(
        adaptive_deadlines=False, ejection=False, retry_budget=False),
        **Wiring(clock))
    client.resilience = kit
    rec = _Recorder(network.telemetry, {"net": network.audit})
    for i in range(MIN_SAMPLES):
        _traced_ping(network, client, "srv", f"warm {i}")
    faults.slow_replica("srv", 0.5)
    _traced_ping(network, client, "srv", "hedge probe")
    assert kit.metrics.hedges == 1
    rec.cut("kit_hedged")
    return rec.shape


def balancer_hedged_call_shape() -> dict:
    clock, faults, network, client = _fabric(5)
    lb_audit = AuditLog("lb")
    pool = ReplicaPool("svc", network, OperatingDomain.FDS, Zone.ACCESS,
                       network.endpoint("srv").service)
    pool.scale_to(3)
    lb = LoadBalancer(
        "svc-lb", clock, pool, audit=lb_audit,
        telemetry=network.telemetry,
        tail=TailConfig(ejection=False, retry_budget=False))
    network.attach(lb, OperatingDomain.FDS, Zone.ACCESS)
    rec = _Recorder(network.telemetry, {"net": network.audit, "lb": lb_audit})
    # a multiple of the three replicas, so the gray one is next in line
    for i in range(MIN_SAMPLES + 1):
        _traced_ping(network, client, "svc-lb", f"warm {i}")
    faults.slow_replica("svc-r1", 0.3)
    # the gray replica goes first once: the hedged loser counts as its
    # attempt, so the second probe goes to the replica that sat out
    for i in range(2):
        _traced_ping(network, client, "svc-lb", f"hedge probe {i}")
    assert (lb.hedges, lb.hedge_wins) == (1, 1)
    rec.cut("balancer_hedged")
    return rec.shape


SHAPES = {
    **{name: partial(deployment_shape, flags)
       for name, flags in BUILDS.items()},
    "retried-call": retried_call_shape,
    "kit-hedged-call": kit_hedged_call_shape,
    "balancer-hedged-call": balancer_hedged_call_shape,
}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return golden("trace_shape.json", lambda: {
        name: shape() for name, shape in SHAPES.items()})


@pytest.mark.parametrize("name", list(SHAPES))
def test_trace_shape_matches_the_recording(recorded, name):
    got = json.loads(json.dumps(SHAPES[name]()))
    want = recorded[name]
    for story in want:
        for key in want[story]:
            assert got[story][key] == want[story][key], \
                f"{name}: {story}: {key} moved"
    assert got.keys() == want.keys()
