"""Property-based tests for the scheduler and remaining tunnel edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.cluster import JobState, NodePool, SlurmScheduler
from repro.ids import IdFactory
from tests.conftest import Wiring


def make_scheduler(nodes=8):
    clock = SimClock()
    pool = NodePool("n", "grace-hopper", nodes)
    sched = SlurmScheduler(clock, IdFactory(3), pool,
                           charge=lambda p, h: None, **Wiring())
    return clock, pool, sched


JOBS = st.lists(
    st.tuples(st.integers(1, 8), st.floats(60, 3600)),  # (nodes, walltime)
    min_size=1, max_size=15,
)


def _serial_walltime(jobs):
    """How long until every job has finished, even run one at a time."""
    return sum(walltime for _, walltime in jobs) + 1.0


@settings(max_examples=40, deadline=None)
@given(jobs=JOBS)
def test_property_allocation_never_exceeds_pool(jobs):
    """At every scheduling instant, allocated nodes <= pool size."""
    clock, pool, sched = make_scheduler(8)
    for i, (nodes, walltime) in enumerate(jobs):
        sched.submit(f"acct{i}", "proj", nodes=nodes, walltime=walltime)
        busy = sum(1 for n in pool.nodes() if n.allocated_to is not None)
        assert busy <= len(pool.nodes())
    # liveness: everything eventually completes
    clock.run_until(clock.now() + _serial_walltime(jobs))
    assert all(j.state == JobState.COMPLETED for j in sched.jobs())
    assert pool.utilisation() == 0.0


@settings(max_examples=40, deadline=None)
@given(jobs=JOBS)
def test_property_fifo_start_order(jobs):
    """Jobs start in submission order (strict FIFO, no skipping)."""
    clock, pool, sched = make_scheduler(8)
    submitted = [
        sched.submit(f"acct{i}", "proj", nodes=nodes, walltime=walltime)
        for i, (nodes, walltime) in enumerate(jobs)
    ]
    clock.run_until(clock.now() + _serial_walltime(jobs))
    starts = [j.started_at for j in submitted]
    assert all(a <= b for a, b in zip(starts, starts[1:]))


@settings(max_examples=30, deadline=None)
@given(jobs=JOBS, cancel_idx=st.integers(0, 14))
def test_property_cancellation_preserves_invariants(jobs, cancel_idx):
    clock, pool, sched = make_scheduler(8)
    submitted = [
        sched.submit(f"acct{i}", "proj", nodes=n, walltime=w)
        for i, (n, w) in enumerate(jobs)
    ]
    if cancel_idx < len(submitted):
        sched.cancel(submitted[cancel_idx].job_id)
    clock.run_until(clock.now() + _serial_walltime(jobs))
    for job in submitted:
        assert job.state in (JobState.COMPLETED, JobState.CANCELLED)
    assert pool.utilisation() == 0.0
    # no node is left assigned to a finished job
    assert all(n.allocated_to is None for n in pool.nodes())


# ---------------------------------------------------------------------------
# zenith web-session expiry
# ---------------------------------------------------------------------------
def test_zenith_web_session_expiry_forces_fresh_login():
    from repro.core import build_isambard
    from repro.oidc import make_url

    dri = build_isambard(seed=111, rbac_default_ttl=300)
    dri.workflows.story1_pi_onboarding("una")
    s6 = dri.workflows.story6_jupyter("una")
    assert s6.ok
    una = dri.workflows.personas["una"]
    # the zenith web session dies with its RBAC token
    dri.clock.advance(400)
    dri.refresh_tunnels()
    resp, final = una.agent.get(
        make_url("edge", "/zenith/app", service="jupyter", path="/"))
    # broker session is also stale (>=3600? no: 3600 ttl, still alive) ->
    # the flow silently re-runs OIDC and lands back on the notebook
    assert resp.ok, resp.body
    assert resp.body["notebook"] == "ready"


# ---------------------------------------------------------------------------
# edge path routing details
# ---------------------------------------------------------------------------
def test_edge_routes_nested_paths():
    from repro.clock import SimClock as _C
    from repro.net import HttpRequest, HttpResponse, Service, route
    from repro.tunnels import CloudflareEdge

    class Api(Service):
        @route("GET", "/v1/items")
        def items(self, request):
            return HttpResponse.json({"path_ok": True,
                                      "q": request.query.get("k", "")})

    edge = CloudflareEdge("edge", _C(), **Wiring())
    edge.register_origin("api", Api("api"))
    req = HttpRequest("GET", "/api/v1/items", query={"k": "v"})
    req.source = "laptop"
    resp = edge.handle(req)
    assert resp.ok and resp.body["path_ok"] and resp.body["q"] == "v"


def test_edge_root_of_origin():
    from repro.clock import SimClock as _C
    from repro.net import HttpRequest, HttpResponse, Service, route
    from repro.tunnels import CloudflareEdge

    class Root(Service):
        @route("GET", "/")
        def home(self, request):
            return HttpResponse.json({"home": True})

    edge = CloudflareEdge("edge", _C(), **Wiring())
    edge.register_origin("root", Root("root"))
    req = HttpRequest("GET", "/root")
    req.source = "laptop"
    assert edge.handle(req).body["home"] is True
