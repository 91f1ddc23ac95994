"""Unit tests for the cluster substrate: nodes, scheduler, Jupyter, storage."""

import pytest

from repro.broker import RbacTokenValidator, Role, TokenService
from repro.clock import SimClock
from repro.cluster import (
    JobState,
    JupyterService,
    ManagementNode,
    NodePool,
    ParallelFilesystem,
    SlurmScheduler,
)
from repro.core import build_isambard
from repro.crypto import JwkSet
from repro.crypto.keys import generate_signing_key
from repro.errors import (
    AuthorizationError,
    QuotaExceeded,
    SchedulerError,
)
from repro.ids import IdFactory
from repro.net import HttpRequest
from repro.tunnels.tailnet import NODE_HEADER
from repro.tunnels.zenith import TOKEN_HEADER
from tests.conftest import Wiring

ISS = "https://broker"


@pytest.fixture()
def clock():
    return SimClock(start=0.0)


@pytest.fixture()
def pool():
    return NodePool("gh", "grace-hopper", 8, gpus_per_node=4)


# ---------------------------------------------------------------------------
# node pool
# ---------------------------------------------------------------------------
def test_pool_allocate_release(pool):
    taken = pool.allocate(3, "job-1")
    assert len(taken) == 3
    assert len(pool.free_nodes()) == 5
    assert pool.utilisation() == pytest.approx(3 / 8)
    assert pool.release("job-1") == 3
    assert pool.utilisation() == 0.0


def test_pool_allocate_insufficient(pool):
    pool.allocate(8, "big")
    with pytest.raises(SchedulerError):
        pool.allocate(1, "small")


def test_pool_down_node_not_free(pool):
    pool.set_up("gh-0000", False)
    assert len(pool.free_nodes()) == 7


# ---------------------------------------------------------------------------
# slurm
# ---------------------------------------------------------------------------
@pytest.fixture()
def slurm(clock, pool):
    budget = {"proj1": 10_000.0}

    def charge(project, hours):
        if budget.get(project, 0.0) < hours:
            raise QuotaExceeded(f"{project} exhausted")
        budget[project] -= hours

    sched = SlurmScheduler(clock, IdFactory(2), pool, charge, **Wiring())
    return sched, budget


def test_job_lifecycle(slurm, clock):
    sched, _ = slurm
    job = sched.submit("alice.proj1", "proj1", nodes=2, walltime=3600)
    assert job.state == JobState.RUNNING  # nodes were free
    clock.advance(3601)
    assert job.state == JobState.COMPLETED
    assert sched.pool.utilisation() == 0.0


def test_jobs_queue_when_cluster_full(slurm, clock):
    sched, _ = slurm
    first = sched.submit("alice.proj1", "proj1", nodes=8, walltime=100)
    second = sched.submit("alice.proj1", "proj1", nodes=4, walltime=100)
    assert (first.state, second.state) == (JobState.RUNNING, JobState.PENDING)
    clock.advance(101)
    assert first.state == JobState.COMPLETED
    assert second.state == JobState.RUNNING


def test_job_charges_allocation(slurm):
    sched, budget = slurm
    sched.submit("alice.proj1", "proj1", nodes=2, walltime=3600)  # 8 gpu-hours
    assert budget["proj1"] == pytest.approx(10_000 - 8)


def test_job_rejected_when_allocation_exhausted(slurm):
    sched, budget = slurm
    budget["proj1"] = 1.0
    with pytest.raises(QuotaExceeded):
        sched.submit("alice.proj1", "proj1", nodes=2, walltime=3600)
    assert sched.jobs() == []


def test_job_validation(slurm):
    sched, _ = slurm
    with pytest.raises(SchedulerError):
        sched.submit("a", "proj1", nodes=0)
    with pytest.raises(SchedulerError):
        sched.submit("a", "proj1", walltime=0)
    with pytest.raises(SchedulerError):
        sched.submit("a", "proj1", walltime=10**9)
    with pytest.raises(SchedulerError):
        sched.submit("a", "proj1", nodes=999)


def test_cancel_running_job_frees_nodes(slurm, clock):
    sched, _ = slurm
    job = sched.submit("alice.proj1", "proj1", nodes=8, walltime=1000)
    queued = sched.submit("bob.proj1", "proj1", nodes=2, walltime=100)
    assert sched.cancel(job.job_id)
    assert job.state == JobState.CANCELLED
    assert queued.state == JobState.RUNNING  # backfilled immediately
    assert not sched.cancel(job.job_id)  # idempotent


def test_cancel_account_sweep(slurm):
    sched, _ = slurm
    sched.submit("mallory.proj1", "proj1", nodes=2, walltime=1000)
    sched.submit("mallory.proj1", "proj1", nodes=2, walltime=1000)
    sched.submit("alice.proj1", "proj1", nodes=2, walltime=1000)
    assert sched.sever("mallory.proj1", "killswitch") == 2
    assert len(sched.jobs(JobState.CANCELLED)) == 2


# ---------------------------------------------------------------------------
# jupyter (local validation only; the introspection path is integration)
# ---------------------------------------------------------------------------
@pytest.fixture()
def jupyter(clock, pool):
    ids = IdFactory(4)
    key = generate_signing_key("EdDSA", kid="bk")
    tokens = TokenService(clock, ids, key, ISS, **Wiring())
    validator = RbacTokenValidator(
        clock, ISS, "jupyter", JwkSet([key.public()]), tokens.is_revoked
    )
    service = JupyterService(
        "jupyter", clock, ids, validator, pool, broker_endpoint=None,
        **Wiring()
    )
    return service, tokens


def notebook_request(token):
    return HttpRequest("GET", "/", headers={TOKEN_HEADER: token})


def test_jupyter_spawns_with_valid_token(jupyter):
    service, tokens = jupyter
    token, _ = tokens.mint("ma-1", "jupyter", Role.RESEARCHER,
                           project="proj1",
                           extra_claims={"unix_account": "alice.proj1"})
    resp = service.handle(notebook_request(token))
    assert resp.ok and resp.body["notebook"] == "ready"
    assert service.spawns == 1


def test_jupyter_reuses_live_session(jupyter):
    service, tokens = jupyter
    token, _ = tokens.mint("ma-1", "jupyter", Role.RESEARCHER)
    r1 = service.handle(notebook_request(token))
    r2 = service.handle(notebook_request(token))
    assert r1.body["session_id"] == r2.body["session_id"]
    assert service.spawns == 1


def test_live_session_lookup_does_not_grow_with_sessions_ever_opened(
        jupyter, clock):
    """Closed sessions stay on the books (``sessions(active_only=False)``)
    but the live index holds only the live ones, so finding a subject's
    live session looks at that subject's entries only — however many
    others came and went."""
    service, tokens = jupyter
    mine = service.handle(notebook_request(
        tokens.mint("ma-1", "jupyter", Role.RESEARCHER)[0])).body["session_id"]
    for cycle in range(2000):
        other, _ = tokens.mint(f"ma-other-{cycle % 7}", "jupyter",
                               Role.RESEARCHER)
        opened = service.handle(notebook_request(other))
        assert service.close_session(opened.body["session_id"])
    assert len(service.sessions(active_only=False)) == 2001

    def live(subject):
        return [gid for gid, *_ in service._granted.of(subject, clock.now())]

    assert [gid for gid, *_ in service._granted.live(clock.now())] == [mine]
    assert live("ma-1") == [mine]
    assert live("ma-other-3") == []  # closed: none live
    assert live("nobody") == []
    # close it, reopen, expire
    assert service.sever("ma-1", "killswitch") == 1
    assert live("ma-1") == []
    again = service.handle(notebook_request(
        tokens.mint("ma-1", "jupyter", Role.RESEARCHER)[0])).body
    assert again["session_id"] != mine and service.spawns == 2002
    assert live("ma-1") == [again["session_id"]]
    clock.advance(again["expires_at"] - clock.now())
    assert live("ma-1") == []


def test_a_respawn_frees_the_expired_notebooks_node(jupyter, clock, pool):
    """An expired notebook gives its compute node back at expiry, before
    its subject respawns and whether or not they ever do."""
    service, tokens = jupyter
    for _ in range(3):
        opened = service.handle(notebook_request(
            tokens.mint("ma-1", "jupyter", Role.RESEARCHER)[0]))
        assert opened.ok
        assert [n.allocated_to for n in pool.nodes() if n.allocated_to] == \
            [opened.body["session_id"]]
        clock.advance(service.session_ttl + 10)
        assert service.sessions() == []
        assert not [n for n in pool.nodes() if n.allocated_to]


def test_an_expired_notebook_frees_its_node_without_a_respawn():
    """A researcher who never opens another notebook does not keep the
    expired one's compute node."""
    dri = build_isambard(seed=7)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi")
    assert s1.ok, s1.steps
    assert wf.story3_researcher_setup(s1.data["project_id"], "pi", "res1").ok
    for _ in range(3):
        assert wf.story6_jupyter("res1").ok
    dri.clock.advance(dri.jupyter.session_ttl + 10)
    assert wf.relogin(wf.personas["res1"]).status == 200
    assert dri.jupyter.sessions() == []
    assert dri.jupyter.pool.node("gh-0000").allocated_to is None


def test_jupyter_requires_token_header(jupyter):
    service, _ = jupyter
    resp = service.handle(HttpRequest("GET", "/"))
    assert resp.status == 403


def test_jupyter_rejects_wrong_audience(jupyter):
    service, tokens = jupyter
    token, _ = tokens.mint("ma-1", "login-node", Role.RESEARCHER)
    assert service.handle(notebook_request(token)).status == 403


def test_jupyter_rejects_role_without_capability(jupyter):
    service, tokens = jupyter
    token, _ = tokens.mint("svc", "jupyter", Role.SERVICE)
    assert service.handle(notebook_request(token)).status == 403


def test_jupyter_rejects_revoked_token(jupyter):
    service, tokens = jupyter
    token, record = tokens.mint("ma-1", "jupyter", Role.RESEARCHER)
    tokens.revoke_jti(record.jti)
    assert service.handle(notebook_request(token)).status == 403


def test_jupyter_no_free_nodes(jupyter, pool):
    service, tokens = jupyter
    pool.allocate(len(pool.nodes()), "big-job")
    token, _ = tokens.mint("ma-1", "jupyter", Role.RESEARCHER)
    resp = service.handle(notebook_request(token))
    assert resp.status == 403 and "no free compute node" in resp.body["error"]


# ---------------------------------------------------------------------------
# management node
# ---------------------------------------------------------------------------
@pytest.fixture()
def mgmt(clock, pool):
    ids = IdFactory(6)
    key = generate_signing_key("EdDSA", kid="bk")
    tokens = TokenService(clock, ids, key, ISS, **Wiring())
    validator = RbacTokenValidator(
        clock, ISS, "mgmt-node", JwkSet([key.public()]), tokens.is_revoked
    )
    node = ManagementNode("mgmt-node", clock, validator, pool, **Wiring())
    return node, tokens


def mgmt_request(token, operation="drain_node", target="gh-0000", via_tailnet=True):
    headers = {"Authorization": f"Bearer {token}"}
    if via_tailnet:
        headers[NODE_HEADER] = "tnode-0001"
    return HttpRequest("POST", "/operate", headers=headers,
                       body={"operation": operation, "target": target})


def test_mgmt_operation_with_admin_token(mgmt, pool):
    node, tokens = mgmt
    token, _ = tokens.mint("idp-admin:ops1", "mgmt-node", Role.ADMIN_INFRA)
    resp = node.handle(mgmt_request(token))
    assert resp.ok
    assert not pool.node("gh-0000").up
    assert len(node.operations_log) == 1


def test_mgmt_denies_without_tailnet_header(mgmt):
    node, tokens = mgmt
    token, _ = tokens.mint("idp-admin:ops1", "mgmt-node", Role.ADMIN_INFRA)
    resp = node.handle(mgmt_request(token, via_tailnet=False))
    assert resp.status == 403 and "tailnet" in resp.body["error"]


def test_mgmt_denies_researcher_token(mgmt):
    node, tokens = mgmt
    token, _ = tokens.mint("alice", "mgmt-node", Role.RESEARCHER)
    assert node.handle(mgmt_request(token)).status == 403


def test_mgmt_denies_security_admin_token(mgmt):
    """Separation of admin duties: the security role cannot drive the
    cluster management plane."""
    node, tokens = mgmt
    token, _ = tokens.mint("idp-admin:sec1", "mgmt-node", Role.ADMIN_SECURITY)
    assert node.handle(mgmt_request(token)).status == 403


def test_mgmt_unknown_operation_rejected(mgmt):
    node, tokens = mgmt
    token, _ = tokens.mint("idp-admin:ops1", "mgmt-node", Role.ADMIN_INFRA)
    resp = node.handle(mgmt_request(token, operation="rm_rf"))
    assert resp.status == 403


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------
def test_storage_write_read_quota():
    accounts = {"alice.proj1": "proj1"}
    fs = ParallelFilesystem(accounts.get, default_quota=100)
    fs.provision("proj1")
    fs.write("alice.proj1", "proj1", "/data/a", 60)
    assert fs.read("alice.proj1", "proj1", "/data/a") == 60
    with pytest.raises(QuotaExceeded):
        fs.write("alice.proj1", "proj1", "/data/b", 50)
    fs.write("alice.proj1", "proj1", "/data/a", 10)  # shrink in place
    fs.write("alice.proj1", "proj1", "/data/b", 50)


def test_storage_cross_project_denied():
    accounts = {"alice.proj1": "proj1", "bob.proj2": "proj2"}
    fs = ParallelFilesystem(accounts.get)
    fs.provision("proj1")
    fs.provision("proj2")
    fs.write("alice.proj1", "proj1", "/x", 10)
    with pytest.raises(AuthorizationError):
        fs.write("bob.proj2", "proj1", "/x", 10)
    with pytest.raises(AuthorizationError):
        fs.read("bob.proj2", "proj1", "/x")


def test_storage_revoked_account_denied():
    accounts = {"alice.proj1": "proj1"}
    fs = ParallelFilesystem(accounts.get)
    fs.provision("proj1")
    fs.write("alice.proj1", "proj1", "/x", 10)
    del accounts["alice.proj1"]  # tombstoned
    with pytest.raises(AuthorizationError):
        fs.read("alice.proj1", "proj1", "/x")
