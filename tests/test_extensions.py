"""Tests for the extension features: the Isambard 3 second cluster,
and step-up re-authentication for admin tokens."""

import pytest

from repro.broker import Role
from repro.core import build_isambard
from repro.net.http import HttpRequest
from repro.oidc import make_url


# ---------------------------------------------------------------------------
# Isambard 3: one IAM fabric, two clusters
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def dual():
    dri = build_isambard(seed=23)
    s1 = dri.workflows.story1_pi_onboarding("iris")
    return dri, s1


def test_isambard3_built_by_default(dual):
    dri, _ = dual
    assert dri.pool_i3 is not None
    assert dri.network.has_endpoint("login-node-i3")
    assert dri.network.has_endpoint("mgmt-node-i3")
    assert all(n.kind == "grace-grace" and n.gpus == 0
               for n in dri.pool_i3.nodes())


def test_one_certificate_opens_both_clusters(dual):
    """The same short-lived certificate (one CA, one identity fabric)
    logs into Isambard-AI and Isambard 3."""
    dri, s1 = dual
    iris = dri.workflows.personas["iris"]
    client = iris.ssh_client
    resp = client.request_certificate(
        login_nodes={"ai.isambard": "login-node", "3.isambard": "login-node-i3"})
    assert resp.ok
    aliases = sorted(client.ssh_config)
    assert len(aliases) == 2
    for alias in aliases:
        session = client.ssh(alias)
        assert session.ok, (alias, session.body)
    assert len(dri.login_sshd.sessions()) == 1
    assert len(dri.login_sshd_i3.sessions()) == 1


def test_i3_charges_node_hours_not_gpu_hours(dual):
    dri, s1 = dual
    project_id = s1.data["project_id"]
    account = s1.data["unix_account"]
    before = dri.portal.project(project_id).allocation.gpu_hours_used
    job = dri.slurm_i3.submit(account, project_id, nodes=4, walltime=3600)
    after = dri.portal.project(project_id).allocation.gpu_hours_used
    assert after - before == pytest.approx(4.0)  # 4 node-hours, no GPU factor


def test_i3_mgmt_plane_via_tailnet(dual):
    dri, _ = dual
    result = dri.workflows.story5_privileged_operation(
        "ops-i3", operation="status", target="")
    assert result.ok
    # the same admin token audience does NOT work across mgmt nodes
    admin = dri.workflows.personas["ops-i3"]
    token = dri.workflows.mint(admin, "mgmt-node-i3",
                               Role.ADMIN_INFRA.value).body["token"]
    node_id = str(result.data["node_id"])
    relay, _ = admin.agent.post(
        make_url("tailnet", "/relay"),
        {"node_id": node_id, "target": "mgmt-node-i3", "port": 443,
         "request": {"method": "POST", "path": "/operate",
                     "headers": {"Authorization": f"Bearer {token}"},
                     "body": {"operation": "status", "target": ""}}},
    )
    assert relay.ok, relay.body
    wrong, _ = admin.agent.post(
        make_url("tailnet", "/relay"),
        {"node_id": node_id, "target": "mgmt-node", "port": 443,
         "request": {"method": "POST", "path": "/operate",
                     "headers": {"Authorization": f"Bearer {token}"},
                     "body": {"operation": "status", "target": ""}}},
    )
    assert wrong.status == 403  # audience 'mgmt-node-i3' refused at 'mgmt-node'


def test_revocation_sweeps_both_clusters(dual):
    dri, s1 = dual
    project_id = s1.data["project_id"]
    account = s1.data["unix_account"]
    # live sessions on both clusters, then the allocator closes the project
    iris = dri.workflows.personas["iris"]
    alloc = dri.workflows.personas["allocator"]
    dri.workflows.login(alloc)
    token = dri.workflows.mint(alloc, "portal", "allocator").body["token"]
    resp, _ = alloc.agent.post(
        make_url("portal", "/close_project"), {"project_id": project_id},
        headers={"Authorization": f"Bearer {token}"},
    )
    assert resp.ok
    assert not [s for s in dri.login_sshd.sessions()
                if s.principal == account]
    assert not [s for s in dri.login_sshd_i3.sessions()
                if s.principal == account]


# ---------------------------------------------------------------------------
# step-up re-authentication for administrative tokens
# ---------------------------------------------------------------------------
def test_admin_token_requires_fresh_authentication():
    dri = build_isambard(seed=31)
    dri.broker.admin_max_auth_age = 600.0
    wf = dri.workflows
    admin = wf.create_admin("ops1", Role.ADMIN_INFRA)
    wf.login(admin)
    assert wf.mint(admin, "tailnet", "admin-infra").ok
    dri.clock.advance(700)  # session still alive (1h) but auth is stale
    stale = wf.mint(admin, "tailnet", "admin-infra")
    assert stale.status == 403 and "re-authentication" in stale.body["error"]
    wf.relogin(admin)
    assert wf.mint(admin, "tailnet", "admin-infra").ok


def test_researcher_tokens_not_subject_to_stepup():
    dri = build_isambard(seed=37)
    dri.broker.admin_max_auth_age = 600.0
    s1 = dri.workflows.story1_pi_onboarding("pat")
    pat = dri.workflows.personas["pat"]
    dri.clock.advance(700)
    resp = dri.workflows.mint(pat, "portal", "pi",
                              project=s1.data["project_id"])
    assert resp.ok  # dynamic portal check suffices for user roles


