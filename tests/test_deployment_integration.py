"""Integration tests: the full Fig. 1 deployment running all user stories,
the compliance checkers, and the threat model."""

import pytest

from repro.broker import Role
from repro.core import ThreatModel, build_isambard
from repro.oidc import make_url
from repro.policy import assess_caf, check_tenets


@pytest.fixture(scope="module")
def dri():
    """One deployment, exercised progressively through the module."""
    return build_isambard(seed=7)


@pytest.fixture(scope="module")
def onboarded(dri):
    """Stories 1-3 executed once: a project with a PI and a researcher."""
    s1 = dri.workflows.story1_pi_onboarding("alice")
    assert s1.ok, s1.steps
    s2 = dri.workflows.story2_admin_registration("ops1")
    assert s2.ok, s2.steps
    s3 = dri.workflows.story3_researcher_setup(
        s1.data["project_id"], "alice", "bob")
    assert s3.ok, s3.steps
    return s1, s2, s3


def test_story1_pi_onboarding(dri, onboarded):
    s1, _, _ = onboarded
    assert s1.data["unix_account"] == "alice." + s1.data["project_id"]
    project = dri.portal.project(s1.data["project_id"])
    assert project is not None and len(project.active_members()) == 2


def test_story2_no_global_admin(dri, onboarded):
    _, s2, _ = onboarded
    assert "DENIED (correct)" in s2.steps[-1]


def test_story4_ssh(dri, onboarded):
    s4 = dri.workflows.story4_ssh_session("bob")
    assert s4.ok, s4.steps
    assert s4.data["principal"].startswith("bob.")
    assert len(dri.login_sshd.sessions()) >= 1


def test_story5_privileged_operation(dri, onboarded):
    s5 = dri.workflows.story5_privileged_operation("ops1")
    assert s5.ok, s5.steps
    assert len(s5.steps) == 4  # the four independent layers
    assert dri.mgmt_node.operations_log


def test_story6_jupyter(dri, onboarded):
    s6 = dri.workflows.story6_jupyter("bob")
    assert s6.ok, s6.steps
    assert s6.data["notebook"] == "ready"
    # the authenticator introspected against the broker (network hop MDC->FDS)
    introspections = [
        e for e in dri.audit.query(action="message.delivered")
        if e.attrs.get("path") == "/introspect"
    ]
    assert introspections


def test_researcher_cannot_reach_mgmt(dri, onboarded):
    """A researcher's tokens cannot mint for or operate the mgmt plane."""
    bob = dri.workflows.personas["bob"]
    resp = dri.workflows.mint(bob, "mgmt-node", "admin-infra")
    assert resp.status == 403
    resp2 = dri.workflows.mint(bob, "tailnet", "admin-infra")
    assert resp2.status == 403


def test_pi_revocation_severs_live_ssh(dri, onboarded):
    """User story 3's revocation: bob's live SSH session dies with his
    authorisation."""
    s1, _, s3 = onboarded
    project_id = s1.data["project_id"]
    dri.workflows.story4_ssh_session("bob")
    account = s3.data["unix_account"]
    live_before = [s for s in dri.login_sshd.sessions()
                   if s.principal == account]
    assert live_before

    alice = dri.workflows.personas["alice"]
    pi_token = dri.workflows.mint(alice, "portal", "pi",
                                  project=project_id).body["token"]
    bob_sub = dri.workflows.personas["bob"].broker_sub
    resp, _ = alice.agent.post(
        make_url("portal", "/revoke_member"),
        {"project_id": project_id, "uid": bob_sub},
        headers={"Authorization": f"Bearer {pi_token}"},
    )
    assert resp.ok, resp.body
    live_after = [s for s in dri.login_sshd.sessions()
                  if s.principal == account]
    assert not live_after
    # and his certificate no longer opens sessions (account tombstoned)
    retry = dri.workflows.personas["bob"].ssh_client.ssh_direct(account)
    assert retry.status == 403


def test_tenets_all_pass_on_exercised_deployment(dri, onboarded):
    dri.workflows.story4_ssh_session("alice")
    dri.ship_logs()
    reports = check_tenets(dri)
    failing = [(r.tenet, r.evidence) for r in reports if not r.passed]
    assert not failing, failing
    assert len(reports) == 7


def test_caf_assessment_matches_paper_gaps(dri, onboarded):
    results = assess_caf(dri)
    by_id = {r.outcome_id: r for r in results}
    assert by_id["B4"].grade == "achieved"       # segmentation
    assert by_id["B3"].grade == "partially-achieved"  # PFS encryption pending
    assert by_id["D1"].grade == "achieved"       # kill switch
    assert {r.objective for r in results} == {"A", "B", "C", "D"}


def test_threat_model_protected_endpoints_unreachable(dri, onboarded):
    tm = ThreatModel(dri)
    report = tm.reachable_from("alice-laptop")
    protected = {"login-node", "mgmt-node", "jupyter", "soc", "zenith-client",
                 "mgmt-node"}
    assert not protected & set(report.reachable)


def test_threat_model_unauthorised_attempts_all_denied(dri, onboarded):
    tm = ThreatModel(dri)
    outcomes = tm.unauthorised_access_attempts()
    assert all("REACHED" not in v for v in outcomes.values())


def test_stolen_token_window_bounded_by_ttl(onboarded):
    dri2 = build_isambard(seed=11, rbac_default_ttl=300)
    s1 = dri2.workflows.story1_pi_onboarding("carol")
    assert s1.ok
    carol = dri2.workflows.personas["carol"]
    token = dri2.workflows.mint(
        carol, "jupyter", "pi", project=s1.data["project_id"]).body["token"]
    tm = ThreatModel(dri2)
    window = tm.stolen_token_window(token, "jupyter", probe_interval=10)
    assert window <= 300 + 10 + 5  # ttl + probe step + leeway


def test_kill_switch_containment_end_to_end():
    dri2 = build_isambard(seed=13, forward_interval=2.0)
    tm = ThreatModel(dri2)
    t = tm.containment_time(attack_rate=1.0)
    assert t is not None and t < 60
    # containment flagged the actor at the bastion
    assert "mallory" in dri2.bastion.flagged_principals


def test_emergency_stop_blocks_everything(dri, onboarded):
    dri.killswitch.emergency_stop()
    bob = dri.workflows.personas["bob"]
    entry = sorted(bob.ssh_client.ssh_config.values(),
                   key=lambda e: e.alias)[0]
    assert bob.ssh_client.ssh_direct(entry.user).status == 403
    resp, _ = bob.agent.get(make_url("edge", "/zenith/app",
                                     service="jupyter", path="/"))
    assert resp.status in (403, 503)
    dri.killswitch.restore()


def test_rsecon_workshop_45_simultaneous():
    dri2 = build_isambard(seed=17)
    result = dri2.workflows.rsecon_workshop(45)
    assert result.ok, result.steps
    assert result.data["live_sessions"] >= 45
    assert result.data["failures"] == 0


def test_flat_network_baseline_exposes_everything():
    flat = build_isambard(seed=19, segmented=False)
    flat.workflows.story1_pi_onboarding("dave")
    tm = ThreatModel(flat)
    report = tm.reachable_from("dave-laptop")
    assert {"login-node", "mgmt-node", "jupyter", "soc"} <= set(report.reachable)


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
