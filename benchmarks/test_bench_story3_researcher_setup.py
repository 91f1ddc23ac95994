"""US3 — user story 3: a cluster user (researcher) sets up an account.

Reproduces §IV.A.3: PI-triggered invitation, fewer functions than a PI
(a researcher cannot invite), PI revocation removing authorisation, and
the de-affiliation rule ("authentication will fail if a user is no
longer affiliated with the organisational IdP").
"""

import pytest

from repro.core import build_isambard
from repro.core.metrics import format_table
from repro.oidc import make_url


def run_story(seed: int):
    dri = build_isambard(seed=seed)
    s1 = dri.workflows.story1_pi_onboarding("pi-eve")
    s3 = dri.workflows.story3_researcher_setup(
        s1.data["project_id"], "pi-eve", "res-bob")
    return dri, s1, s3


def test_story3_researcher_setup(report):
    dri, s1, s3 = run_story(8)
    assert s3.ok, s3.steps
    project_id = s1.data["project_id"]
    wf = dri.workflows
    rows = [["invitation -> federated login -> acceptance", "ok",
             s3.data["unix_account"]]]

    # researcher has fewer functions: the invite route is out of reach
    bob = wf.personas["res-bob"]
    token = wf.mint(bob, "portal", "researcher", project=project_id).body["token"]
    attempt, _ = bob.agent.post(
        make_url("portal", "/invite"),
        {"project_id": project_id, "email": "carol@bristol.ac.uk"},
        headers={"Authorization": f"Bearer {token}"},
    )
    rows.append(["researcher invites another researcher",
                 "denied (no project.invite capability)" if attempt.status == 403
                 else "ALLOWED (wrong)", "-"])
    assert attempt.status == 403

    # PI revocation removes authorisation (and the unix account)
    pi = wf.personas["pi-eve"]
    pi_token = wf.mint(pi, "portal", "pi", project=project_id).body["token"]
    revoke, _ = pi.agent.post(
        make_url("portal", "/revoke_member"),
        {"project_id": project_id, "uid": bob.broker_sub},
        headers={"Authorization": f"Bearer {pi_token}"},
    )
    assert revoke.ok
    remint = wf.mint(bob, "login-node", "researcher", project=project_id)
    rows.append(["researcher after PI revocation",
                 "denied" if remint.status == 403 else "ALLOWED (wrong)", "-"])
    assert remint.status == 403
    assert dri.portal.unix_accounts.is_tombstoned(s3.data["unix_account"])

    # de-affiliation at the home IdP
    dri2, s1b, s3b = run_story(9)
    dri2.idps["idp-bristol"].deactivate_user("res-bob")
    bob2 = dri2.workflows.personas["res-bob"]
    bob2.agent.clear_cookies("broker")
    bob2.agent.clear_cookies("myaccessid")
    relogin = dri2.workflows.login(bob2)
    rows.append(["researcher de-affiliated at home IdP",
                 "authentication fails at the IdP" if relogin.status == 403
                 else "ALLOWED (wrong)", "-"])
    assert relogin.status == 403

    report("story3_researcher_setup",
           format_table(["scenario", "outcome", "unix account"], rows,
                        title="US3: researcher account setup (§IV.A.3)"))
