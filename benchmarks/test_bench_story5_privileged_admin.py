"""US5 — user story 5: a system administrator performs a privileged operation.

Reproduces §IV.A.5: the four independent layers (admin IdP with hardware
MFA, tailnet enrolment, per-service RBAC token, management-node
enforcement), and shows that removing ANY single layer denies the
operation — "segmentation and ... policies at each level".
"""

import pytest

from repro.broker import Role
from repro.core import build_isambard
from repro.core.metrics import format_table
from repro.net.http import HttpRequest
from repro.oidc import make_url
from repro.tunnels.tailnet import NODE_HEADER


def run_story(seed: int):
    dri = build_isambard(seed=seed)
    result = dri.workflows.story5_privileged_operation(
        "ops1", operation="drain_node", target="gh-0001")
    return dri, result


def test_story5_privileged_admin(report):
    dri, result = run_story(12)
    assert result.ok, result.steps
    wf = dri.workflows
    admin = wf.personas["ops1"]
    node_id = str(result.data["node_id"])
    mgmt_token = wf.mint(admin, "mgmt-node", Role.ADMIN_INFRA.value).body["token"]

    rows = [["all four layers present", "operation executed"]]

    # layer removed: no tailnet (direct network path)
    from repro.errors import ConnectionBlocked

    try:
        dri.network.request("ops1-laptop", "mgmt-node",
                            HttpRequest("POST", "/operate"), port=443)
        rows.append(["bypass tailnet (direct network)", "REACHED (wrong)"])
    except ConnectionBlocked:
        rows.append(["bypass tailnet (direct network)", "blocked by segmentation"])

    # layer removed: valid tailnet node but a researcher token
    dri.workflows.story1_pi_onboarding("pia")
    pia = wf.personas["pia"]
    pia_token = wf.mint(pia, "mgmt-node", "pi",
                        project=None)
    # a PI cannot even mint for the mgmt audience with an admin role;
    # try relaying with their *portal* token instead
    relay, _ = admin.agent.post(
        make_url("tailnet", "/relay"),
        {"node_id": node_id, "target": "mgmt-node", "port": 443,
         "request": {"method": "POST", "path": "/operate",
                     "headers": {},
                     "body": {"operation": "status", "target": ""}}},
    )
    rows.append(["tailnet ok, no RBAC token",
                 "denied by mgmt node" if relay.status == 403 else "ALLOWED (wrong)"])
    assert relay.status == 403

    # layer removed: valid token but unknown tailnet node
    relay2, _ = admin.agent.post(
        make_url("tailnet", "/relay"),
        {"node_id": "tnode-9999", "target": "mgmt-node", "port": 443,
         "request": {"method": "POST", "path": "/operate",
                     "headers": {"Authorization": f"Bearer {mgmt_token}"},
                     "body": {"operation": "status", "target": ""}}},
    )
    rows.append(["RBAC token ok, device not enrolled",
                 "denied by tailnet" if relay2.status == 403 else "ALLOWED (wrong)"])
    assert relay2.status == 403

    # layer removed: token header forged without the tailnet origin header
    direct = dri.mgmt_node.handle(HttpRequest(
        "POST", "/operate",
        headers={"Authorization": f"Bearer {mgmt_token}"},
        body={"operation": "status", "target": ""},
    ))
    rows.append(["RBAC token ok, not via tailnet relay",
                 "denied by mgmt node" if direct.status == 403 else "ALLOWED (wrong)"])
    assert direct.status == 403

    # expired tailnet key forces re-enrolment
    dri.clock.advance(dri.tailnet.key_ttl + 10)
    wf.relogin(admin)
    relay3, _ = admin.agent.post(
        make_url("tailnet", "/relay"),
        {"node_id": node_id, "target": "mgmt-node", "port": 443,
         "request": {"method": "POST", "path": "/operate",
                     "headers": {"Authorization": f"Bearer {mgmt_token}"},
                     "body": {"operation": "status", "target": ""}}},
    )
    rows.append(["tailnet node key expired (24h)",
                 "re-enrolment required" if relay3.status == 403 else "ALLOWED (wrong)"])

    steps = "\n".join(f"  {i+1}. {s}" for i, s in enumerate(result.steps))
    report("story5_privileged_admin",
           format_table(["scenario", "outcome"], rows,
                        title="US5: privileged admin operation (§IV.A.5)")
           + "\n\nlayers:\n" + steps)
