"""US4 — user story 4: a cluster user connects via SSH to the AI platform.

Reproduces §IV.A.4: certificate client + login flow + CA signing, the
short validity window forcing re-issue, per-project UNIX usernames, the
transparent ProxyJump, and that the only path is through the bastion.
"""

import pytest

from repro.core import build_isambard
from repro.core.metrics import format_table
from repro.errors import ConnectionBlocked
from repro.net.http import HttpRequest


def run_story(seed: int):
    dri = build_isambard(seed=seed, ssh_cert_ttl=1800.0)
    s1 = dri.workflows.story1_pi_onboarding("hana")
    s4 = dri.workflows.story4_ssh_session("hana")
    return dri, s1, s4


def test_story4_ssh_access(report):
    dri, s1, s4 = run_story(10)
    assert s4.ok, s4.steps
    wf = dri.workflows
    hana = wf.personas["hana"]
    rows = [["certificate flow + ProxyJump login", "ok",
             s4.data["principal"]]]

    # a second project -> a second unix account and alias (ZTA per-project)
    s1b = wf.story1_pi_onboarding("hana", project_name="proj-second")
    wf.relogin(hana)
    cert2 = hana.ssh_client.request_certificate()
    assert cert2.ok and len(cert2.body["principals"]) == 2
    rows.append(["second project", "second principal + alias",
                 ", ".join(cert2.body["principals"])])

    # certificate expiry forces re-issue
    dri.clock.advance(1900)
    expired = hana.ssh_client.ssh(sorted(hana.ssh_client.ssh_config)[0])
    rows.append(["SSH after certificate expiry",
                 "denied; new certificate required" if expired.status == 403
                 else "ALLOWED (wrong)", "-"])
    assert expired.status == 403
    wf.relogin(hana)
    reissued = hana.ssh_client.request_certificate()
    retry = hana.ssh_client.ssh(sorted(hana.ssh_client.ssh_config)[0])
    rows.append(["after re-issuing the certificate", "ok",
                 retry.body.get("principal", "-")])
    assert reissued.ok and retry.ok

    # wrong principal on a valid certificate
    stolen = hana.ssh_client.ssh_direct("root")
    rows.append(["valid certificate, principal 'root'",
                 "denied" if stolen.status == 403 else "ALLOWED (wrong)", "-"])

    # no path that bypasses the bastion
    try:
        dri.network.request("hana-laptop", "login-node",
                            HttpRequest("POST", "/session"), port=22)
        rows.append(["direct laptop -> login node", "REACHED (wrong)", "-"])
    except ConnectionBlocked:
        rows.append(["direct laptop -> login node",
                     "blocked by segmentation", "-"])

    steps = "\n".join(f"  {i+1}. {s}" for i, s in enumerate(s4.steps))
    report("story4_ssh_access",
           format_table(["scenario", "outcome", "principal(s)"], rows,
                        title="US4: SSH to the AI platform (§IV.A.4)")
           + "\n\nsteps:\n" + steps)
