"""US6 — user story 6: a cluster user connects to a Jupyter notebook.

Reproduces §IV.A.6: the URL through the zero-trust edge, the identity-
broker login flow, the portal access check, the time-limited RBAC token
passed as an HTTP header over the Zenith reverse tunnel, the
authenticator's validation against the broker's OIDC endpoint, and the
spawn on a compute node — with negative controls for each gate.
"""

import pytest

from repro.core import build_isambard
from repro.core.metrics import format_table
from repro.oidc import make_url
from repro.tunnels.zenith import TOKEN_HEADER
from repro.net.http import HttpRequest


def run_story(seed: int):
    dri = build_isambard(seed=seed)
    s1 = dri.workflows.story1_pi_onboarding("nia")
    s6 = dri.workflows.story6_jupyter("nia")
    return dri, s6


def test_story6_jupyter(report):
    dri, s6 = run_story(14)
    assert s6.ok, s6.steps
    wf = dri.workflows
    rows = [["authorised researcher via edge + Zenith", "notebook spawned",
             str(s6.data["node"])]]

    # unauthorised (but authenticated) user is stopped at the portal check
    wf.create_researcher("lurker")
    lurker = wf.personas["lurker"]
    resp, _ = lurker.agent.get(
        make_url("edge", "/zenith/app", service="jupyter", path="/"))
    if resp.status == 401:
        login = wf.login(lurker)  # fails authorisation-led registration
        rows.append(["user with no project",
                     "denied at registration" if login.status == 403
                     else "ALLOWED (wrong)", "-"])
        assert login.status == 403

    # forged/absent token header straight at the authenticator
    direct = dri.jupyter.handle(HttpRequest("GET", "/"))
    rows.append(["request without the token header",
                 "denied by authenticator" if direct.status == 403
                 else "ALLOWED (wrong)", "-"])
    forged = dri.jupyter.handle(HttpRequest(
        "GET", "/", headers={TOKEN_HEADER: "forged.token.here"}))
    rows.append(["forged token header",
                 "denied by authenticator" if forged.status == 403
                 else "ALLOWED (wrong)", "-"])
    assert direct.status == 403 and forged.status == 403

    # revocation is caught by the OIDC introspection round-trip even
    # though the token still has a valid signature and lifetime
    nia = wf.personas["nia"]
    token = wf.mint(nia, "jupyter", "pi").body
    dri.broker.tokens.revoke_jti(str(token["jti"]))
    revoked = dri.jupyter.handle(HttpRequest(
        "GET", "/", headers={TOKEN_HEADER: str(token["token"])}))
    rows.append(["revoked (but unexpired) token",
                 "denied via broker introspection" if revoked.status == 403
                 else "ALLOWED (wrong)", "-"])
    assert revoked.status == 403

    # tunnel kill switch takes the URL offline
    dri.zenith.kill_tunnel("jupyter")
    offline, _ = nia.agent.get(
        make_url("edge", "/zenith/app", service="jupyter", path="/"))
    rows.append(["Zenith tunnel killed",
                 "service offline" if offline.status in (403, 503)
                 else "ALLOWED (wrong)", "-"])

    steps = "\n".join(f"  {i+1}. {s}" for i, s in enumerate(s6.steps))
    report("story6_jupyter",
           format_table(["scenario", "outcome", "node"], rows,
                        title="US6: Jupyter via Zenith (§IV.A.6)")
           + "\n\nsteps:\n" + steps)
