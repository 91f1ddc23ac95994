"""ABL5 — what the broker round-trip buys the Jupyter authenticator.

§IV.A.6: the authenticator "validates this token against the OpenID
Connect endpoint from the identity broker".  Local JWKS validation alone
would accept a *revoked* token until it expires; the introspection
round-trip costs one MDC→FDS request per session but closes that gap to
zero.  The ablation measures both sides: revoked-token acceptance window
and per-login network cost, with introspection on vs. off.
"""

import pytest

from repro.core import build_isambard
from repro.core.metrics import format_table
from repro.net.http import HttpRequest
from repro.tunnels.zenith import TOKEN_HEADER


def acceptance_after_revocation(introspect: bool, seed: int):
    """Mint a token, revoke it, and see whether Jupyter still admits."""
    dri = build_isambard(seed=seed, rbac_default_ttl=900)
    if not introspect:
        dri.jupyter.broker_endpoint = None  # local validation only
    s1 = dri.workflows.story1_pi_onboarding("olu")
    olu = dri.workflows.personas["olu"]
    minted = dri.workflows.mint(olu, "jupyter", "pi").body
    dri.broker.tokens.revoke_jti(str(minted["jti"]))

    # probe every 60 s until the (revoked) token stops being accepted
    window = 0.0
    while window < 1200:
        resp = dri.jupyter.handle(HttpRequest(
            "GET", "/", headers={TOKEN_HEADER: str(minted["token"])}))
        if not resp.ok:
            break
        dri.clock.advance(60)
        window += 60
    hops_before = dri.network.messages_delivered
    # cost side: one fresh, valid login
    fresh = dri.workflows.mint(olu, "jupyter", "pi").body["token"]
    dri.jupyter.handle(HttpRequest("GET", "/", headers={TOKEN_HEADER: fresh}))
    auth_hops = dri.network.messages_delivered - hops_before
    return dri, window, auth_hops


def test_ablation_introspection(report):
    dri_on, window_on, hops_on = acceptance_after_revocation(True, 91)
    dri_off, window_off, hops_off = acceptance_after_revocation(False, 92)

    # shape: introspection closes the revocation gap completely; without
    # it the revoked token rides until expiry (TTL-bounded)
    assert window_on == 0.0
    assert 0 < window_off <= 900 + 60
    # and costs exactly the introspection round-trip (1 extra delivered hop
    # at the authenticator; the mint path is identical in both runs)
    assert hops_on > hops_off

    rows = [
        ["local JWKS + broker introspection", f"{window_on:.0f}",
         hops_on, "tenet 6: per-session, revocation-aware"],
        ["local JWKS only", f"{window_off:.0f}",
         hops_off, "revoked tokens ride until expiry"],
    ]
    report("ablation_introspection", format_table(
        ["authenticator mode", "revoked-token acceptance window (s)",
         "network messages per login", "note"],
        rows,
        title="ABL5: validating against the broker's OIDC endpoint (§IV.A.6)",
    ))
