"""A crypto budget per story: real Ed25519 operations, exact, by key.

Signing and verifying are the largest honest cost of an access-path op
(≈ 50 µs and ≈ 160 µs against a 1.7 ms op), so what each story spends is
pinned here as literals, one line of reason per signature.  A change that
adds or removes a signature on a hop has to edit this file and say why.

"Real" means the maths ran: an answer from a key's memo of verified
pairs, or an issuer recognising a token it minted itself, is not counted.
Counts are per ``kid``; every user and host SSH key is ``user-ssh-key``.
"""

import pytest

from repro.audit import Outcome
from repro.core import build_isambard
from repro.net import HttpRequest


@pytest.fixture(scope="module")
def deployment():
    """A default build with one onboarded researcher, logs shipped."""
    dri = build_isambard(seed=31)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi", project_name="budget")
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    assert wf.story3_researcher_setup(project_id, "pi", "res1").ok
    dri.ship_logs()
    return dri, project_id


@pytest.fixture()
def spent(real_crypto):
    """``spent(op)`` runs ``op`` and returns (signs, verifies) by kid."""
    signs, verifies = real_crypto

    def run(op):
        signs.clear()
        verifies.clear()
        op()
        return dict(signs), dict(verifies)

    return run


def _mint_then_introspect(dri, project_id, *, revoke):
    wf = dri.workflows
    persona = wf.personas["res1"]
    minted = wf.mint(persona, "jupyter", "researcher", project=project_id)
    assert minted.ok, minted.body
    if revoke:
        assert dri.broker.tokens.revoke_jti(str(minted.body["jti"]))
    resp = persona.agent.call("broker", HttpRequest(
        "POST", "/introspect", body={"token": minted.body["token"]}))
    assert resp.body["active"] is (not revoke)


def test_relogin(deployment, spent):
    dri, _ = deployment
    wf = dri.workflows
    signs, verifies = spent(lambda: wf.relogin(wf.personas["res1"]))
    # MyAccessID signs the access token and the ID token of the code grant
    assert signs == {"myaccessid-k1": 2}
    # the broker, MyAccessID's relying party, verifies the ID token; its
    # /authz service token is inside its TTL and in the portal's key memo
    assert verifies == {"myaccessid-k1": 1}


def test_ssh_session_first_and_second(deployment, spent):
    dri, _ = deployment
    wf = dri.workflows
    signs, verifies = spent(lambda: wf.story4_ssh_session("res1"))
    assert signs == {
        "broker-k1": 1,       # the broker's 60 s service token for the CA
        "ssh-ca-ca-key": 1,   # the CA signs the user certificate
        "user-ssh-key": 2,    # the user's proof, the login node's proof
    }
    assert verifies == {
        "broker-k1": 1,       # the CA: first sight of that service token
        "ssh-ca-ca-key": 2,   # sshd: the user certificate; client: the host's
        "user-ssh-key": 2,    # sshd: the user's proof; client: the host's proof
    }
    signs, verifies = spent(lambda: wf.story4_ssh_session("res1"))
    assert signs == {
        # the broker presents the service token it holds (more than 30 s
        # of its 60 s to run): no mint, and the CA's key has verified
        # those bytes
        "ssh-ca-ca-key": 1,   # a new certificate every session
        "user-ssh-key": 2,
    }
    assert verifies == {
        "ssh-ca-ca-key": 1,   # the client has verified this host certificate
        "user-ssh-key": 2,    # proofs are never remembered: the challenge is static
    }


def test_jupyter_notebook(deployment, spent):
    dri, _ = deployment
    wf = dri.workflows
    signs, verifies = spent(lambda: wf.story6_jupyter("res1"))
    # Zenith's code grant (access + ID token), then the RBAC token it
    # mints for Jupyter with that access token as bearer
    assert signs == {"broker-k1": 3}
    # Zenith verifies the ID token, Jupyter the RBAC token: one relying
    # party each.  The broker is shown its own access token (bearer
    # /tokens) and its own RBAC token (/introspect) and checks neither
    assert verifies == {"broker-k1": 2}


def test_mint_then_introspect(deployment, spent):
    dri, project_id = deployment
    signs, verifies = spent(
        lambda: _mint_then_introspect(dri, project_id, revoke=False))
    assert signs == {"broker-k1": 1}  # the RBAC token
    assert verifies == {}             # shown back to the broker that minted it


def test_mint_revoke_introspect(deployment, spent):
    dri, project_id = deployment
    signs, verifies = spent(
        lambda: _mint_then_introspect(dri, project_id, revoke=True))
    assert signs == {"broker-k1": 1}
    assert verifies == {}  # inactive by the revocation check, not by the maths


def test_ship_logs(deployment, spent):
    dri, _ = deployment
    log = dri.logs["fds"]

    def ship():
        # one record in the FDS log, so its forwarder's flush presents
        # the shipper's RBAC token and its SVID to the SOC
        log.record(dri.clock.now(), "test", "system", "test.note", "-",
                   Outcome.INFO)
        dri.ship_logs()

    # the held shipper token and the held SVID have both run out
    dri.clock.advance(dri.spire.svid_ttl)
    signs, verifies = spent(ship)
    # the shipper's 120 s token for the SOC, and a fresh SVID
    assert signs == {"broker-k1": 1, "spire-isambard.example": 1}
    # the SOC: first sight of the token, and of the SVID
    assert verifies == {"broker-k1": 1, "spire-isambard.example": 1}
    dri.clock.advance(1.0)
    signs, verifies = spent(ship)
    # the shipper presents the token and the SVID it holds; the SOC's
    # keys have verified those bytes.  Was one spire signature and one
    # verification: an SVID was issued per flush, and the log shipper now
    # holds its SVID until half its lifetime has passed
    assert signs == {}
    assert verifies == {}
