"""Infrastructure service tokens: what a repeat caller may be handed.

The broker asks the SSH CA and the portal, the log shipper the SOC, the
Puhuri agent the portal and the Zenith client its server, again and
again, each with a short-lived service token.  Whatever the token is
(fresh per call, or held for its lifetime), these invariants hold:

* no revoked credential is presented: a revocation between two calls
  means the second call carries a different, unrevoked token;
* fail-closed never yields ALLOW: past the PDP staleness bound the call
  is refused even while an earlier token is still inside its TTL;
* a broker crash loses nothing journaled and the next call still works.
"""

import pytest

from repro.authz import STALENESS_BOUND
from repro.broker.rbac import Role
from repro.broker.tokens import HOLD_MARGIN, TokenService
from repro.clock import SimClock
from repro.core import build_isambard
from repro.crypto.keys import generate_signing_key
from repro.errors import ServiceUnavailable
from repro.ids import IdFactory
from tests.conftest import Wiring


def _onboarded(**flags):
    """alice (PI) and bob (researcher) on one project, bob's first SSH
    session done; returns the deployment."""
    dri = build_isambard(seed=87, **flags)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("alice")
    assert s1.ok, s1.steps
    assert wf.story3_researcher_setup(s1.data["project_id"], "alice").ok
    assert wf.story4_ssh_session("bob").ok
    return dri


def _ca_accepts(dri, monkeypatch):
    """Record the jti of every service token the SSH CA accepts."""
    accepted = []
    validate = dri.ssh_ca.validator.validate

    def recording(token):
        claims = validate(token)
        accepted.append(str(claims["jti"]))
        return claims

    monkeypatch.setattr(dri.ssh_ca.validator, "validate", recording)
    return accepted


def test_a_revoked_service_token_is_never_presented_again(monkeypatch):
    dri = _onboarded()
    accepted = _ca_accepts(dri, monkeypatch)
    assert dri.workflows.story4_ssh_session("bob").ok
    assert dri.broker.tokens.revoke_jti(accepted[-1])
    assert dri.workflows.story4_ssh_session("bob").ok
    first, second = accepted
    assert second != first
    assert not dri.broker.tokens.is_revoked(second)


def test_pdp_down_refuses_a_certificate_inside_the_token_ttl():
    dri = _onboarded(authz=True)
    client = dri.workflows.personas["bob"].ssh_client
    dri.faults.pdp_down()
    # within the bound the certificate is served on the last heartbeat
    dri.clock.advance(STALENESS_BOUND - 10.0)
    assert client.request_certificate().ok
    before = dri.authz.guard.fail_closed_denials
    # 11 s later the service token that request used is still inside
    # its 60 s TTL, but the PDP has been gone past the bound
    dri.clock.advance(11.0)
    refused = client.request_certificate()
    assert not refused.ok
    assert refused.body["error_type"] == ServiceUnavailable.__name__
    assert dri.authz.guard.fail_closed_denials > before


@pytest.mark.durability
def test_a_broker_crash_replays_to_its_journal_and_ssh_still_works():
    dri = _onboarded(durability=True)
    before = dri.broker.state_hash()
    dri.crash("broker")
    report = dri.restart("broker")
    assert report is not None
    assert report.state_hash == before == dri.broker.state_hash()
    assert dri.workflows.story4_ssh_session("bob").ok


# ---------------------------------------------------------------------------
# the holder itself
# ---------------------------------------------------------------------------
@pytest.fixture()
def tokens():
    clock = SimClock(start=0.0)
    key = generate_signing_key("EdDSA", kid="b1")
    return TokenService(clock, IdFactory(1), key, "https://broker", **Wiring())


def _held(tokens):
    return tokens.held("svc", "ssh-ca", Role.SERVICE, ttl=60)


def test_a_held_token_is_handed_out_until_the_margin(tokens):
    first = _held(tokens)
    tokens.clock.advance(60 - HOLD_MARGIN)
    assert _held(tokens) == first
    tokens.clock.advance(0.001)
    second = _held(tokens)
    assert second[1].jti != first[1].jti
    assert second[1].expires_at == tokens.clock.now() + 60


def test_one_token_per_subject_audience_and_role(tokens):
    jtis = {_held(tokens)[1].jti,
            tokens.held("svc", "portal", Role.SERVICE, ttl=60)[1].jti,
            tokens.held("other", "ssh-ca", Role.SERVICE, ttl=60)[1].jti,
            tokens.held("svc", "ssh-ca", Role.ALLOCATOR, ttl=60)[1].jti}
    assert len(jtis) == 4


def test_a_revoked_or_forgotten_held_token_is_replaced(tokens):
    first = _held(tokens)
    assert tokens.revoke_subject("svc") == 1
    second = _held(tokens)
    assert second[1].jti != first[1].jti
    tokens.apply_entry("rbac.purge", {"jtis": [second[1].jti]})
    assert _held(tokens)[1].jti not in (first[1].jti, second[1].jti)


def test_held_tokens_are_volatile(tokens):
    jti = _held(tokens)[1].jti
    state = tokens.durable_state()
    assert _held(tokens)[1].jti == jti
    assert tokens.durable_state() == state  # a hand-out writes nothing
    tokens.load_state(state)
    assert _held(tokens)[1].jti != jti      # and nothing durable holds it
    tokens.wipe_state()
    assert not tokens._held
