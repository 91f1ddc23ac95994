"""Tests for SPIFFE/SPIRE-style workload identity."""

import pytest

from repro.clock import SimClock
from repro.core import build_isambard
from repro.errors import AuthenticationError, ConfigurationError
from repro.federation import TrustDomainAuthority


@pytest.fixture()
def authority():
    clock = SimClock()
    tda = TrustDomainAuthority("isambard.example", clock, svid_ttl=600)
    tda.register_workload("fds/zenith", "endpoint:zenith", "domain:fds")
    return clock, tda


def test_issue_and_validate_svid(authority):
    clock, tda = authority
    wire = tda.issue_svid("fds/zenith")
    identity = tda.validate_svid(wire)
    assert identity.spiffe_id == "spiffe://isambard.example/fds/zenith"
    assert "domain:fds" in identity.selectors
    assert identity.matches("spiffe://isambard.example/fds/")
    assert not identity.matches("spiffe://isambard.example/mdc/")


def test_one_bundle_remembers_the_svids_it_verified(authority):
    """Forwarders that flush at the same instant present byte-identical
    SVIDs; one public half means the second costs no signature check —
    and expiry is still the clock's call on every presentation."""
    from tests.test_hot_path_bookkeeping import CountingPublicKey

    clock, tda = authority
    assert tda.bundle() is tda.bundle()
    counter = tda.bundle()._public = CountingPublicKey(tda.bundle()._public)
    wire = tda.issue_svid("fds/zenith")
    assert wire == tda.issue_svid("fds/zenith")  # same instant, same bytes
    for _ in range(3):
        tda.validate_svid(wire)
    assert counter.calls == 1
    clock.advance(601)
    with pytest.raises(AuthenticationError):
        tda.validate_svid(wire)


def test_unattested_workload_refused(authority):
    _, tda = authority
    with pytest.raises(AuthenticationError):
        tda.issue_svid("mdc/rogue")


def test_svid_expires_and_rotates(authority):
    clock, tda = authority
    wire = tda.issue_svid("fds/zenith")
    clock.advance(601)
    with pytest.raises(AuthenticationError):
        tda.validate_svid(wire)
    fresh = tda.issue_svid("fds/zenith")
    assert tda.validate_svid(fresh)
    assert tda.issued_count == 2


def test_a_held_svid_is_reissued_past_half_its_lifetime(authority):
    """A repeat presenter gets the same bytes until half the SVID's
    lifetime has passed, so it is always at least half-life from expiry;
    then one fresh SVID, held from then on."""
    clock, tda = authority
    first = tda.held("fds/zenith")
    clock.advance(300.0)
    assert tda.held("fds/zenith") == first and tda.issued_count == 1
    clock.advance(0.5)
    second = tda.held("fds/zenith")
    assert second != first and tda.issued_count == 2
    assert tda.validate_svid(second).expires_at == clock.now() + 600
    assert tda.held("fds/zenith") == second and tda.issued_count == 2


def test_foreign_trust_domain_rejected():
    clock = SimClock()
    ours = TrustDomainAuthority("isambard.example", clock)
    theirs = TrustDomainAuthority("evil.example", clock)
    theirs.register_workload("fds/zenith")
    wire = theirs.issue_svid("fds/zenith")
    with pytest.raises(AuthenticationError):
        ours.validate_svid(wire)  # wrong signing key -> invalid


def test_forged_svid_rejected(authority):
    clock, tda = authority
    wire = tda.issue_svid("fds/zenith")
    forged = wire[:-6] + "AAAAAA"
    with pytest.raises(AuthenticationError):
        tda.validate_svid(forged)


def test_non_svid_document_rejected(authority):
    clock, tda = authority
    from repro.crypto.certs import sign_document

    doc = sign_document(tda._key, {"type": "something-else", "exp": 10**9})
    with pytest.raises(AuthenticationError):
        tda.validate_svid(doc.to_wire())


def test_bad_registration_paths(authority):
    _, tda = authority
    with pytest.raises(ConfigurationError):
        tda.register_workload("")
    with pytest.raises(ConfigurationError):
        tda.register_workload("/absolute")


def test_deployment_attests_internal_workloads():
    dri = build_isambard(seed=61)
    assert dri.spire.registered("sws/log-shipper")
    assert dri.spire.registered("fds/broker")
    # the log pipeline actually carries SVIDs: force a flush and check
    dri.workflows.story1_pi_onboarding("w")
    dri.ship_logs()
    assert dri.spire.issued_count > 0


def test_soc_ingest_demands_valid_svid():
    """With workload identity required, a stolen service token alone is
    no longer enough to feed (or poison) the detection pipeline."""
    from repro.broker import Role
    from repro.net import HttpRequest

    dri = build_isambard(seed=63)
    token, _ = dri.broker.tokens.mint("imposter", "soc", Role.SERVICE)
    # valid RBAC token, no SVID
    resp = dri.network.request("broker", "soc", HttpRequest(
        "POST", "/ingest",
        headers={"Authorization": f"Bearer {token}"},
        body={"records": [{"time": 1.0, "action": "x", "actor": "a",
                           "outcome": "success"}]},
    ))
    assert resp.status == 403
    # valid token + SVID for a workload that may not ship logs
    wrong_svid = dri.spire.issue_svid("fds/broker")
    resp2 = dri.network.request("broker", "soc", HttpRequest(
        "POST", "/ingest",
        headers={"Authorization": f"Bearer {token}",
                 "X-Workload-SVID": wrong_svid},
        body={"records": []},
    ))
    assert resp2.status == 403
    # the real pipeline (token + attested shipper SVID) still flows
    dri.workflows.story1_pi_onboarding("nel")
    dri.ship_logs()
    assert dri.soc.records_ingested > 0


def test_selectors_record_attested_facts():
    dri = build_isambard(seed=62)
    wire = dri.spire.issue_svid("mdc/jupyter")
    identity = dri.spire.validate_svid(wire)
    assert "zone:hpc" in identity.selectors
    assert "domain:mdc" in identity.selectors
