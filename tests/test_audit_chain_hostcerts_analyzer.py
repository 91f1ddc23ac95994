"""Tests: tamper-evident audit chain, SSH host certificates (mutual auth),
and the firewall change analyzer."""

import pytest

from repro.audit import AuditEvent, AuditLog, Outcome
from repro.clock import SimClock
from repro.core import build_isambard
from repro.errors import CertificateError
from repro.net import FirewallRule, OperatingDomain, Zone, analyze_rule_change
from repro.sshca import (
    SshKeyPair,
    issue_host_certificate,
    validate_host_certificate,
)
from repro.crypto.keys import generate_signing_key


# ---------------------------------------------------------------------------
# audit chain
# ---------------------------------------------------------------------------
def ev(t, action="login", actor="a"):
    return AuditEvent(time=t, source="s", actor=actor, action=action,
                      resource="r", outcome=Outcome.SUCCESS)


def test_chain_intact_for_normal_logging():
    log = AuditLog()
    for i in range(20):
        log.emit(ev(float(i)))
    intact, bad = log.verify_chain()
    assert intact and bad is None
    assert all(e.digest for e in log.events())


def test_chain_detects_content_mutation():
    log = AuditLog()
    for i in range(10):
        log.emit(ev(float(i)))
    # rewrite the stored record's actor (time, source, actor, ...)
    victim = log._events[4]
    log._events[4] = victim[:2] + ("rewritten",) + victim[3:]
    intact, bad = log.verify_chain()
    assert not intact and bad == 4


def test_chain_detects_removal():
    log = AuditLog()
    for i in range(10):
        log.emit(ev(float(i)))
    del log._events[3]
    intact, bad = log.verify_chain()
    assert not intact and bad == 3


def test_chain_detects_reordering():
    log = AuditLog()
    log.emit(ev(0.0, actor="first"))
    log.emit(ev(1.0, actor="second"))
    log._events.reverse()
    intact, bad = log.verify_chain()
    assert not intact and bad == 0


def test_chain_digest_depends_on_history():
    log1, log2 = AuditLog(), AuditLog()
    log1.emit(ev(0.0, actor="x"))
    log1.emit(ev(1.0, actor="same"))
    log2.emit(ev(0.0, actor="y"))
    log2.emit(ev(1.0, actor="same"))
    # identical second events chain to different digests
    assert log1.events()[1].digest != log2.events()[1].digest


def test_deployment_audit_chains_verify():
    dri = build_isambard(seed=81)
    dri.workflows.story1_pi_onboarding("kay")
    dri.workflows.story4_ssh_session("kay")
    for name, log in dri.logs.items():
        intact, bad = log.verify_chain()
        assert intact, (name, bad)


# ---------------------------------------------------------------------------
# host certificates
# ---------------------------------------------------------------------------
@pytest.fixture()
def host_setup():
    clock = SimClock(start=100.0)
    ca = generate_signing_key("EdDSA", kid="ca")
    host_kp = SshKeyPair.generate()
    wire = issue_host_certificate(
        ca, serial=1, hostname="login-node",
        host_public_key_jwk=host_kp.public_jwk(),
        valid_after=0.0, valid_before=10_000.0,
    )
    return clock, ca, host_kp, wire


def test_host_certificate_validates(host_setup):
    clock, ca, host_kp, wire = host_setup
    challenge = b"login-node|alice.proj1"
    cert = validate_host_certificate(
        wire, ca.public(), clock, hostname="login-node",
        challenge=challenge,
        proof=host_kp.key.sign(b"host-proof:" + challenge),
    )
    assert cert.principals == ["login-node"]


def test_host_certificate_wrong_hostname_rejected(host_setup):
    clock, ca, host_kp, wire = host_setup
    challenge = b"x"
    with pytest.raises(CertificateError):
        validate_host_certificate(
            wire, ca.public(), clock, hostname="evil-node",
            challenge=challenge,
            proof=host_kp.key.sign(b"host-proof:" + challenge),
        )


def test_host_certificate_cannot_authenticate_a_user(host_setup):
    """Cross-protocol confusion blocked: a host cert is not a user cert."""
    from repro.sshca import validate_certificate

    clock, ca, host_kp, wire = host_setup
    challenge = b"login-node|login-node"
    with pytest.raises(CertificateError) as err:
        validate_certificate(
            wire, ca.public(), clock, principal="login-node",
            challenge=challenge,
            proof=host_kp.prove_possession(challenge),
        )
    assert "user-certificate" in str(err.value)


def test_user_certificate_cannot_authenticate_a_host(host_setup):
    from repro.sshca import issue_certificate

    clock, ca, host_kp, _ = host_setup
    user_wire = issue_certificate(
        ca, serial=2, key_id="u", public_key_jwk=host_kp.public_jwk(),
        principals=["login-node"], valid_after=0.0, valid_before=10_000.0,
    )
    challenge = b"c"
    with pytest.raises(CertificateError):
        validate_host_certificate(
            user_wire, ca.public(), clock, hostname="login-node",
            challenge=challenge,
            proof=host_kp.key.sign(b"host-proof:" + challenge),
        )


def test_client_verifies_host_end_to_end():
    """The deployed flow performs mutual authentication transparently."""
    dri = build_isambard(seed=82)
    dri.workflows.story1_pi_onboarding("lia")
    s4 = dri.workflows.story4_ssh_session("lia")
    assert s4.ok
    client = dri.workflows.personas["lia"].ssh_client
    assert client.ca_public_jwk is not None


def test_client_rejects_spoofed_host():
    """A login node with no (or a foreign) host certificate is refused by
    the client even though the *user* authentication would succeed."""
    dri = build_isambard(seed=83)
    dri.workflows.story1_pi_onboarding("mo")
    client = dri.workflows.personas["mo"].ssh_client
    client.request_certificate()
    dri.login_sshd.host_certificate = None  # spoof: no provable identity
    alias = sorted(client.ssh_config)[0]
    with pytest.raises(CertificateError) as err:
        client.ssh(alias)
    assert "host certificate" in str(err.value)


# ---------------------------------------------------------------------------
# firewall change analyzer
# ---------------------------------------------------------------------------
def test_analyzer_flags_protected_exposure():
    dri = build_isambard(seed=84)
    risky = FirewallRule(
        name="debug-access-to-mdc",
        src_domain=OperatingDomain.EXTERNAL,
        dst_domain=OperatingDomain.MDC,
        dst_zone=Zone.HPC,
        port=443,
    )
    report = analyze_rule_change(dri.network, risky)
    assert report.exposes_protected
    exposed = {(d.src, d.dst) for d in report.newly_allowed}
    assert any(dst == "jupyter" for _, dst in exposed)
    assert "[PROTECTED-ZONE EXPOSURE]" in report.summary()


def test_analyzer_benign_rule_reports_no_exposure():
    dri = build_isambard(seed=85)
    benign = FirewallRule(
        name="another-fds-to-external",
        src_domain=OperatingDomain.FDS,
        dst_domain=OperatingDomain.EXTERNAL,
        port=443,
    )
    report = analyze_rule_change(dri.network, benign)
    assert not report.exposes_protected
    # and it never mutated the live firewall
    assert all(r.name != "another-fds-to-external"
               for r in dri.network.firewall.rules())


def test_analyzer_prepended_deny_reports_lost_flows():
    dri = build_isambard(seed=86)
    lockdown = FirewallRule(
        name="block-all-ssh",
        port=22,
        action="deny",
    )
    report = analyze_rule_change(dri.network, lockdown, position="prepend")
    assert report.newly_denied
    assert any(d.dst == "bastion" for d in report.newly_denied)
    assert not report.newly_allowed


def test_analyzer_noop_rule():
    dri = build_isambard(seed=87)
    duplicate = FirewallRule(
        name="dup",
        src_domain=OperatingDomain.EXTERNAL,
        dst_domain=OperatingDomain.FDS,
        dst_zone=Zone.ACCESS,
        port=443,
    )
    report = analyze_rule_change(dri.network, duplicate)
    assert not report.newly_allowed and not report.newly_denied
    assert "no reachability change" in report.summary()