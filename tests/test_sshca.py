"""Unit tests for SSH certificates, the CA service, bastion HA and sshd."""

import pytest

from repro.audit import AuditLog, Outcome
from repro.broker import RbacTokenValidator, Role, TokenService
from repro.clock import SimClock
from repro.crypto import JwkSet
from repro.crypto.keys import generate_signing_key
from repro.errors import (
    CertificateError,
    KillSwitchActive,
    ServiceUnavailable,
)
from repro.ids import IdFactory
from repro.net import HttpRequest, Network, OperatingDomain, Zone
from repro.sshca import (
    BastionSet,
    LoginNodeSshd,
    SshCertificateAuthority,
    SshKeyPair,
    issue_certificate,
    validate_certificate,
)
from tests.conftest import Wiring

ISS = "https://broker"


@pytest.fixture()
def ca_key():
    return generate_signing_key("EdDSA", kid="ca")


@pytest.fixture()
def clock():
    return SimClock(start=10_000.0)


def make_cert(ca_key, keypair, clock, *, principals=("alice.proj1",), ttl=3600.0,
              valid_after=None):
    start = clock.now() if valid_after is None else valid_after
    return issue_certificate(
        ca_key,
        serial=1,
        key_id="ma-0001@myaccessid",
        public_key_jwk=keypair.public_jwk(),
        principals=list(principals),
        valid_after=start,
        valid_before=start + ttl,
    )


# ---------------------------------------------------------------------------
# certificate mechanics
# ---------------------------------------------------------------------------
def test_certificate_validates_with_proof(ca_key, clock):
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    challenge = b"login-node|alice.proj1"
    cert = validate_certificate(
        wire, ca_key.public(), clock,
        principal="alice.proj1",
        challenge=challenge,
        proof=kp.prove_possession(challenge),
    )
    assert cert.key_id == "ma-0001@myaccessid"


def test_certificate_rejects_wrong_principal(ca_key, clock):
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    challenge = b"login-node|root"
    with pytest.raises(CertificateError) as err:
        validate_certificate(
            wire, ca_key.public(), clock,
            principal="root", challenge=challenge,
            proof=kp.prove_possession(challenge),
        )
    assert "principal" in str(err.value)


def test_certificate_expires(ca_key, clock):
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock, ttl=100)
    clock.advance(101)
    challenge = b"login-node|alice.proj1"
    with pytest.raises(CertificateError) as err:
        validate_certificate(
            wire, ca_key.public(), clock,
            principal="alice.proj1", challenge=challenge,
            proof=kp.prove_possession(challenge),
        )
    assert "expired" in str(err.value)


def test_certificate_not_yet_valid(ca_key, clock):
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock, valid_after=clock.now() + 1000)
    challenge = b"login-node|alice.proj1"
    with pytest.raises(CertificateError):
        validate_certificate(
            wire, ca_key.public(), clock,
            principal="alice.proj1", challenge=challenge,
            proof=kp.prove_possession(challenge),
        )


def test_proof_from_wrong_key_rejected(ca_key, clock):
    kp, impostor = SshKeyPair.generate(), SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    challenge = b"login-node|alice.proj1"
    with pytest.raises(CertificateError) as err:
        validate_certificate(
            wire, ca_key.public(), clock,
            principal="alice.proj1", challenge=challenge,
            proof=impostor.prove_possession(challenge),
        )
    assert "possession" in str(err.value)


def test_certificate_from_wrong_ca_rejected(ca_key, clock):
    rogue_ca = generate_signing_key("EdDSA", kid="ca")
    kp = SshKeyPair.generate()
    wire = make_cert(rogue_ca, kp, clock)
    challenge = b"login-node|alice.proj1"
    with pytest.raises(CertificateError):
        validate_certificate(
            wire, ca_key.public(), clock,
            principal="alice.proj1", challenge=challenge,
            proof=kp.prove_possession(challenge),
        )


def test_empty_principals_refused(ca_key, clock):
    kp = SshKeyPair.generate()
    with pytest.raises(CertificateError):
        issue_certificate(
            ca_key, serial=1, key_id="x", public_key_jwk=kp.public_jwk(),
            principals=[], valid_after=0, valid_before=100,
        )


def test_empty_validity_window_refused(ca_key):
    kp = SshKeyPair.generate()
    with pytest.raises(CertificateError):
        issue_certificate(
            ca_key, serial=1, key_id="x", public_key_jwk=kp.public_jwk(),
            principals=["a"], valid_after=100, valid_before=100,
        )


# ---------------------------------------------------------------------------
# CA service
# ---------------------------------------------------------------------------
@pytest.fixture()
def ca_world(clock):
    ids = IdFactory(3)
    broker_key = generate_signing_key("EdDSA", kid="broker-key")
    tokens = TokenService(clock, ids, broker_key, ISS, **Wiring())
    validator = RbacTokenValidator(
        clock, ISS, "ssh-ca", JwkSet([broker_key.public()]), tokens.is_revoked
    )
    ca = SshCertificateAuthority("ssh-ca", clock, validator, **Wiring())
    return clock, ids, tokens, ca


def sign_request(tokens, kp, *, principals=("alice.proj1",), token=None, ttl=None):
    if token is None:
        token, _ = tokens.mint("broker-service", "ssh-ca", Role.SERVICE)
    body = {
        "key_id": "ma-0001@myaccessid",
        "public_key_jwk": kp.public_jwk(),
        "principals": list(principals),
    }
    if ttl:
        body["ttl"] = ttl
    return HttpRequest(
        "POST", "/sign", headers={"Authorization": f"Bearer {token}"}, body=body
    )


def test_ca_signs_for_broker_service_token(ca_world):
    clock, ids, tokens, ca = ca_world
    kp = SshKeyPair.generate()
    resp = ca.handle(sign_request(tokens, kp))
    assert resp.ok
    challenge = b"login-node|alice.proj1"
    cert = validate_certificate(
        str(resp.body["certificate"]), ca.ca_public_key(), clock,
        principal="alice.proj1", challenge=challenge,
        proof=kp.prove_possession(challenge),
    )
    assert cert.serial == 1
    assert ca.certificates_issued == 1


def test_ca_rejects_user_tokens(ca_world):
    """Only the broker's service token may drive the CA — a researcher's
    own RBAC token must not (the CA never decides authorisation)."""
    clock, ids, tokens, ca = ca_world
    kp = SshKeyPair.generate()
    user_token, _ = tokens.mint("alice", "ssh-ca", Role.RESEARCHER)
    resp = ca.handle(sign_request(tokens, kp, token=user_token))
    assert resp.status == 403


def test_ca_rejects_wrong_audience_token(ca_world):
    clock, ids, tokens, ca = ca_world
    kp = SshKeyPair.generate()
    wrong, _ = tokens.mint("broker-service", "portal", Role.SERVICE)
    resp = ca.handle(sign_request(tokens, kp, token=wrong))
    assert resp.status == 403


def test_ca_requires_bearer(ca_world):
    *_, ca = ca_world
    kp = SshKeyPair.generate()
    req = sign_request.__wrapped__ if False else None
    resp = ca.handle(HttpRequest("POST", "/sign", body={
        "key_id": "x", "public_key_jwk": kp.public_jwk(), "principals": ["a"]}))
    assert resp.status == 403


def test_ca_clamps_ttl(ca_world):
    clock, ids, tokens, ca = ca_world
    kp = SshKeyPair.generate()
    resp = ca.handle(sign_request(tokens, kp, ttl=10**9))
    assert resp.body["valid_before"] - clock.now() <= ca.max_cert_ttl


def test_ca_refuses_empty_principals(ca_world):
    clock, ids, tokens, ca = ca_world
    kp = SshKeyPair.generate()
    resp = ca.handle(sign_request(tokens, kp, principals=()))
    assert resp.status == 403


# ---------------------------------------------------------------------------
# bastion + sshd integration on a tiny network
# ---------------------------------------------------------------------------
@pytest.fixture()
def ssh_net(clock, ca_key):
    ids = IdFactory(5)
    network = Network(clock, **Wiring())
    fw = network.firewall
    fw.allow("internet-to-bastion", src_domain=OperatingDomain.EXTERNAL,
             dst_domain=OperatingDomain.SWS, dst_zone=Zone.ACCESS, port=22)
    fw.allow("bastion-to-login", src_domain=OperatingDomain.SWS,
             dst_domain=OperatingDomain.MDC, dst_zone=Zone.HPC, port=22)

    accounts = {"alice.proj1"}
    bastion = BastionSet("bastion", clock, vm_count=2, **Wiring())
    sshd = LoginNodeSshd(
        "login-node", clock, ca_key.public(), lambda u: u in accounts,
        **Wiring()
    )
    from repro.oidc import UserAgent

    agent = UserAgent("laptop")
    network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
    network.attach(bastion, OperatingDomain.SWS, Zone.ACCESS)
    network.attach(sshd, OperatingDomain.MDC, Zone.HPC)
    return network, agent, bastion, sshd, accounts


def ssh_connect(agent, kp, wire, principal="alice.proj1", target="login-node"):
    challenge = f"{target}|{principal}".encode()
    return agent.call("bastion", HttpRequest("POST", "/connect", body={
        "target": target,
        "principal": principal,
        "certificate": wire,
        "proof": kp.prove_possession(challenge).hex(),
    }), port=22)


def test_ssh_via_jump_host(ssh_net, ca_key, clock):
    network, agent, bastion, sshd, _ = ssh_net
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    resp = ssh_connect(agent, kp, wire)
    assert resp.ok, resp.body
    assert resp.body["principal"] == "alice.proj1"
    assert len(sshd.sessions()) == 1
    # the jump host logged the connection
    assert bastion.audit.count(action="ssh.connect") == 1


def test_direct_ssh_to_login_node_blocked(ssh_net, ca_key, clock):
    """Login nodes are not internet-accessible: segmentation enforces the
    jump-host path."""
    from repro.errors import ConnectionBlocked

    network, agent, *_ = ssh_net
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    challenge = b"login-node|alice.proj1"
    with pytest.raises(ConnectionBlocked):
        agent.call("login-node", HttpRequest("POST", "/session", body={
            "target": "login-node", "principal": "alice.proj1",
            "certificate": wire,
            "proof": kp.prove_possession(challenge).hex(),
        }), port=22)


def test_expired_cert_forces_reissue(ssh_net, ca_key, clock):
    network, agent, bastion, sshd, _ = ssh_net
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock, ttl=60)
    clock.advance(120)
    resp = ssh_connect(agent, kp, wire)
    assert resp.status == 403 and "new certificate" in resp.body["error"]


def test_revoked_account_cannot_login(ssh_net, ca_key, clock):
    network, agent, bastion, sshd, accounts = ssh_net
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    accounts.discard("alice.proj1")  # portal revocation propagated
    resp = ssh_connect(agent, kp, wire)
    assert resp.status == 403 and "does not exist" in resp.body["error"]


def test_flagged_user_kill_switch(ssh_net, ca_key, clock):
    network, agent, bastion, sshd, _ = ssh_net
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    bastion.flag_principal("alice.proj1")
    resp = ssh_connect(agent, kp, wire)
    assert resp.status == 403 and resp.body["error_type"] == "KillSwitchActive"
    bastion.unflag_principal("alice.proj1")
    assert ssh_connect(agent, kp, wire).ok


def test_whole_bastion_kill_switch(ssh_net, ca_key, clock):
    network, agent, bastion, sshd, _ = ssh_net
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    bastion.kill_service()
    assert ssh_connect(agent, kp, wire).status == 403
    bastion.restore_service()
    assert ssh_connect(agent, kp, wire).ok


def test_rolling_patch_keeps_service_up(ssh_net, ca_key, clock):
    network, agent, bastion, sshd, _ = ssh_net
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    bastion.drain("bastion-vm0")
    assert ssh_connect(agent, kp, wire).ok  # vm1 serves
    bastion.patch_and_restore("bastion-vm0", "v2")
    bastion.drain("bastion-vm1")
    assert ssh_connect(agent, kp, wire).ok  # patched vm0 serves
    bastion.patch_and_restore("bastion-vm1", "v2")
    assert {vm.image_version for vm in bastion.vms} == {"v2"}


def test_all_bastions_down_unavailable(ssh_net, ca_key, clock):
    network, agent, bastion, sshd, _ = ssh_net
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    for vm in bastion.vms:
        bastion.drain(vm.vm_id, force=True)
    resp = ssh_connect(agent, kp, wire)
    assert resp.status == 403
    assert resp.body["error_type"] == "ServiceUnavailable"


def test_drain_refuses_last_up_vm(ssh_net, ca_key, clock):
    from repro.errors import ConfigurationError

    network, agent, bastion, sshd, _ = ssh_net
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    bastion.drain("bastion-vm0")
    with pytest.raises(ConfigurationError):
        bastion.drain("bastion-vm1")
    # the refusal kept the service alive, and it was audited
    assert ssh_connect(agent, kp, wire).ok
    denies = [e for e in bastion.audit.events()
              if e.action == "bastion.drain" and e.outcome == Outcome.DENIED]
    assert denies and denies[-1].attrs["reason"] == "last-up-vm"
    # force drops the last one deliberately
    bastion.drain("bastion-vm1", force=True)
    assert bastion.up_vms() == []


def test_load_balancing_round_robin(ssh_net, ca_key, clock):
    network, agent, bastion, sshd, _ = ssh_net
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    for _ in range(4):
        ssh_connect(agent, kp, wire)
    assert [vm.connections_handled for vm in bastion.vms] == [2, 2]


def test_session_close_for_principal(ssh_net, ca_key, clock):
    network, agent, bastion, sshd, _ = ssh_net
    kp = SshKeyPair.generate()
    wire = make_cert(ca_key, kp, clock)
    ssh_connect(agent, kp, wire)
    ssh_connect(agent, kp, wire)
    # sessions are held under the uid the certificate was issued to
    assert sshd.sever("alice.proj1", "killswitch") == 0
    assert sshd.sever("ma-0001@myaccessid", "killswitch") == 2
    assert sshd.sessions() == []


# ---------------------------------------------------------------------------
# the client verifies a host certificate once and the host's proof always
# ---------------------------------------------------------------------------
class ScriptedAgent:
    """Stands in for the user's device: the broker's certificate response
    and the login node's answer are whatever the test last set."""

    def __init__(self):
        self.ca_jwk = self.host_answer = None

    def post(self, url, body):
        from repro.net import HttpResponse

        return HttpResponse.json({
            "certificate": "user-cert", "valid_before": 1e9,
            "ca_public_key_jwk": dict(self.ca_jwk)}), url

    def call(self, endpoint, request, port=443):
        from repro.net import HttpResponse

        return HttpResponse.json(self.host_answer(
            f"{request.body['target']}|{request.body['principal']}".encode()))


class LoginNode:
    """A host keypair, its CA-signed certificate and its proof."""

    def __init__(self, ca_key, clock):
        from repro.sshca.certificate import issue_host_certificate

        self.keypair = self.proving = SshKeyPair.generate()
        self.certificate = issue_host_certificate(
            ca_key, serial=1, hostname="login-node",
            host_public_key_jwk=self.keypair.public_jwk(),
            valid_after=clock.now(), valid_before=clock.now() + 3600.0)

    def answer(self, challenge):
        return {"session_id": "s", "host_certificate": self.certificate,
                "host_proof": self.proving.key.sign(
                    b"host-proof:" + challenge).hex()}


@pytest.fixture()
def real_checks(real_crypto):
    """Real signature checks, counted per ``kid`` across every key object."""
    return real_crypto[1]


def _client(ca_key, clock):
    from repro.crypto.jwk import public_jwk
    from repro.sshca.client import SshCertClient

    agent = ScriptedAgent()
    agent.ca_jwk = public_jwk(ca_key.public())
    node = LoginNode(ca_key, clock)
    agent.host_answer = node.answer
    client = SshCertClient(agent)
    client.clock = clock
    return client, agent, node


def test_client_verifies_the_host_certificate_once_and_the_proof_every_time(
        ca_key, clock, real_checks):
    client, agent, node = _client(ca_key, clock)
    for connection in (1, 2, 3):
        assert client.request_certificate().ok  # re-pins the same CA key
        assert client.ssh_direct("alice.proj1").ok
        assert real_checks["ca"] == 1               # the host certificate
        assert real_checks["user-ssh-key"] == connection  # the host's proof
    # the genuine certificate with somebody else's proof: refused, late
    # in the client's life as on its first connection
    node.proving = SshKeyPair.generate()
    for _ in range(2):
        with pytest.raises(CertificateError, match="possession"):
            client.ssh_direct("alice.proj1")
    assert real_checks["ca"] == 1 and real_checks["user-ssh-key"] == 5
    # and the window is the clock's: a remembered signature does not
    # keep an expired host certificate alive
    node.proving = node.keypair
    clock.advance(3601.0)
    with pytest.raises(CertificateError, match="validity window"):
        client.ssh_direct("alice.proj1")


def test_client_forgets_what_the_old_ca_vouched_for_when_the_pin_changes(
        ca_key, clock, real_checks):
    client, agent, node = _client(ca_key, clock)
    assert client.request_certificate().ok and client.ssh_direct("a.p").ok
    pinned = client._ca_verifier
    assert client.request_certificate().ok
    assert client._ca_verifier is pinned  # same content, same verifier

    from repro.crypto.jwk import public_jwk

    new_ca = generate_signing_key("EdDSA", kid="ca")  # same kid, new key
    agent.ca_jwk = public_jwk(new_ca.public())
    assert client.request_certificate().ok
    assert client._ca_verifier is not pinned
    for _ in range(2):  # the old CA's host certificate: checked, refused
        with pytest.raises(CertificateError, match="signature invalid"):
            client.ssh_direct("a.p")
    assert real_checks["ca"] == 3
    agent.host_answer = LoginNode(new_ca, clock).answer
    assert client.ssh_direct("a.p").ok
