"""The error taxonomy is load-bearing: services convert ``ReproError``
subclasses into denials, the resilience layer retries exactly the
``ServiceUnavailable`` family, and benches key off ``error_type`` names.
These tests pin the hierarchy and prove every concrete class is actually
raised by at least one real code path."""

import pytest

from repro import errors
from repro.audit import AuditLog
from repro.clock import SimClock
from repro.crypto import JwkSet, JwtValidator
from repro.crypto.jwt import encode_jwt
from repro.crypto.keys import generate_signing_key
from repro.errors import (
    AssuranceTooLow,
    AudienceMismatch,
    AuthenticationError,
    AuthorizationError,
    CertificateError,
    CircuitOpen,
    ClaimMissing,
    ConfigurationError,
    ConnectionBlocked,
    EncryptionRequired,
    FaultInjected,
    FederationError,
    IdentityNotRegistered,
    IssuerMismatch,
    KillSwitchActive,
    MFAFailed,
    MFARequired,
    NetworkError,
    PolicyViolation,
    QuotaExceeded,
    RateLimited,
    RegistrationError,
    ReproError,
    SchedulerError,
    ServiceUnavailable,
    SignatureInvalid,
    TokenError,
    TokenExpired,
    TokenNotYetValid,
    TokenRevoked,
)
from tests.conftest import Wiring


# ---------------------------------------------------------------------------
# hierarchy
# ---------------------------------------------------------------------------
def test_every_exported_error_subclasses_reproerror():
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert isinstance(cls, type) and issubclass(cls, ReproError), name


def test_intermediate_bases():
    assert issubclass(MFARequired, AuthenticationError)
    assert issubclass(MFAFailed, AuthenticationError)
    for cls in (SignatureInvalid, TokenExpired, TokenNotYetValid,
                TokenRevoked, AudienceMismatch, IssuerMismatch, ClaimMissing):
        assert issubclass(cls, TokenError)
    for cls in (AssuranceTooLow, IdentityNotRegistered, RegistrationError):
        assert issubclass(cls, FederationError)
    for cls in (ConnectionBlocked, EncryptionRequired, ServiceUnavailable,
                RateLimited):
        assert issubclass(cls, NetworkError)
    # the resilience layer's additions fold into the outage family, so a
    # client needs no chaos-specific handling
    assert issubclass(FaultInjected, ServiceUnavailable)
    assert issubclass(CircuitOpen, ServiceUnavailable)
    # authn/authz are siblings, not parent/child
    assert not issubclass(AuthorizationError, AuthenticationError)
    assert not issubclass(AuthenticationError, AuthorizationError)


def test_catch_all_handles_any_library_error():
    for name in errors.__all__:
        cls = getattr(errors, name)
        try:
            raise cls("boom")
        except ReproError as exc:
            assert str(exc) == "boom"


# ---------------------------------------------------------------------------
# every concrete class has a real raise site
# ---------------------------------------------------------------------------
@pytest.fixture()
def jwt_world():
    clock = SimClock(start=1000.0)
    key = generate_signing_key("EdDSA", "k1")
    keys = JwkSet([key.public()])
    validator = JwtValidator(clock, "https://iss", "aud", keys)

    def token(**over):
        claims = {"iss": "https://iss", "sub": "u", "aud": "aud",
                  "iat": clock.now(), "exp": clock.now() + 600}
        for k, v in over.items():
            if v is None:
                claims.pop(k, None)
            else:
                claims[k] = v
        return encode_jwt(claims, key)

    return clock, key, validator, token


def test_jwt_validator_raises_the_token_family(jwt_world):
    clock, key, validator, token = jwt_world
    assert validator.validate(token())["sub"] == "u"
    with pytest.raises(SignatureInvalid):
        validator.validate(token() + "tamper")
    with pytest.raises(TokenExpired):
        validator.validate(token(exp=clock.now() - 3600))
    with pytest.raises(TokenNotYetValid):
        validator.validate(token(nbf=clock.now() + 3600))
    with pytest.raises(AudienceMismatch):
        validator.validate(token(aud="other-service"))
    with pytest.raises(IssuerMismatch):
        validator.validate(token(iss="https://evil"))
    with pytest.raises(ClaimMissing):
        validator.validate(token(exp=None))


def test_token_service_raises_revoked_and_authorization():
    from repro.broker import Role, TokenService
    from repro.broker.tokens import RbacTokenValidator
    from repro.ids import IdFactory

    clock = SimClock()
    key = generate_signing_key("EdDSA", "b")
    ts = TokenService(clock, IdFactory(1), key, "https://broker", **Wiring())
    tok, rec = ts.mint("u", "portal", Role.RESEARCHER)
    validator = RbacTokenValidator(
        clock, "https://broker", "portal", JwkSet([key.public()]),
        ts.is_revoked,
    )
    assert validator.validate(tok)["sub"] == "u"
    ts.revoke_jti(rec.jti)
    with pytest.raises(TokenRevoked):
        validator.validate(tok)
    # least privilege: a role the RBAC map does not know grants nothing
    with pytest.raises(AuthorizationError):
        ts.mint("u", "portal", "made-up-role")


def test_mfa_classes_have_raise_sites():
    from repro.federation import HardwareKey
    from repro.federation.mfa import HardwareKeyRegistration

    clock = SimClock()
    reg = HardwareKeyRegistration(clock)
    with pytest.raises(MFAFailed):
        reg.verify_assertion({"device_id": "ghost", "challenge": "00",
                              "signature": "00"})
    with pytest.raises(MFAFailed):
        HardwareKey("hwk-1").sign_challenge(b"c", touched=False)


def test_lastresort_missing_otp_is_mfarequired():
    from repro.federation import LastResortIdP
    from repro.ids import IdFactory

    clock = SimClock()
    lr = LastResortIdP("idp-lastresort", clock, IdFactory(2),
                       audit=AuditLog("fds"))
    code = lr.invite("v@example.org")
    from repro.net.http import HttpRequest

    lr.register(HttpRequest("POST", "/register", body={
        "invite_code": code, "username": "vendor1",
        "password": "a-long-password!", "display_name": "V"}))
    with pytest.raises(MFARequired):
        lr.login(HttpRequest("POST", "/login", body={
            "username": "vendor1", "password": "a-long-password!"}))
    with pytest.raises(MFAFailed):
        lr.login(HttpRequest("POST", "/login", body={
            "username": "vendor1", "password": "a-long-password!",
            "otp": "000000"}))
    with pytest.raises(AuthenticationError):
        lr.login(HttpRequest("POST", "/login", body={
            "username": "vendor1", "password": "wrong"}))


def test_edge_rate_limit_raises_ratelimited():
    from repro.tunnels import CloudflareEdge

    clock = SimClock()
    edge = CloudflareEdge("edge", clock, rate_limit=2, window=10.0, **Wiring())
    edge.enforce("laptop", "/broker/x", clock.now())
    edge.enforce("laptop", "/broker/x", clock.now())
    with pytest.raises(RateLimited):
        edge.enforce("laptop", "/broker/x", clock.now())


def test_network_layer_raises_its_family():
    from repro.net import (
        HttpRequest, Network, OperatingDomain, Service, Zone,
    )

    clock = SimClock()
    network = Network(clock, audit=AuditLog("net"))
    network.firewall.allow(
        "e-to-f", src_domain=OperatingDomain.EXTERNAL,
        dst_domain=OperatingDomain.FDS, port=443)
    network.attach(Service("laptop"), OperatingDomain.EXTERNAL, Zone.INTERNET)
    network.attach(Service("broker"), OperatingDomain.FDS, Zone.ACCESS)
    network.attach(Service("mgmt"), OperatingDomain.MDC, Zone.MANAGEMENT)
    with pytest.raises(ConnectionBlocked):
        network.request("laptop", "mgmt", HttpRequest("GET", "/"))
    with pytest.raises(EncryptionRequired):
        network.request("laptop", "broker", HttpRequest("GET", "/"),
                        encrypted=False)
    network.endpoint("broker").up = False
    with pytest.raises(ServiceUnavailable):
        network.request("laptop", "broker", HttpRequest("GET", "/"))
    with pytest.raises(ConfigurationError):
        network.endpoint("nonexistent")


def test_federation_layer_raises_its_family():
    from repro.federation import (
        AssurancePolicy, EntityCategory, LevelOfAssurance,
    )
    from repro.federation.directory import ShardedAccountRegistry
    from repro.federation.myaccessid import LinkedIdentity
    from repro.ids import IdFactory

    policy = AssurancePolicy(minimum_loa=LevelOfAssurance.CAPPUCCINO)
    with pytest.raises(AssuranceTooLow):
        policy.check(LevelOfAssurance.LOW,
                     (EntityCategory.RESEARCH_AND_SCHOLARSHIP,))
    with pytest.raises(AssuranceTooLow):  # right LoA, missing R&S category
        policy.check(LevelOfAssurance.ESPRESSO, ())

    registry = ShardedAccountRegistry(SimClock(), IdFactory(3), shards=1)
    ghost = LinkedIdentity("https://idp.example", "nobody")
    with pytest.raises(IdentityNotRegistered):
        registry.link("ma-ghost@myaccessid", ghost)
    with pytest.raises(IdentityNotRegistered):
        registry.deprovision("ma-ghost@myaccessid")


def test_lastresort_bad_invite_is_registrationerror():
    from repro.federation import LastResortIdP
    from repro.ids import IdFactory
    from repro.net.http import HttpRequest

    clock = SimClock()
    lr = LastResortIdP("idp-lastresort", clock, IdFactory(4),
                       audit=AuditLog("fds"))
    with pytest.raises(RegistrationError):
        lr.register(HttpRequest("POST", "/register", body={
            "invite_code": "not-a-real-code", "username": "x",
            "password": "a-long-password!"}))


def test_scheduler_and_policy_classes():
    from repro.cluster.nodes import NodePool

    pool = NodePool("gh", "grace-hopper", 1, gpus_per_node=4)
    with pytest.raises(SchedulerError):
        pool.allocate(5, "job")

    from repro.policy import (
        AccessContext, PolicyEngine, standard_zero_trust_rules,
    )

    engine = standard_zero_trust_rules(PolicyEngine())
    contained = AccessContext(
        subject="u", role="researcher", capability="job.submit",
        resource="scheduler", risk_score=1.0,  # SOC containment wins
    )
    with pytest.raises(PolicyViolation):
        engine.enforce(contained)


def test_storage_quota_and_authorization():
    from repro.cluster.storage import ParallelFilesystem

    pfs = ParallelFilesystem(lambda account: "proj1")
    pfs.provision("proj1", quota_bytes=100)
    pfs.write("alice.proj1", "proj1", "/data/a", 80)
    with pytest.raises(QuotaExceeded):
        pfs.write("alice.proj1", "proj1", "/data/b", 40)
    with pytest.raises(AuthorizationError):
        pfs.write("alice.proj1", "proj2", "/data/c", 1)


def test_ssh_client_raises_certificateerror():
    from repro.sshca.client import SshCertClient

    client = SshCertClient(agent=object())
    with pytest.raises(CertificateError):
        client.ssh("ai")  # no alias written yet
    with pytest.raises(CertificateError):
        client.ssh_direct("u")  # no certificate issued yet


def test_killswitch_and_configuration_classes():
    from repro.net.http import HttpRequest
    from repro.sshca import BastionSet

    clock = SimClock()
    bastion = BastionSet("bastion", clock, vm_count=1, **Wiring())
    bastion.kill_service()
    with pytest.raises(KillSwitchActive):
        bastion.connect(HttpRequest("POST", "/connect",
                                    body={"principal": "u", "target": "t"}))
    with pytest.raises(ConfigurationError):
        BastionSet("b2", clock, vm_count=0, **Wiring())


def test_every_error_is_a_repro_error():
    import repro.errors as E

    for name in E.__all__:
        cls = getattr(E, name)
        assert issubclass(cls, ReproError)
        assert issubclass(cls, Exception)


def test_token_error_hierarchy():
    assert issubclass(TokenExpired, TokenError)
    with pytest.raises(TokenError):
        raise TokenExpired("x")
