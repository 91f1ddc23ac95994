"""Property-based tests for the invariants DESIGN.md §5 commits to.

These use hypothesis to search for counterexamples rather than assert
single scenarios: rule-order permutations, fuzzed OIDC inputs, random
tamper positions, adversarial id sequences.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.crypto import JwkSet, encode_jwt, sign_compact, verify_compact
from repro.crypto.certs import SignedDocument, sign_document, verify_document
from repro.crypto.keys import generate_signing_key
from repro.errors import (
    CertificateError,
    ReproError,
    SignatureInvalid,
    TokenError,
)
from repro.ids import IdFactory
from repro.net import Firewall, FirewallRule, OperatingDomain, Zone
from repro.oidc.session import Session, SessionStore

# shared keys (generation is the slow part)
KEY = generate_signing_key("EdDSA", kid="prop-key")
CA = generate_signing_key("EdDSA", kid="prop-ca")


# ---------------------------------------------------------------------------
# invariant 7 — management zone unreachable from the public internet
# under ALL orderings of the deployment's allow rules
# ---------------------------------------------------------------------------
def fig1_rules():
    from repro.core.deployment import _open_fig1_flows

    fw = Firewall()
    _open_fig1_flows(fw)
    return fw.rules()


@settings(max_examples=60, deadline=None)
@given(order=st.permutations(range(len(fig1_rules()))))
def test_property_mgmt_zone_closed_under_any_rule_order(order):
    base = fig1_rules()
    fw = Firewall()
    for idx in order:
        fw.add_rule(base[idx])
    for port in (22, 443, 8080):
        decision = fw.evaluate(
            OperatingDomain.EXTERNAL, Zone.INTERNET,
            OperatingDomain.MDC, Zone.MANAGEMENT, port,
        )
        assert not decision, f"internet reached MDC management on {port}"
        # and the HPC plane is equally closed from the internet
        assert not fw.evaluate(
            OperatingDomain.EXTERNAL, Zone.INTERNET,
            OperatingDomain.MDC, Zone.HPC, port,
        )


@settings(max_examples=60, deadline=None)
@given(order=st.permutations(range(len(fig1_rules()))))
def test_property_security_zone_never_originates(order):
    """SEC can be written to (logs) but never reaches outward."""
    base = fig1_rules()
    fw = Firewall()
    for idx in order:
        fw.add_rule(base[idx])
    for dst_domain in (OperatingDomain.FDS, OperatingDomain.MDC,
                       OperatingDomain.SWS, OperatingDomain.EXTERNAL):
        for zone in (Zone.ACCESS, Zone.HPC, Zone.MANAGEMENT, Zone.INTERNET):
            assert not fw.evaluate(
                OperatingDomain.SEC, Zone.SECURITY, dst_domain, zone, 443
            )


# ---------------------------------------------------------------------------
# invariant 3/4 — token validation is total: any input either validates
# or raises a typed error; fuzzed garbage never validates
# ---------------------------------------------------------------------------
@settings(max_examples=100)
@given(garbage=st.text(max_size=200))
def test_property_fuzzed_tokens_never_validate(garbage):
    from repro.crypto import JwtValidator

    clock = SimClock(start=100.0)
    validator = JwtValidator(clock, "iss", "aud", JwkSet([KEY.public()]))
    try:
        claims = validator.validate(garbage)
    except (TokenError, ReproError):
        return
    # validating implies it was a genuine token we signed — impossible here
    raise AssertionError(f"garbage validated: {claims}")


@settings(max_examples=50)
@given(
    claims=st.dictionaries(
        st.sampled_from(["iss", "aud", "sub", "exp", "nbf", "role", "x"]),
        st.one_of(st.text(max_size=10), st.integers(), st.none(),
                  st.lists(st.text(max_size=5), max_size=3)),
        max_size=7,
    )
)
def test_property_arbitrary_claims_never_crash_validator(claims):
    """Whatever claims a (mis)behaving issuer signs, validation answers
    with accept-or-typed-reject — never an unhandled exception."""
    from repro.crypto import JwtValidator

    clock = SimClock(start=100.0)
    token = encode_jwt(claims, KEY)
    validator = JwtValidator(clock, "iss", "aud", JwkSet([KEY.public()]))
    try:
        out = validator.validate(token)
        # acceptance implies the registered claims were right
        assert out.get("iss") == "iss"
        assert isinstance(out.get("exp"), (int, float))
    except (TokenError, ReproError):
        pass


# ---------------------------------------------------------------------------
# invariant 4 — signed documents: any payload mutation is detected
# ---------------------------------------------------------------------------
@settings(max_examples=50)
@given(
    payload=st.dictionaries(
        st.text(min_size=1, max_size=8), st.text(max_size=12), min_size=1,
        max_size=5,
    ),
    extra_key=st.text(min_size=1, max_size=8),
    extra_val=st.text(max_size=12),
)
def test_property_signed_document_mutation_detected(payload, extra_key, extra_val):
    doc = sign_document(CA, dict(payload))
    assert verify_document(CA.public(), doc) == payload

    mutated = dict(payload)
    mutated[extra_key] = extra_val + "x"
    if mutated == payload:
        return
    forged = SignedDocument(
        payload=mutated, signer_kid=doc.signer_kid,
        signature_b64=doc.signature_b64,
    )
    with pytest.raises(SignatureInvalid):
        verify_document(CA.public(), forged)


# ---------------------------------------------------------------------------
# invariant 8 — the CA never signs beyond the requested principal set,
# and certificates only admit their own principals
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    principals=st.lists(
        st.from_regex(r"[a-z]{1,8}\.proj[0-9]{1,3}", fullmatch=True),
        min_size=1, max_size=5, unique=True,
    ),
    probe=st.from_regex(r"[a-z]{1,8}\.proj[0-9]{1,3}", fullmatch=True),
)
def test_property_certificate_admits_exactly_its_principals(principals, probe):
    from repro.sshca import SshKeyPair, issue_certificate, validate_certificate

    clock = SimClock(start=10.0)
    kp = SshKeyPair.generate()
    wire = issue_certificate(
        CA, serial=1, key_id="k", public_key_jwk=kp.public_jwk(),
        principals=principals, valid_after=0.0, valid_before=100.0,
    )
    challenge = f"login-node|{probe}".encode()
    proof = kp.prove_possession(challenge)
    if probe in principals:
        cert = validate_certificate(
            wire, CA.public(), clock, principal=probe,
            challenge=challenge, proof=proof,
        )
        assert sorted(cert.principals) == sorted(principals)
    else:
        with pytest.raises(CertificateError):
            validate_certificate(
                wire, CA.public(), clock, principal=probe,
                challenge=challenge, proof=proof,
            )


# ---------------------------------------------------------------------------
# sessions: expiry and revocation are absolute
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    ttl=st.floats(min_value=1, max_value=10_000),
    probe_offset=st.floats(min_value=0, max_value=20_000),
    revoke=st.booleans(),
)
def test_property_session_lookup_respects_expiry_and_revocation(
    ttl, probe_offset, revoke
):
    clock = SimClock()
    store = SessionStore(clock, IdFactory(1), ttl=ttl)
    session = Session(**store.create("alice", {}, amr=["pwd"]))
    store.restore(session)
    if revoke:
        store.revoke(session.sid)
    clock.advance(probe_offset)
    found = store.get(session.sid)
    should_exist = (not revoke) and probe_offset < ttl
    assert (found is not None) == should_exist


@settings(max_examples=30, deadline=None)
@given(subjects=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                         max_size=12))
def test_property_revoke_subject_exact(subjects):
    clock = SimClock()
    store = SessionStore(clock, IdFactory(1), ttl=1000)
    for s in subjects:
        store.restore(Session(**store.create(s, {}, amr=[])))
    revoked = store.revoke_subject("a")
    assert revoked == subjects.count("a")
    assert all(grant[2] != "a" for grant in store.grants(clock.now()))


# ---------------------------------------------------------------------------
# JWS header fuzz: adversarial headers cannot smuggle algorithms
# ---------------------------------------------------------------------------
@settings(max_examples=50)
@given(alg=st.text(max_size=12))
def test_property_only_exact_key_alg_accepted(alg):
    token = sign_compact(KEY, b"data")
    # swap the alg in the protected header, keep the signature
    from repro.crypto.jws import b64url_decode, b64url_encode

    header_b, payload_b, sig_b = token.split(".")
    header = json.loads(b64url_decode(header_b))
    header["alg"] = alg
    forged = (
        b64url_encode(json.dumps(header, separators=(",", ":"),
                                 sort_keys=True).encode())
        + "." + payload_b + "." + sig_b
    )
    if alg == "EdDSA" and forged == token:
        verify_compact(forged, KEY.public())
        return
    with pytest.raises(SignatureInvalid):
        verify_compact(forged, KEY.public())
