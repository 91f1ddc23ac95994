"""Tests for key wrappers and compact JWS, including tampering properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    JwkSet,
    b64url_decode,
    b64url_encode,
    generate_signing_key,
    sign_compact,
    verify_compact,
)
from repro.crypto.jwk import jwk_thumbprint, public_jwk
from repro.errors import ConfigurationError, SignatureInvalid

ASYMMETRIC = ["EdDSA", "ES256", "RS256"]
ALL_ALGS = ASYMMETRIC + ["HS256"]


@pytest.fixture(scope="module")
def keys():
    """Generate one key per algorithm once — RSA generation is slow."""
    return {alg: generate_signing_key(alg, kid=f"{alg}-key") for alg in ALL_ALGS}


# ---------------------------------------------------------------------------
# base64url
# ---------------------------------------------------------------------------
@given(st.binary(max_size=200))
def test_b64url_roundtrip(data):
    assert b64url_decode(b64url_encode(data)) == data


def test_b64url_output_is_unpadded_urlsafe():
    out = b64url_encode(b"\xff\xfe\xfd\xfc")
    assert "=" not in out and "+" not in out and "/" not in out


def test_b64url_decode_rejects_junk():
    with pytest.raises(SignatureInvalid):
        b64url_decode("!!!not-base64!!!")


# ---------------------------------------------------------------------------
# sign / verify per algorithm
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("alg", ALL_ALGS)
def test_sign_verify_roundtrip(keys, alg):
    key = keys[alg]
    token = sign_compact(key, b'{"hello":"world"}')
    header, payload = verify_compact(token, key.public())
    assert header["alg"] == alg
    assert header["kid"] == f"{alg}-key"
    assert payload == b'{"hello":"world"}'


@pytest.mark.parametrize("alg", ASYMMETRIC)
def test_wrong_key_rejects(keys, alg):
    key = keys[alg]
    other = generate_signing_key(alg, kid=f"{alg}-key")  # same kid, new key
    token = sign_compact(key, b"payload")
    with pytest.raises(SignatureInvalid):
        verify_compact(token, other.public())


def test_hmac_wrong_secret_rejects(keys):
    token = sign_compact(keys["HS256"], b"payload")
    other = generate_signing_key("HS256", kid="HS256-key")
    with pytest.raises(SignatureInvalid):
        verify_compact(token, other)


def test_unsupported_algorithm_rejected():
    with pytest.raises(ConfigurationError):
        generate_signing_key("PS512")


# ---------------------------------------------------------------------------
# hardening
# ---------------------------------------------------------------------------
def test_alg_none_is_never_acceptable(keys):
    token = sign_compact(keys["EdDSA"], b"x")
    with pytest.raises(SignatureInvalid):
        verify_compact(token, keys["EdDSA"].public(), allowed_algs=["none", "EdDSA"])


def test_alg_not_in_allowlist_rejected(keys):
    token = sign_compact(keys["EdDSA"], b"x")
    with pytest.raises(SignatureInvalid):
        verify_compact(token, keys["EdDSA"].public(), allowed_algs=["RS256"])


def test_key_confusion_blocked(keys):
    """A token claiming HS256 cannot verify against an asymmetric key."""
    hs = keys["HS256"]
    ed_pub = keys["EdDSA"].public()
    token = sign_compact(hs, b"x")
    # verifier resolves kid to the Ed25519 key: alg mismatch must fail closed
    with pytest.raises(SignatureInvalid):
        verify_compact(token, lambda kid: ed_pub)


def test_wrong_segment_count_rejected(keys):
    with pytest.raises(SignatureInvalid):
        verify_compact("a.b", keys["EdDSA"].public())
    with pytest.raises(SignatureInvalid):
        verify_compact("a.b.c.d", keys["EdDSA"].public())


def test_unknown_kid_rejected(keys):
    token = sign_compact(keys["EdDSA"], b"x")
    jwks = JwkSet()  # empty
    with pytest.raises(SignatureInvalid):
        verify_compact(token, jwks)


@settings(max_examples=30)
@given(pos=st.integers(min_value=0, max_value=10_000), delta=st.integers(1, 255))
def test_single_byte_tamper_always_fails(pos, delta):
    """Property: flipping any byte of any segment breaks verification."""
    key = generate_signing_key("EdDSA", kid="t")
    token = sign_compact(key, b'{"sub":"alice","role":"researcher"}')
    raw = bytearray(token.encode())
    idx = pos % len(raw)
    orig = raw[idx]
    mutated = (orig + delta) % 256
    if mutated == orig or chr(mutated) == ".":
        return  # no-op mutation or structural char that may only reshape segments
    raw[idx] = mutated
    tampered = raw.decode("latin-1")
    if tampered == token:
        return
    # base64url ignores unused trailing bits in the final character of a
    # segment, so some single-byte mutations decode to identical bytes;
    # those are not tampering at the JWS level.
    def segments(t):
        try:
            return [b64url_decode(p) for p in t.split(".")]
        except SignatureInvalid:
            return None

    if segments(tampered) == segments(token):
        return
    with pytest.raises(SignatureInvalid):
        verify_compact(tampered, key.public())


# ---------------------------------------------------------------------------
# JWK / JWKS
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("alg", ASYMMETRIC)
def test_jwks_publish_parse_verify(keys, alg):
    """A relying party can verify using only the published JWKS document."""
    key = keys[alg]
    jwks_doc = JwkSet([key.public()]).to_jwks()
    rp_keys = JwkSet.from_jwks(jwks_doc)
    token = sign_compact(key, b"data")
    header, payload = verify_compact(token, rp_keys)
    assert payload == b"data"


def test_jwks_never_contains_symmetric_keys(keys):
    jwks = JwkSet([keys["HS256"], keys["EdDSA"].public()])
    doc = jwks.to_jwks()
    assert len(doc["keys"]) == 1
    assert doc["keys"][0]["kty"] == "OKP"


def test_jwk_has_no_private_members(keys):
    for alg in ASYMMETRIC:
        jwk = public_jwk(keys[alg].public())
        assert not {"d", "p", "q", "k"} & set(jwk)


def test_jwk_thumbprint_stable_and_distinct(keys):
    t1 = jwk_thumbprint(public_jwk(keys["EdDSA"].public()))
    t2 = jwk_thumbprint(public_jwk(keys["EdDSA"].public()))
    t3 = jwk_thumbprint(public_jwk(keys["ES256"].public()))
    assert t1 == t2
    assert t1 != t3


def test_jwkset_duplicate_kid_rejected(keys):
    jwks = JwkSet([keys["EdDSA"].public()])
    with pytest.raises(ConfigurationError):
        jwks.add(keys["EdDSA"].public())


def test_jwkset_rotation_retire(keys):
    jwks = JwkSet([keys["EdDSA"].public()])
    assert jwks("EdDSA-key") is not None
    jwks.retire("EdDSA-key")
    assert jwks("EdDSA-key") is None
    assert jwks(None) is None


def test_thumbprint_is_computed_only_for_a_key_that_names_no_kid(
        keys, monkeypatch):
    from repro.crypto import jwk as jwk_module

    jwk = public_jwk(keys["EdDSA"].public())
    anonymous = {k: v for k, v in jwk.items() if k != "kid"}
    assert JwkSet.from_jwks({"keys": [anonymous]}).kids() == [
        jwk_thumbprint(jwk)]
    monkeypatch.setattr(jwk_module, "jwk_thumbprint",
                        lambda jwk: pytest.fail("thumbprint thrown away"))
    assert JwkSet.from_jwks({"keys": [jwk]}).kids() == ["EdDSA-key"]
    assert jwk_module.verifying_key(dict(jwk, kid="")).kid == ""


# ---------------------------------------------------------------------------
# a vouched-for signature: the maths is skipped, nothing else is
# ---------------------------------------------------------------------------
def test_vouched_skips_the_key_and_only_the_key(keys):
    from repro.crypto.jws import acceptable_algs, compact_digest

    key = keys["EdDSA"]
    token = sign_compact(key, b"data")

    class NeverAsked:
        alg, kid = key.alg, key.kid

        def verify(self, data, signature):
            raise AssertionError("the signature maths ran")

    assert verify_compact(token, NeverAsked(), vouched=True)[1] == b"data"
    with pytest.raises(AssertionError):
        verify_compact(token, NeverAsked())
    # every other refusal stands: segments, alg, allow-list, kid, alg/key
    header, payload, signature = token.split(".")
    none = b64url_encode(b'{"alg":"none","kid":"EdDSA-key"}')
    for bad, lookup, algs in [
        (f"{header}.{payload}", key.public(), ("EdDSA",)),
        (f"{header}.{payload}.A", key.public(), ("EdDSA",)),
        (f"{none}.{payload}.{signature}", key.public(), ("EdDSA",)),
        (token, key.public(), ("RS256",)),
        (token, key.public(), ("none", "EdDSA")),
        (token, JwkSet(), ("EdDSA",)),
        (token, keys["ES256"].public(), ("EdDSA", "ES256")),
    ]:
        with pytest.raises(SignatureInvalid):
            verify_compact(bad, lookup, algs, vouched=True)
    # the allow-list is checked where it is given, once
    with pytest.raises(SignatureInvalid):
        acceptable_algs(["EdDSA", "NoNe"])
    assert acceptable_algs(("EdDSA",)) == frozenset({"EdDSA"})
    # the digest names one exact string
    assert compact_digest(token) == compact_digest(str(token))
    assert compact_digest(token) != compact_digest(token + "=")
    assert len(compact_digest("\udcff")) == 32  # never raises
