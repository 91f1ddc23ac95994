"""Tests for JWT claim validation against the simulated clock."""

import pytest

from repro.clock import SimClock
from repro.crypto import JwkSet, JwtValidator, encode_jwt, sign_compact
from repro.crypto.keys import generate_signing_key
from repro.errors import (
    AudienceMismatch,
    ClaimMissing,
    IssuerMismatch,
    SignatureInvalid,
    TokenExpired,
    TokenNotYetValid,
)

ISS = "https://broker.isambard.example"
AUD = "login-node"


@pytest.fixture(scope="module")
def key():
    return generate_signing_key("EdDSA", kid="jwt-key")


@pytest.fixture()
def clock():
    return SimClock(start=1000.0)


@pytest.fixture()
def validator(clock, key):
    return JwtValidator(
        clock, ISS, AUD, JwkSet([key.public()]), leeway=5.0,
        required_claims=("sub",),
    )


def mint(key, clock, **overrides):
    claims = {
        "iss": ISS,
        "aud": AUD,
        "sub": "alice",
        "iat": clock.now(),
        "exp": clock.now() + 300,
    }
    claims.update(overrides)
    claims = {k: v for k, v in claims.items() if v is not None}
    return encode_jwt(claims, key)


def test_valid_token_returns_claims(validator, key, clock):
    claims = validator.validate(mint(key, clock))
    assert claims["sub"] == "alice"


def test_expired_token_rejected(validator, key, clock):
    token = mint(key, clock, exp=clock.now() + 10)
    clock.advance(16)  # beyond exp + leeway
    with pytest.raises(TokenExpired):
        validator.validate(token)


def test_leeway_tolerates_small_skew(validator, key, clock):
    token = mint(key, clock, exp=clock.now() + 10)
    clock.advance(13)  # past exp but within 5s leeway
    assert validator.validate(token)["sub"] == "alice"


def test_missing_exp_rejected(validator, key, clock):
    with pytest.raises(ClaimMissing):
        validator.validate(mint(key, clock, exp=None))


def test_non_numeric_exp_rejected(validator, key, clock):
    with pytest.raises(ClaimMissing):
        validator.validate(mint(key, clock, exp="later"))


@pytest.mark.parametrize("exp", [float("inf"), float("nan"), 10 ** 400],
                         ids=["inf", "nan", "past-float-range"])
def test_a_token_that_never_expires_is_refused(key, clock, exp):
    """JSON's ``Infinity``/``NaN`` (and an integer past the float range)
    compare as never expired: an IdP outside the trust boundary could
    assert an identity for ever.  Refused like a missing ``exp``."""
    validator = JwtValidator(clock, "iss", "rp", key.public())
    token = encode_jwt({"iss": "iss", "aud": "rp", "exp": exp, "sub": "x"}, key)
    with pytest.raises(ClaimMissing):
        validator.validate(token)
    clock.advance(1e9)
    with pytest.raises(ClaimMissing):
        validator.validate(token)


@pytest.mark.parametrize("nbf", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_not_before_is_refused(validator, key, clock, nbf):
    with pytest.raises(ClaimMissing):
        validator.validate(mint(key, clock, nbf=nbf))


@pytest.mark.parametrize("payload", [b"data", b"\xff\xfe\x00", b"", b"[1]"])
def test_a_signed_payload_that_is_not_a_json_object_is_a_bad_token(
        validator, key, payload):
    """A well-signed payload that does not parse as a JSON object is
    refused as a malformed token, never escaping as a parse error."""
    with pytest.raises(SignatureInvalid):
        validator.validate(sign_compact(key, payload))


def test_nbf_in_future_rejected(validator, key, clock):
    token = mint(key, clock, nbf=clock.now() + 100)
    with pytest.raises(TokenNotYetValid):
        validator.validate(token)
    clock.advance(100)
    assert validator.validate(token)


def test_wrong_issuer_rejected(validator, key, clock):
    with pytest.raises(IssuerMismatch):
        validator.validate(mint(key, clock, iss="https://evil.example"))


def test_wrong_audience_rejected(validator, key, clock):
    with pytest.raises(AudienceMismatch):
        validator.validate(mint(key, clock, aud="other-service"))


def test_audience_list_accepted(validator, key, clock):
    token = mint(key, clock, aud=["other", AUD])
    assert validator.validate(token)


def test_missing_audience_rejected(validator, key, clock):
    with pytest.raises(AudienceMismatch):
        validator.validate(mint(key, clock, aud=None))


def test_audience_check_disabled_when_none(clock, key):
    v = JwtValidator(clock, ISS, None, JwkSet([key.public()]))
    token = mint(key, clock, aud="anything")
    assert v.validate(token)["aud"] == "anything"


def test_required_claim_missing_rejected(validator, key, clock):
    with pytest.raises(ClaimMissing):
        validator.validate(mint(key, clock, sub=None))


def test_token_signed_by_unknown_key_rejected(validator, clock):
    rogue = generate_signing_key("EdDSA", kid="rogue")
    with pytest.raises(SignatureInvalid):
        validator.validate(mint(rogue, clock))


def test_allow_list_is_checked_when_the_validator_is_built(clock, key):
    with pytest.raises(SignatureInvalid):
        JwtValidator(clock, ISS, AUD, key.public(), allowed_algs=["EdDSA", "none"])
    only_rsa = JwtValidator(clock, ISS, AUD, key.public(), allowed_algs=["RS256"])
    with pytest.raises(SignatureInvalid):
        only_rsa.validate(mint(key, clock))


def test_vouched_signature_still_gets_every_claim_checked(clock, key):
    """``vouched=True`` spares the signature maths, nothing else."""
    never_asked = generate_signing_key("EdDSA", kid="jwt-key").public()
    validator = JwtValidator(clock, ISS, AUD, never_asked,
                             required_claims=("sub",))
    good = mint(key, clock)
    with pytest.raises(SignatureInvalid):  # a different key: really checked
        validator.validate(good)
    assert validator.validate(good, vouched=True)["sub"] == "alice"
    for refused, token in [
        (TokenExpired, mint(key, clock, exp=clock.now() - 60)),
        (TokenNotYetValid, mint(key, clock, nbf=clock.now() + 60)),
        (IssuerMismatch, mint(key, clock, iss="https://elsewhere")),
        (AudienceMismatch, mint(key, clock, aud="jupyter")),
        (SignatureInvalid, good.rsplit(".", 1)[0]),
    ]:
        with pytest.raises(refused):
            validator.validate(token, vouched=True)
