"""The login path's wire encodings, byte for byte.

Every relogin mints and checks JWTs and builds and parses the URLs of a
redirect chain.  Each codec here is pinned against the general stdlib
construction it replaced, kept as a test-only reference: base64url,
the compact sorted-key JSON every signed document uses, the compact
JWS bytes, and the simulated URLs.  A token, URL or signed document
that changed by one byte would move every golden; these tests say
which codec moved it.
"""

import base64
import binascii
import json
import string
from urllib.parse import parse_qsl, quote, quote_plus, urlencode, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import encode_jwt, sign_compact, verify_compact
from repro.crypto.jws import b64url_decode, b64url_encode
from repro.crypto.keys import HmacKey, generate_signing_key
from repro.errors import ConfigurationError, SignatureInvalid
from repro.oidc import make_url, parse_url
from repro.resilience.durability import _compact

DIFFERENTIAL = settings(max_examples=200, deadline=None, derandomize=True)


def _outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type of what it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


# ---------------------------------------------------------------------------
# base64url
# ---------------------------------------------------------------------------
def ref_b64url_encode(data):
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def ref_b64url_decode(text):
    try:
        return base64.urlsafe_b64decode(text + "=" * (-len(text) % 4))
    except (binascii.Error, ValueError) as exc:
        raise SignatureInvalid("malformed base64url segment") from exc


# the alphabet, its padding, the standard alphabet's two, and junk
B64_TEXT = st.text(
    alphabet=st.sampled_from(
        string.ascii_letters + string.digits + "-_=+/. \n" + "é€\x00"),
    max_size=40)


@DIFFERENTIAL
@given(data=st.binary(max_size=96))
def test_b64url_encode_is_the_stdlib_encoding(data):
    assert b64url_encode(data) == ref_b64url_encode(data)
    assert b64url_decode(b64url_encode(data)) == data


@DIFFERENTIAL
@given(text=B64_TEXT | st.text(max_size=12))
def test_b64url_decode_accepts_and_refuses_what_the_stdlib_does(text):
    assert _outcome(b64url_decode, text) == _outcome(ref_b64url_decode, text)


@pytest.mark.parametrize("text", ["é", "QQ€", "Q", "QQ=Q", "Q===="])
def test_non_ascii_and_bad_padding_are_a_bad_signature(text):
    expected = _outcome(ref_b64url_decode, text)
    assert _outcome(b64url_decode, text) == expected
    if text in ("é", "QQ€", "Q"):
        assert expected is SignatureInvalid


# ---------------------------------------------------------------------------
# compact sorted-key JSON
# ---------------------------------------------------------------------------
def ref_compact(value):
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


JSON_TEXT = st.text(alphabet=st.characters(codec="utf-8"), max_size=12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | JSON_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=16)


@DIFFERENTIAL
@given(value=JSON_VALUES)
def test_the_compact_encoder_is_json_dumps_compact_and_sorted(value):
    assert _compact(value) == ref_compact(value)


def test_the_compact_encoder_writes_non_finite_floats_as_json_dumps_does():
    value = {"z": [float("nan"), float("inf"), -float("inf")], "é": "ü"}
    assert _compact(value) == ref_compact(value)
    assert _compact(value).startswith('{"z":[NaN,Infinity,-Infinity]')


# ---------------------------------------------------------------------------
# compact JWS and JWT bytes
# ---------------------------------------------------------------------------
def ref_sign_compact(key, payload, extra_header=None):
    """``sign_compact`` as it was: the header dict built and encoded per
    call, each segment through ``base64``."""
    header = dict(extra_header or {})
    header["alg"] = key.alg
    header["kid"] = key.kid
    signing_input = (
        ref_b64url_encode(ref_compact(header).encode())
        + "." + ref_b64url_encode(payload)).encode("ascii")
    return (signing_input.decode("ascii") + "."
            + ref_b64url_encode(key.sign(signing_input)))


def ref_encode_jwt(claims, key):
    return ref_sign_compact(key, ref_compact(claims).encode(), {"typ": "JWT"})


RSA_KEY = generate_signing_key("RS256", kid="rsa-oracle")
ES_KEY = generate_signing_key("ES256", kid="es-oracle")
KIDS = st.text(alphabet=st.characters(codec="utf-8"), min_size=1, max_size=10)
CLAIMS = st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=6)


def _deterministic_key(alg, kid):
    if alg == "HS256":
        return HmacKey(kid=kid, secret=b"k" * 32)
    if alg == "RS256":
        return RSA_KEY
    return generate_signing_key("EdDSA", kid=kid)


@DIFFERENTIAL
@given(alg=st.sampled_from(["EdDSA", "RS256", "HS256"]), kid=KIDS,
       payload=st.binary(max_size=64), claims=CLAIMS)
def test_a_deterministic_signature_gives_the_parents_token(
        alg, kid, payload, claims):
    key = _deterministic_key(alg, kid)
    assert sign_compact(key, payload) == ref_sign_compact(key, payload)
    assert encode_jwt(claims, key) == ref_encode_jwt(claims, key)


@DIFFERENTIAL
@given(payload=st.binary(max_size=64), claims=CLAIMS)
def test_es256_signs_the_parents_signing_input(payload, claims):
    for token, reference in (
            (sign_compact(ES_KEY, payload), ref_sign_compact(ES_KEY, payload)),
            (encode_jwt(claims, ES_KEY), ref_encode_jwt(claims, ES_KEY))):
        assert token.rsplit(".", 1)[0] == reference.rsplit(".", 1)[0]
        header, _ = verify_compact(token, ES_KEY.public())
        assert dict(header)["kid"] == "es-oracle"


# ---------------------------------------------------------------------------
# simulated URLs
# ---------------------------------------------------------------------------
def ref_make_url(endpoint, path, /, **params):
    if not path.startswith("/"):
        raise ConfigurationError(f"path must start with '/', got {path!r}")
    query = urlencode({k: str(v) for k, v in params.items() if v is not None})
    return f"https://{endpoint}{path}" + (f"?{query}" if query else "")


def ref_parse_url(url):
    parts = urlsplit(url)
    if parts.scheme != "https" or not parts.netloc:
        raise ConfigurationError(f"not a simulated https URL: {url!r}")
    return parts.netloc, parts.path or "/", dict(parse_qsl(parts.query))


# what a query value may hold: the characters the codecs treat
# specially, plain text and non-ASCII
URL_TEXT = st.text(
    alphabet=st.sampled_from(" +%/:=&?#._-~aZ09é€　"), max_size=10)
ENDPOINTS = st.text(alphabet=string.ascii_lowercase + string.digits + "-.",
                    min_size=1, max_size=12)
PATHS = st.lists(st.text(alphabet=string.ascii_letters + "-_.", max_size=6),
                 max_size=3).map(lambda parts: "/" + "/".join(parts))
PARAMS = st.dictionaries(
    st.text(alphabet=string.ascii_letters + "_", min_size=1, max_size=8)
    | URL_TEXT,
    st.none() | URL_TEXT | st.integers() | st.booleans(), max_size=6)
# raw query pieces as a hand-written URL might carry them: a bare key,
# an empty value or key, '+' as a space, a broken and a non-UTF-8 escape
RAW_PAIRS = st.sampled_from(
    ["k", "k=", "=v", "", "a+b=c+d", "p=%zz", "q=%e2%82", "r=%E2%82%AC",
     "s=a/b:c", "k=again", "t=é"])


@DIFFERENTIAL
@given(endpoint=ENDPOINTS, path=PATHS, params=PARAMS)
def test_make_url_is_urlencode(endpoint, path, params):
    url = make_url(endpoint, path, **params)
    assert url == ref_make_url(endpoint, path, **params)
    assert parse_url(url) == ref_parse_url(url)


@DIFFERENTIAL
@given(endpoint=ENDPOINTS, path=PATHS,
       pairs=st.lists(st.tuples(URL_TEXT, URL_TEXT).map(
           lambda kv: f"{quote_plus(kv[0])}={quote(kv[1], safe='/:')}")
           | RAW_PAIRS, max_size=8))
def test_parse_url_is_urlsplit_and_parse_qsl(endpoint, path, pairs):
    for url in (f"https://{endpoint}{path}?{'&'.join(pairs)}",
                f"https://{endpoint}{path}"):
        assert parse_url(url) == ref_parse_url(url)


@pytest.mark.parametrize("url", [
    "http://broker/login", "ftp://broker/", "https:/broker/login",
    "https:///login", "//broker/login", "broker/login", "", "https://",
    "HTTP://broker/login", "mailto:someone@example.org"])
def test_a_non_https_url_is_a_configuration_error(url):
    assert _outcome(ref_parse_url, url) is ConfigurationError
    assert _outcome(parse_url, url) is ConfigurationError


def test_a_relative_path_is_a_configuration_error():
    assert _outcome(make_url, "broker", "login") is ConfigurationError
    assert _outcome(ref_make_url, "broker", "login") is ConfigurationError
