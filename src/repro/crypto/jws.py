"""Compact JWS (RFC 7515) serialization: ``b64(header).b64(payload).b64(sig)``.

Hardened the way a production verifier must be:

* ``alg: none`` and unknown algorithms are rejected outright.
* The verifier pins the expected algorithm to the key that ``kid`` selects
  — a token claiming ``HS256`` can never be verified against an RSA/EdDSA
  public key (the classic key-confusion attack).
* Any malformed segment raises :class:`SignatureInvalid` rather than a
  bare parsing error, so callers treat malformed and forged identically.

A signature is a pure function of key and bytes, so whoever *already
knows* the answer for these exact bytes — the issuer that produced them
(:func:`compact_digest` is how it remembers which), a verifier that
checked them itself — may pass ``vouched=True`` and skip the maths.
Nothing else is skipped: segments, ``alg`` and ``kid`` are checked on
every presentation.

The wire bytes are built once.  The protected header segment is
encoded once per ``(alg, kid, typ)``.  A parsed header is a pure
function of its segment, so it is remembered by the exact segment
string, as a read-only mapping, for the last :data:`HEADER_MEMO_SIZE`
segments (the presenter chooses the segment, so the bound is this
module's, not a setting).  What a payload means is the caller's: a JWT
payload that is not a JSON object is :class:`SignatureInvalid` too
(:class:`~repro.crypto.jwt.JwtValidator`).
"""

from __future__ import annotations

import binascii
import hashlib
import json
from binascii import a2b_base64, b2a_base64
from functools import lru_cache
from types import MappingProxyType
from typing import FrozenSet, Iterable, Mapping, Optional, Tuple, Union

from repro.crypto.keys import SUPPORTED_ALGORITHMS, HmacKey, SigningKey, VerifyingKey
from repro.errors import SignatureInvalid
from repro.resilience.durability import _compact

__all__ = ["b64url_encode", "b64url_decode", "sign_compact", "verify_compact",
           "acceptable_algs", "compact_digest"]

Signer = Union[SigningKey, HmacKey]
Verifier = Union[VerifyingKey, HmacKey]

# protected headers remembered: encoded per (alg, kid, typ), parsed per
# exact segment string
HEADER_MEMO_SIZE = 256

_TO_URL = bytes.maketrans(b"+/", b"-_")
_FROM_URL = bytes.maketrans(b"-_", b"+/")


def b64url_encode(data: bytes) -> str:
    """Base64url without padding, as JOSE requires."""
    return b2a_base64(data, newline=False).translate(_TO_URL).rstrip(b"=").decode("ascii")


def b64url_decode(text: str) -> bytes:
    """Inverse of :func:`b64url_encode`; raises ``SignatureInvalid`` on junk.
    Accepts exactly what ``base64.urlsafe_b64decode`` accepts once padded."""
    try:
        return a2b_base64(
            (text + "=" * (-len(text) % 4)).encode("ascii").translate(_FROM_URL))
    except (binascii.Error, ValueError) as exc:
        raise SignatureInvalid("malformed base64url segment") from exc


@lru_cache(maxsize=HEADER_MEMO_SIZE)
def _protected(alg: str, kid: str, typ: Optional[str]) -> str:
    header = {"alg": alg, "kid": kid} if typ is None else {
        "alg": alg, "kid": kid, "typ": typ}
    return b64url_encode(_compact(header).encode()) + "."


def sign_compact(key: Signer, payload: bytes, *, typ: Optional[str] = None) -> str:
    """Produce a compact JWS of ``payload`` signed by ``key``.

    The protected header carries ``alg`` and ``kid`` from the key, and
    ``typ`` when one is given."""
    head = _protected(key.alg, key.kid, typ) + b64url_encode(payload)
    return head + "." + b64url_encode(key.sign(head.encode("ascii")))


@lru_cache(maxsize=HEADER_MEMO_SIZE)
def _header(segment: str) -> Mapping[str, object]:
    header_raw = b64url_decode(segment)
    try:
        header = json.loads(header_raw)
    except (ValueError, UnicodeDecodeError) as exc:
        raise SignatureInvalid("protected header is not valid JSON") from exc
    if not isinstance(header, dict):
        raise SignatureInvalid("protected header must be a JSON object")
    return MappingProxyType(header)


def _parse(token: str) -> Tuple[Mapping[str, object], bytes, bytes, bytes]:
    parts = token.split(".")
    if len(parts) != 3:
        raise SignatureInvalid(f"compact JWS must have 3 segments, got {len(parts)}")
    header_b, payload_b, sig_b = parts
    header = _header(header_b)
    payload = b64url_decode(payload_b)
    signature = b64url_decode(sig_b)
    signing_input = (header_b + "." + payload_b).encode("ascii")
    return header, payload, signature, signing_input


def acceptable_algs(allowed: Iterable[str]) -> FrozenSet[str]:
    """An allow-list as :func:`verify_compact` takes it, checked once:
    a list that names ``none`` (any case) is refused outright."""
    algs = frozenset(allowed)
    if any(a.lower() == "none" for a in algs):
        raise SignatureInvalid("'none' cannot be an allowed algorithm")
    return algs


_SUPPORTED = acceptable_algs(SUPPORTED_ALGORITHMS)


def compact_digest(token: str) -> bytes:
    """SHA-256 over one exact compact serialisation — header, payload
    and signature — for an issuer to recognise its own bytes by."""
    return hashlib.sha256(token.encode("utf-8", "surrogatepass")).digest()


def verify_compact(
    token: str,
    key_lookup,
    allowed_algs: Iterable[str] = _SUPPORTED,
    *,
    vouched: bool = False,
) -> Tuple[Mapping[str, object], bytes]:
    """Verify a compact JWS and return ``(header, payload)``; the header
    is read-only (one parsed object serves every presenter of its bytes).

    Parameters
    ----------
    token:
        The compact serialization.
    key_lookup:
        Either a verifier key object, or a callable ``kid -> verifier``
        (a :class:`~repro.crypto.jwk.JwkSet` works).  Returning ``None``
        means "unknown kid" and fails verification.
    allowed_algs:
        Algorithms this verifier accepts.  ``none`` is never acceptable:
        a frozenset is taken as :func:`acceptable_algs`' result, checked
        once where it was given; anything else is checked here.
    vouched:
        The caller knows first-hand that these exact bytes carry a valid
        signature of the key ``kid`` names (module docstring); only the
        call into the key is skipped.
    """
    header, payload, signature, signing_input = _parse(token)
    alg = header.get("alg")
    if not isinstance(allowed_algs, frozenset):
        allowed_algs = acceptable_algs(allowed_algs)
    if not isinstance(alg, str) or alg.lower() == "none" or alg not in allowed_algs:
        raise SignatureInvalid(f"algorithm {alg!r} not acceptable")

    kid = header.get("kid")
    if callable(key_lookup) and not hasattr(key_lookup, "verify"):
        verifier = key_lookup(kid)
    else:
        verifier = key_lookup
    if verifier is None:
        raise SignatureInvalid(f"no key for kid={kid!r}")
    if verifier.alg != alg:
        raise SignatureInvalid(
            f"token alg {alg!r} does not match key alg {verifier.alg!r} (kid={kid!r})"
        )
    if not vouched:
        verifier.verify(signing_input, signature)
    return header, payload
