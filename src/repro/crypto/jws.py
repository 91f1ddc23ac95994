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
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from typing import Dict, FrozenSet, Iterable, Optional, Tuple, Union

from repro.crypto.keys import SUPPORTED_ALGORITHMS, HmacKey, SigningKey, VerifyingKey
from repro.errors import SignatureInvalid

__all__ = ["b64url_encode", "b64url_decode", "sign_compact", "verify_compact",
           "acceptable_algs", "compact_digest"]

Signer = Union[SigningKey, HmacKey]
Verifier = Union[VerifyingKey, HmacKey]


def b64url_encode(data: bytes) -> str:
    """Base64url without padding, as JOSE requires."""
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def b64url_decode(text: str) -> bytes:
    """Inverse of :func:`b64url_encode`; raises ``SignatureInvalid`` on junk."""
    pad = -len(text) % 4
    try:
        return base64.urlsafe_b64decode(text + "=" * pad)
    except (binascii.Error, ValueError) as exc:
        raise SignatureInvalid("malformed base64url segment") from exc


def sign_compact(
    key: Signer, payload: bytes, extra_header: Optional[Dict[str, object]] = None
) -> str:
    """Produce a compact JWS of ``payload`` signed by ``key``.

    The protected header always carries ``alg`` and ``kid`` from the key;
    ``extra_header`` may add fields (e.g. ``typ``) but cannot override them.
    """
    header: Dict[str, object] = dict(extra_header or {})
    header["alg"] = key.alg
    header["kid"] = key.kid
    signing_input = (
        b64url_encode(json.dumps(header, separators=(",", ":"), sort_keys=True).encode())
        + "."
        + b64url_encode(payload)
    ).encode("ascii")
    signature = key.sign(signing_input)
    return signing_input.decode("ascii") + "." + b64url_encode(signature)


def _parse(token: str) -> Tuple[Dict[str, object], bytes, bytes, bytes]:
    parts = token.split(".")
    if len(parts) != 3:
        raise SignatureInvalid(f"compact JWS must have 3 segments, got {len(parts)}")
    header_b, payload_b, sig_b = parts
    header_raw = b64url_decode(header_b)
    try:
        header = json.loads(header_raw)
    except (ValueError, UnicodeDecodeError) as exc:
        raise SignatureInvalid("protected header is not valid JSON") from exc
    if not isinstance(header, dict):
        raise SignatureInvalid("protected header must be a JSON object")
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
) -> Tuple[Dict[str, object], bytes]:
    """Verify a compact JWS and return ``(header, payload)``.

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
