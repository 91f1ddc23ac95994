"""JWK / JWKS (RFC 7517) export and key-set lookup.

The identity broker and the OIDC provider publish their verification keys
as a JWKS document; relying parties (Jupyter authenticator, bastions,
tailnet) fetch it over the simulated network and verify RBAC tokens
locally.  :func:`jwk_thumbprint` implements RFC 7638 so keys have stable,
content-derived identifiers.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional

from cryptography.hazmat.primitives.asymmetric import ec, ed25519, rsa

from repro.crypto.jws import b64url_decode, b64url_encode
from repro.crypto.keys import HmacKey, VerifyingKey
from repro.errors import ConfigurationError
from repro.resilience.durability import _compact

__all__ = ["public_jwk", "jwk_thumbprint", "verifying_key", "JwkSet"]


def _int_bytes(n: int, size: Optional[int] = None) -> str:
    length = size if size is not None else (n.bit_length() + 7) // 8 or 1
    return b64url_encode(n.to_bytes(length, "big"))


def public_jwk(key: VerifyingKey) -> Dict[str, str]:
    """Render the public key as a JWK dict (no private members, ever)."""
    raw = key.raw_public_key
    if isinstance(raw, ed25519.Ed25519PublicKey):
        from cryptography.hazmat.primitives.serialization import (
            Encoding,
            PublicFormat,
        )

        x = raw.public_bytes(Encoding.Raw, PublicFormat.Raw)
        jwk = {"kty": "OKP", "crv": "Ed25519", "x": b64url_encode(x)}
    elif isinstance(raw, ec.EllipticCurvePublicKey):
        nums = raw.public_numbers()
        jwk = {
            "kty": "EC",
            "crv": "P-256",
            "x": _int_bytes(nums.x, 32),
            "y": _int_bytes(nums.y, 32),
        }
    elif isinstance(raw, rsa.RSAPublicKey):
        nums = raw.public_numbers()
        jwk = {"kty": "RSA", "n": _int_bytes(nums.n), "e": _int_bytes(nums.e)}
    else:
        raise ConfigurationError(f"cannot export {type(raw).__name__} as JWK")
    jwk["kid"] = key.kid
    jwk["alg"] = key.alg
    jwk["use"] = "sig"
    return jwk


_THUMBPRINT_MEMBERS = {
    "OKP": ("crv", "kty", "x"),
    "EC": ("crv", "kty", "x", "y"),
    "RSA": ("e", "kty", "n"),
}


def jwk_thumbprint(jwk: Dict[str, str]) -> str:
    """RFC 7638 SHA-256 thumbprint of a JWK (lexicographic required members)."""
    kty = jwk.get("kty")
    members = _THUMBPRINT_MEMBERS.get(kty or "")
    if members is None:
        raise ConfigurationError(f"cannot thumbprint kty={kty!r}")
    canonical = _compact({m: jwk[m] for m in members})
    return b64url_encode(hashlib.sha256(canonical.encode()).digest())


def verifying_key(jwk: Dict[str, str]) -> VerifyingKey:
    """One published JWK back into a verifier.  A key that names no
    ``kid`` is known by its RFC 7638 thumbprint, computed only then."""
    kty = jwk.get("kty")
    kid = jwk["kid"] if "kid" in jwk else jwk_thumbprint(jwk)
    if kty == "OKP":
        return VerifyingKey(
            "EdDSA", kid,
            ed25519.Ed25519PublicKey.from_public_bytes(b64url_decode(jwk["x"])))
    if kty == "EC":
        x = int.from_bytes(b64url_decode(jwk["x"]), "big")
        y = int.from_bytes(b64url_decode(jwk["y"]), "big")
        return VerifyingKey(
            "ES256", kid,
            ec.EllipticCurvePublicNumbers(x, y, ec.SECP256R1()).public_key())
    if kty == "RSA":
        n = int.from_bytes(b64url_decode(jwk["n"]), "big")
        e = int.from_bytes(b64url_decode(jwk["e"]), "big")
        return VerifyingKey(jwk.get("alg") or "RS256", kid,
                            rsa.RSAPublicNumbers(e, n).public_key())
    raise ConfigurationError(f"unsupported kty {kty!r} in JWKS")


class JwkSet:
    """A keyed collection of verifiers, callable as a ``kid -> key`` lookup.

    Supports rotation: old keys stay resolvable until :meth:`retire` so
    tokens signed just before a rotation still verify within their TTL.
    """

    def __init__(self, keys: Iterable[VerifyingKey | HmacKey] = ()) -> None:
        self._keys: Dict[str, VerifyingKey | HmacKey] = {}
        for key in keys:
            self.add(key)

    def add(self, key: VerifyingKey | HmacKey) -> None:
        if key.kid in self._keys:
            raise ConfigurationError(f"duplicate kid {key.kid!r} in JWKS")
        self._keys[key.kid] = key

    def retire(self, kid: str) -> None:
        self._keys.pop(kid, None)

    def get(self, kid: Optional[str]) -> Optional[VerifyingKey | HmacKey]:
        if kid is None:
            return None
        return self._keys.get(kid)

    def __call__(self, kid: Optional[str]) -> Optional[VerifyingKey | HmacKey]:
        return self.get(kid)

    def kids(self) -> List[str]:
        return sorted(self._keys)

    def to_jwks(self) -> Dict[str, List[Dict[str, str]]]:
        """The document served at ``/.well-known/jwks.json``.

        Symmetric keys are never published.
        """
        out = []
        for kid in sorted(self._keys):
            key = self._keys[kid]
            if isinstance(key, HmacKey):
                continue
            out.append(public_jwk(key))
        return {"keys": out}

    @classmethod
    def from_jwks(cls, document: Dict[str, List[Dict[str, str]]]) -> "JwkSet":
        """Parse a published JWKS back into verifier keys."""
        return cls(verifying_key(jwk) for jwk in document.get("keys", []))
