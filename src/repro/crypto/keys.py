"""Signing/verifying key wrappers over ``cryptography`` primitives.

Four JOSE algorithms are supported, matching what real identity brokers
(Keycloak et al.) deploy:

* ``EdDSA``  — Ed25519 (the default everywhere in this reproduction)
* ``ES256``  — ECDSA over P-256 with the JOSE raw ``r||s`` signature form
* ``RS256``  — RSASSA-PKCS1-v1_5 with SHA-256
* ``HS256``  — HMAC-SHA-256 (symmetric; used only for co-located services)

Keys carry a ``kid`` so JWKS lookup works the way OIDC relying parties
expect: the broker rotates keys and verifiers pick by ``kid``.
"""

from __future__ import annotations

import hmac as _hmac
from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, hmac
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, padding, rsa
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)

from repro.errors import ConfigurationError, SignatureInvalid

__all__ = [
    "SUPPORTED_ALGORITHMS",
    "VerifyingKey",
    "SigningKey",
    "HmacKey",
    "generate_signing_key",
]

SUPPORTED_ALGORITHMS = ("EdDSA", "ES256", "RS256", "HS256")

_P256_COORD_BYTES = 32

# successful verifications each VerifyingKey remembers (least recently
# used dropped first); the login path re-presents a token within a
# handful of other verifications, so a small memo catches every repeat
VERIFIED_MEMO_SIZE = 32


def _int_to_fixed(n: int, size: int) -> bytes:
    return n.to_bytes(size, "big")


class VerifyingKey:
    """Public half of an asymmetric key (or the shared HMAC secret).

    Subclass-free by design: the constructor dispatches on ``alg``.
    """

    def __init__(self, alg: str, kid: str, public_key: object) -> None:
        if alg not in SUPPORTED_ALGORITHMS:
            raise ConfigurationError(f"unsupported algorithm {alg!r}")
        self.alg = alg
        self.kid = kid
        self._public = public_key
        # (data, signature) pairs this key has verified, most recent last.
        # Validity is a pure function of key, message and signature, so an
        # entry never needs invalidating; whether the signed *claims* are
        # still acceptable is the validators' check on every presentation.
        self._verified: "OrderedDict[Tuple[bytes, bytes], None]" = OrderedDict()

    # ------------------------------------------------------------------
    def verify(self, data: bytes, signature: bytes) -> None:
        """Raise :class:`SignatureInvalid` unless ``signature`` is valid."""
        pair = (data, signature)
        if pair in self._verified:
            self._verified.move_to_end(pair)
            return
        self._check(data, signature)
        self._verified[pair] = None
        if len(self._verified) > VERIFIED_MEMO_SIZE:
            self._verified.popitem(last=False)

    def _check(self, data: bytes, signature: bytes) -> None:
        try:
            if self.alg == "EdDSA":
                self._public.verify(signature, data)  # type: ignore[attr-defined]
            elif self.alg == "ES256":
                if len(signature) != 2 * _P256_COORD_BYTES:
                    raise InvalidSignature()
                r = int.from_bytes(signature[:_P256_COORD_BYTES], "big")
                s = int.from_bytes(signature[_P256_COORD_BYTES:], "big")
                der = encode_dss_signature(r, s)
                self._public.verify(  # type: ignore[attr-defined]
                    der, data, ec.ECDSA(hashes.SHA256())
                )
            elif self.alg == "RS256":
                self._public.verify(  # type: ignore[attr-defined]
                    signature, data, padding.PKCS1v15(), hashes.SHA256()
                )
            else:  # pragma: no cover - HS256 handled by HmacKey
                raise ConfigurationError("HS256 verification requires HmacKey")
        except InvalidSignature as exc:
            raise SignatureInvalid(f"signature invalid for kid={self.kid}") from exc

    @property
    def raw_public_key(self) -> object:
        """The underlying ``cryptography`` public-key object (for JWK export)."""
        return self._public


class SigningKey:
    """Private key capable of producing JOSE signatures.

    Use :func:`generate_signing_key` rather than constructing directly.
    """

    def __init__(self, alg: str, kid: str, private_key: object) -> None:
        if alg not in SUPPORTED_ALGORITHMS:
            raise ConfigurationError(f"unsupported algorithm {alg!r}")
        if alg == "HS256":
            raise ConfigurationError("use HmacKey for HS256")
        self.alg = alg
        self.kid = kid
        self._private = private_key

    def sign(self, data: bytes) -> bytes:
        if self.alg == "EdDSA":
            return self._private.sign(data)  # type: ignore[attr-defined]
        if self.alg == "ES256":
            der = self._private.sign(  # type: ignore[attr-defined]
                data, ec.ECDSA(hashes.SHA256())
            )
            r, s = decode_dss_signature(der)
            return _int_to_fixed(r, _P256_COORD_BYTES) + _int_to_fixed(
                s, _P256_COORD_BYTES
            )
        if self.alg == "RS256":
            return self._private.sign(  # type: ignore[attr-defined]
                data, padding.PKCS1v15(), hashes.SHA256()
            )
        raise ConfigurationError(f"cannot sign with {self.alg}")  # pragma: no cover

    def public(self) -> VerifyingKey:
        return VerifyingKey(self.alg, self.kid, self._private.public_key())  # type: ignore[attr-defined]


@dataclass
class HmacKey:
    """Symmetric HS256 key — acts as both signer and verifier.

    Only appropriate where signer and verifier are the same trust domain
    (the paper's design keeps asymmetric keys for anything crossing zones).
    """

    kid: str
    secret: bytes
    alg: str = "HS256"

    def sign(self, data: bytes) -> bytes:
        h = hmac.HMAC(self.secret, hashes.SHA256())
        h.update(data)
        return h.finalize()

    def verify(self, data: bytes, signature: bytes) -> None:
        expected = self.sign(data)
        if not _hmac.compare_digest(expected, signature):
            raise SignatureInvalid(f"HMAC mismatch for kid={self.kid}")

    def public(self) -> "HmacKey":
        """Symmetric keys have no public half; verification uses the secret."""
        return self


def generate_signing_key(
    alg: str = "EdDSA", kid: str = "key-1", *, rsa_bits: int = 2048
) -> SigningKey | HmacKey:
    """Create a fresh key for ``alg``.

    HS256 secrets are generated from OS entropy via the ``cryptography``
    backend; determinism of the *simulation* never depends on key material,
    only on ids and the clock.
    """
    if alg == "EdDSA":
        return SigningKey(alg, kid, ed25519.Ed25519PrivateKey.generate())
    if alg == "ES256":
        return SigningKey(alg, kid, ec.generate_private_key(ec.SECP256R1()))
    if alg == "RS256":
        return SigningKey(
            alg, kid, rsa.generate_private_key(public_exponent=65537, key_size=rsa_bits)
        )
    if alg == "HS256":
        import os

        return HmacKey(kid=kid, secret=os.urandom(32))
    raise ConfigurationError(f"unsupported algorithm {alg!r}")
