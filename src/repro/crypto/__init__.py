"""Cryptographic substrate: keys, JWK, compact JWS and JWT.

The paper's entire design rests on "short-lived role-based access tokens".
This package implements the JOSE stack those tokens need — signing keys,
JWK/JWKS publication, compact JWS serialization and JWT claim validation —
from scratch on top of the ``cryptography`` library's primitives, so that
every relying party in the simulation (Jupyter authenticator, bastion,
tailnet, SSH CA) verifies real signatures, not stand-ins.
"""

from repro.crypto.keys import (
    SUPPORTED_ALGORITHMS,
    HmacKey,
    SigningKey,
    VerifyingKey,
    generate_signing_key,
)
from repro.crypto.jwk import JwkSet, jwk_thumbprint, public_jwk
from repro.crypto.jws import (
    b64url_decode,
    b64url_encode,
    compact_digest,
    sign_compact,
    verify_compact,
)
from repro.crypto.jwt import JwtValidator, encode_jwt
from repro.crypto.certs import SignedDocument, sign_document, verify_document

__all__ = [
    "SUPPORTED_ALGORITHMS",
    "SigningKey",
    "VerifyingKey",
    "HmacKey",
    "generate_signing_key",
    "JwkSet",
    "public_jwk",
    "jwk_thumbprint",
    "sign_compact",
    "verify_compact",
    "compact_digest",
    "b64url_encode",
    "b64url_decode",
    "encode_jwt",
    "JwtValidator",
    "SignedDocument",
    "sign_document",
    "verify_document",
]
