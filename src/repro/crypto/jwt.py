"""JWT (RFC 7519) encoding and claim validation on top of compact JWS.

Validation is strict by default — issuer, audience, expiry, not-before and
required claims are all checked against the *simulated* clock, because the
paper's design hinges on tokens being short-lived and per-service
(audience-scoped).  A small leeway absorbs clock skew between simulated
components.

``exp`` and ``nbf`` are finite numbers: JSON's ``NaN`` and ``Infinity``
(or a number past the float range) would make a token that never
expires, so they are :class:`~repro.errors.ClaimMissing` like a missing
``exp``.  A signed payload that is not a JSON object is
:class:`~repro.errors.SignatureInvalid`, as a malformed segment is.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Iterable, Optional, Sequence

from repro.clock import SimClock
from repro.crypto.jws import (
    acceptable_algs,
    sign_compact,
    verify_compact,
)
from repro.crypto.keys import SUPPORTED_ALGORITHMS
from repro.errors import (
    AudienceMismatch,
    ClaimMissing,
    IssuerMismatch,
    SignatureInvalid,
    TokenExpired,
    TokenNotYetValid,
)
from repro.resilience.durability import _compact

__all__ = ["encode_jwt", "JwtValidator"]

Claims = Dict[str, object]


# a time claim lies in [-_TIME_MAX, _TIME_MAX]: NaN, ±Infinity and an
# integer no float can hold do not
_TIME_MAX = sys.float_info.max


def encode_jwt(claims: Claims, key) -> str:
    """Serialize ``claims`` as a signed JWT.

    The caller is responsible for populating ``iat``/``exp`` from the
    simulated clock; token *minting policy* lives in
    :mod:`repro.broker.tokens`, not here.
    """
    return sign_compact(key, _compact(claims).encode(), typ="JWT")


class JwtValidator:
    """Relying-party-side token validation policy.

    Parameters
    ----------
    clock:
        Shared simulated clock.
    issuer:
        Exact ``iss`` this verifier trusts.
    audience:
        The identifier of *this* service; the token's ``aud`` (string or
        list) must contain it.  ``None`` disables the audience check (used
        only by introspection endpoints, never by resources).
    keys:
        A ``kid -> verifier`` lookup (:class:`~repro.crypto.jwk.JwkSet`)
        or a single verifier key.
    leeway:
        Seconds of clock-skew tolerance for ``exp``/``nbf``.
    required_claims:
        Claims that must be present beyond the registered set.
    """

    def __init__(
        self,
        clock: SimClock,
        issuer: str,
        audience: Optional[str],
        keys,
        *,
        leeway: float = 5.0,
        allowed_algs: Iterable[str] = SUPPORTED_ALGORITHMS,
        required_claims: Sequence[str] = (),
    ) -> None:
        self.clock = clock
        self.issuer = issuer
        self.audience = audience
        self.keys = keys
        self.leeway = leeway
        self.allowed_algs = acceptable_algs(allowed_algs)
        self.required_claims = tuple(required_claims)

    def validate(self, token: str, *, vouched: bool = False) -> Claims:
        """Verify signature + claims; return the claims or raise a
        :class:`~repro.errors.TokenError` subclass describing the failure.

        ``vouched`` is :func:`~repro.crypto.jws.verify_compact`'s: the
        caller answers for the signature on these exact bytes, and every
        other check — segments, ``alg``/``kid``, each claim — runs as for
        any token."""
        _header, payload = verify_compact(
            token, self.keys, self.allowed_algs, vouched=vouched)
        try:
            claims = json.loads(payload)
        except ValueError as exc:
            raise SignatureInvalid("JWT payload is not JSON") from exc
        if not isinstance(claims, dict):
            raise SignatureInvalid("JWT payload must be a JSON object")

        now = self.clock.now()

        exp = claims.get("exp")
        if exp is None:
            raise ClaimMissing("token has no 'exp'; unbounded tokens are forbidden")
        if (not isinstance(exp, (int, float)) or isinstance(exp, bool)
                or not -_TIME_MAX <= exp <= _TIME_MAX):
            raise ClaimMissing("'exp' must be a finite number")
        if now > float(exp) + self.leeway:
            raise TokenExpired(
                f"token expired at t={exp}, now t={now:.1f} (leeway {self.leeway}s)"
            )

        nbf = claims.get("nbf")
        if nbf is not None:
            if (not isinstance(nbf, (int, float)) or isinstance(nbf, bool)
                    or not -_TIME_MAX <= nbf <= _TIME_MAX):
                raise ClaimMissing("'nbf' must be a finite number")
            if now + self.leeway < float(nbf):
                raise TokenNotYetValid(
                    f"token not valid before t={nbf}, now t={now:.1f}"
                )

        iss = claims.get("iss")
        if iss != self.issuer:
            raise IssuerMismatch(
                f"token issued by {iss!r}, this service trusts {self.issuer!r}"
            )

        if self.audience is not None:
            aud = claims.get("aud")
            auds: Sequence[object]
            if aud is None:
                auds = ()
            elif isinstance(aud, str):
                auds = (aud,)
            elif isinstance(aud, list):
                auds = aud
            else:
                auds = ()
            if self.audience not in auds:
                raise AudienceMismatch(
                    f"token audience {aud!r} does not include {self.audience!r}"
                )

        for claim in self.required_claims:
            if claim not in claims:
                raise ClaimMissing(f"required claim {claim!r} missing")

        return claims
