"""Generic signed documents: canonical-JSON payload + detached signature.

The SSH certificate authority (:mod:`repro.sshca`) and the tailnet's node
attestations both need "a structured document signed by an authority key"
that is *not* a JWT (no registered claims, different validity model).
:class:`SignedDocument` provides exactly that with canonical JSON so the
byte stream being signed is unambiguous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict

from repro.crypto.jws import b64url_decode, b64url_encode
from repro.crypto.keys import HmacKey, SigningKey, VerifyingKey
from repro.errors import SignatureInvalid
from repro.resilience.durability import _compact

__all__ = ["SignedDocument", "sign_document", "verify_document"]


@dataclass(frozen=True)
class SignedDocument:
    """An immutable payload with the signer's ``kid`` and signature attached."""

    payload: Dict[str, object]
    signer_kid: str
    signature_b64: str

    def to_wire(self) -> str:
        """Single-string wire form (what an SSH client would store on disk)."""
        body = {
            "payload": self.payload,
            "signer_kid": self.signer_kid,
            "signature": self.signature_b64,
        }
        return b64url_encode(_compact(body).encode())

    @classmethod
    def from_wire(cls, wire: str) -> "SignedDocument":
        try:
            body = json.loads(b64url_decode(wire))
            return cls(
                payload=body["payload"],
                signer_kid=body["signer_kid"],
                signature_b64=body["signature"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SignatureInvalid("malformed signed document") from exc


def sign_document(key: SigningKey | HmacKey, payload: Dict[str, object]) -> SignedDocument:
    """Sign ``payload`` (canonical JSON) with ``key``."""
    signature = key.sign(_compact(payload).encode())
    return SignedDocument(
        payload=dict(payload),
        signer_kid=key.kid,
        signature_b64=b64url_encode(signature),
    )


def verify_document(key: VerifyingKey | HmacKey, doc: SignedDocument) -> Dict[str, object]:
    """Verify ``doc`` against ``key``; returns the payload on success.

    The caller must have already selected the right key by ``signer_kid``
    (authorities in this reproduction have exactly one active key, so a
    mismatched kid is itself a failure).
    """
    if key.kid != doc.signer_kid:
        raise SignatureInvalid(
            f"document signed by kid={doc.signer_kid!r}, verifier has {key.kid!r}"
        )
    key.verify(_compact(doc.payload).encode(), b64url_decode(doc.signature_b64))
    return dict(doc.payload)
