"""SSH certificates: OpenSSH-style structure signed by the Isambard CA.

A certificate binds a user's public key to:

* ``principals`` — the project-specific UNIX accounts the holder may log
  in as (user story 4: one account per project);
* a validity window (``valid_after``/``valid_before``) — "the returned
  SSH certificate has a short valid session time";
* a ``key_id`` recording the federated identity for audit;
* critical options/extensions (e.g. the issuing broker session).

The wire form is a :class:`~repro.crypto.certs.SignedDocument` over the
canonical payload.  Login nodes verify the CA signature, the window, the
requested principal, and — as real sshd does — demand a fresh
proof-of-possession signature from the user's private key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.clock import SimClock
from repro.crypto.certs import SignedDocument, sign_document, verify_document
from repro.crypto.jwk import public_jwk, verifying_key
from repro.crypto.keys import SigningKey, VerifyingKey, generate_signing_key
from repro.errors import CertificateError, SignatureInvalid

__all__ = [
    "SshKeyPair",
    "SshCertificate",
    "issue_certificate",
    "parse_certificate",
    "check_certificate",
    "validate_certificate",
    "issue_host_certificate",
    "validate_host_certificate",
]


@dataclass
class SshKeyPair:
    """The user's SSH keypair, generated on their device.

    The private half never leaves the device; the CA only ever sees the
    public JWK.
    """

    key: SigningKey

    @classmethod
    def generate(cls) -> "SshKeyPair":
        return cls(key=generate_signing_key("EdDSA", kid="user-ssh-key"))

    def public_jwk(self) -> Dict[str, str]:
        return public_jwk(self.key.public())

    def prove_possession(self, challenge: bytes) -> bytes:
        """Sign an sshd challenge (the simulated SSH handshake signature)."""
        return self.key.sign(b"ssh-session:" + challenge)


@dataclass(frozen=True)
class SshCertificate:
    """Parsed, validated view of a certificate payload."""

    serial: int
    key_id: str
    principals: List[str]
    valid_after: float
    valid_before: float
    public_key_jwk: Dict[str, str]
    extensions: Dict[str, str]

    def valid_at(self, t: float) -> bool:
        return self.valid_after <= t < self.valid_before


def issue_certificate(
    ca_key: SigningKey,
    *,
    serial: int,
    key_id: str,
    public_key_jwk: Dict[str, str],
    principals: List[str],
    valid_after: float,
    valid_before: float,
    extensions: Optional[Dict[str, str]] = None,
) -> str:
    """Sign a certificate; returns the wire string handed to the client."""
    if valid_before <= valid_after:
        raise CertificateError("certificate validity window is empty")
    if not principals:
        raise CertificateError("certificate must carry at least one principal")
    payload: Dict[str, object] = {
        "serial": serial,
        "key_id": key_id,
        "principals": sorted(principals),
        "valid_after": valid_after,
        "valid_before": valid_before,
        "public_key": dict(public_key_jwk),
        "extensions": dict(extensions or {}),
        "type": "user-certificate",
    }
    return sign_document(ca_key, payload).to_wire()


def issue_host_certificate(
    ca_key: SigningKey,
    *,
    serial: int,
    hostname: str,
    host_public_key_jwk: Dict[str, str],
    valid_after: float,
    valid_before: float,
) -> str:
    """Sign a *host* certificate: the other half of mutual SSH auth.

    Clients verify it so a spoofed login node cannot harvest sessions —
    no trust-on-first-use.  The type field is distinct from user
    certificates, so neither kind can impersonate the other.
    """
    if valid_before <= valid_after:
        raise CertificateError("host certificate validity window is empty")
    payload: Dict[str, object] = {
        "serial": serial,
        "key_id": hostname,
        "principals": [hostname],
        "valid_after": valid_after,
        "valid_before": valid_before,
        "public_key": dict(host_public_key_jwk),
        "extensions": {},
        "type": "host-certificate",
    }
    return sign_document(ca_key, payload).to_wire()


def parse_certificate(
    wire: str, ca_pub: VerifyingKey, *, expected_type: str = "user-certificate"
) -> SshCertificate:
    """Verify the CA signature and parse the payload.

    ``expected_type`` blocks cross-protocol confusion: a host certificate
    can never authenticate a user, nor vice versa.
    """
    try:
        doc = SignedDocument.from_wire(wire)
        payload = verify_document(ca_pub, doc)
    except SignatureInvalid as exc:
        raise CertificateError(f"certificate signature invalid: {exc}") from exc
    if payload.get("type") != expected_type:
        raise CertificateError(
            f"expected {expected_type}, got {payload.get('type')!r}"
        )
    try:
        return SshCertificate(
            serial=int(payload["serial"]),  # type: ignore[arg-type]
            key_id=str(payload["key_id"]),
            principals=list(payload["principals"]),  # type: ignore[arg-type]
            valid_after=float(payload["valid_after"]),  # type: ignore[arg-type]
            valid_before=float(payload["valid_before"]),  # type: ignore[arg-type]
            public_key_jwk=dict(payload["public_key"]),  # type: ignore[arg-type]
            extensions=dict(payload.get("extensions", {})),  # type: ignore[arg-type]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate payload: {exc}") from exc


def validate_certificate(
    wire: str,
    ca_pub: VerifyingKey,
    clock: SimClock,
    *,
    principal: str,
    challenge: bytes,
    proof: bytes,
) -> SshCertificate:
    """Full sshd-side validation: signature, window, principal, possession.

    Raises :class:`CertificateError` describing the first failure.
    """
    cert = parse_certificate(wire, ca_pub)
    return check_certificate(
        cert, clock, principal=principal, challenge=challenge, proof=proof)


def check_certificate(
    cert: SshCertificate,
    clock: SimClock,
    *,
    principal: str,
    challenge: bytes,
    proof: bytes,
) -> SshCertificate:
    """Per-connection policy checks on an already-signature-verified cert.

    Split out from :func:`validate_certificate` so a replica may cache
    the expensive parse+CA-signature step (the certificate bytes are
    immutable) while the time window, principal binding and — above all
    — the proof of key possession are verified fresh on every single
    connection.
    """
    now = clock.now()
    if now < cert.valid_after:
        raise CertificateError("certificate not yet valid")
    if now >= cert.valid_before:
        raise CertificateError(
            f"certificate expired at t={cert.valid_before} (now t={now:.0f}); "
            "a new certificate must be generated"
        )
    if principal not in cert.principals:
        raise CertificateError(
            f"principal {principal!r} not among certificate principals"
        )
    try:
        # a fresh verifier per connection: it remembers nothing, so the
        # proof of possession is checked for real every time
        verifying_key(cert.public_key_jwk).verify(
            b"ssh-session:" + challenge, proof)
    except SignatureInvalid as exc:
        raise CertificateError("proof of key possession failed") from exc
    return cert


def validate_host_certificate(
    wire: str,
    ca_pub: VerifyingKey,
    clock: SimClock,
    *,
    hostname: str,
    challenge: bytes,
    proof: bytes,
) -> SshCertificate:
    """Client-side verification of the host's identity."""
    cert = parse_certificate(wire, ca_pub, expected_type="host-certificate")
    now = clock.now()
    if not cert.valid_at(now):
        raise CertificateError("host certificate outside its validity window")
    if hostname not in cert.principals:
        raise CertificateError(
            f"host certificate is for {cert.principals}, not {hostname!r}"
        )
    try:
        verifying_key(cert.public_key_jwk).verify(
            b"host-proof:" + challenge, proof)
    except SignatureInvalid as exc:
        raise CertificateError("host key possession proof failed") from exc
    return cert
