"""SPIFFE/SPIRE-style workload identity for service-to-service trust.

Zero trust applies to workloads, not only humans: the Zenith client, the
log shipper and the portal are themselves "users" of other services.
This module models a SPIRE-like stack:

* a **trust domain authority** (the SPIRE server) with a signing key;
* **node attestation**: only endpoints the deployment registered (with
  their domain/zone as selectors) can be issued identities;
* **SVIDs** (SPIFFE Verifiable Identity Documents): short-lived signed
  documents carrying a ``spiffe://<trust-domain>/<path>`` id, verified
  by any peer holding the authority's public key;
* **rotation**: SVIDs expire quickly and are re-issued on demand.

The deployment can hand SVIDs to internal callers as a second factor on
top of broker service tokens — and tests show a forged or expired SVID
is rejected anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.clock import SimClock
from repro.crypto.certs import SignedDocument, sign_document, verify_document
from repro.crypto.keys import VerifyingKey, generate_signing_key
from repro.errors import AuthenticationError, ConfigurationError, SignatureInvalid

__all__ = [
    "WorkloadIdentity",
    "TrustDomainAuthority",
    "principal_id",
    "workload_id",
]


# ----------------------------------------------------------------------
# canonical identity paths
#
# The continuous-authorization layer (repro.authz) keys *everything* —
# live grants, revocation intents, audit stamps — by one canonical
# SPIFFE id per principal, project and workload.  These helpers are the
# single place the path layout is defined, so a token claim, an SSH
# certificate key_id and a tunnel registration all agree on what
# "alice's identity" is spelled like.
# ----------------------------------------------------------------------
def principal_id(trust_domain: str, uid: str) -> str:
    """Canonical identity of a human principal (federated uid)."""
    return f"spiffe://{trust_domain}/user/{uid}"



def workload_id(trust_domain: str, path: str) -> str:
    """Canonical identity of a workload (service subject)."""
    return f"spiffe://{trust_domain}/workload/{path}"


@dataclass(frozen=True)
class WorkloadIdentity:
    """A validated SVID."""

    spiffe_id: str       # spiffe://isambard.example/fds/zenith
    selectors: Tuple[str, ...]
    issued_at: float
    expires_at: float

    def matches(self, prefix: str) -> bool:
        """Does this identity live under ``prefix``?  Used for coarse
        authorisation like "any workload under /sws/"."""
        return self.spiffe_id.startswith(prefix)


class TrustDomainAuthority:
    """The SPIRE-server analogue for one trust domain.

    Parameters
    ----------
    trust_domain:
        DNS-ish name, e.g. ``"isambard.example"``.
    svid_ttl:
        Identity document lifetime; rotation is expected.
    """

    def __init__(
        self,
        trust_domain: str,
        clock: SimClock,
        *,
        svid_ttl: float = 600.0,
    ) -> None:
        self.trust_domain = trust_domain
        self.clock = clock
        self.svid_ttl = svid_ttl
        self._key = generate_signing_key("EdDSA", kid=f"spire-{trust_domain}")
        # one public half, so its memo of verified signatures can serve
        # the byte-identical SVIDs forwarders present at the same instant
        self._bundle = self._key.public()
        # attested workloads: path -> selectors (domain/zone/endpoint facts)
        self._registry: Dict[str, Tuple[str, ...]] = {}
        self.issued_count = 0

    # ------------------------------------------------------------------
    def bundle(self) -> VerifyingKey:
        """The trust bundle peers verify against."""
        return self._bundle

    def register_workload(self, path: str, *selectors: str) -> None:
        """Attest a workload (the deployment's provisioning step).

        ``path`` is the SPIFFE path (``fds/zenith``); selectors record
        the facts attestation verified (endpoint name, domain, zone).
        """
        if not path or path.startswith("/"):
            raise ConfigurationError("workload path must be non-empty, relative")
        self._registry[path] = tuple(selectors)

    def registered(self, path: str) -> bool:
        return path in self._registry

    def register_principal(self, uid: str, *selectors: str) -> str:
        """Attest a human principal at onboarding and return their
        canonical SPIFFE id.  Principals live under ``user/<uid>`` so
        SVIDs can be issued for them exactly like for workloads —
        continuous authorization treats humans and services uniformly."""
        self.register_workload(f"user/{uid}", *selectors)
        return principal_id(self.trust_domain, uid)

    # ------------------------------------------------------------------
    def issue_svid(self, path: str) -> str:
        """Issue a fresh SVID for an attested workload (wire form)."""
        selectors = self._registry.get(path)
        if selectors is None:
            raise AuthenticationError(
                f"workload {path!r} is not attested in {self.trust_domain}"
            )
        now = self.clock.now()
        doc = sign_document(self._key, {
            "spiffe_id": f"spiffe://{self.trust_domain}/{path}",
            "selectors": list(selectors),
            "iat": now,
            "exp": now + self.svid_ttl,
            "type": "svid",
        })
        self.issued_count += 1
        return doc.to_wire()

    def validate_svid(self, wire: str) -> WorkloadIdentity:
        """Peer-side validation against the trust bundle + clock."""
        try:
            doc = SignedDocument.from_wire(wire)
            payload = verify_document(self.bundle(), doc)
        except SignatureInvalid as exc:
            raise AuthenticationError(f"SVID invalid: {exc}") from exc
        if payload.get("type") != "svid":
            raise AuthenticationError("document is not an SVID")
        exp = float(payload.get("exp", 0))  # type: ignore[arg-type]
        if self.clock.now() >= exp:
            raise AuthenticationError("SVID expired; rotate")
        spiffe_id = str(payload.get("spiffe_id", ""))
        prefix = f"spiffe://{self.trust_domain}/"
        if not spiffe_id.startswith(prefix):
            raise AuthenticationError(
                f"SVID from foreign trust domain: {spiffe_id!r}"
            )
        return WorkloadIdentity(
            spiffe_id=spiffe_id,
            selectors=tuple(payload.get("selectors", ())),  # type: ignore[arg-type]
            issued_at=float(payload.get("iat", 0)),  # type: ignore[arg-type]
            expires_at=exp,
        )
