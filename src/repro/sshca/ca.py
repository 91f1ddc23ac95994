"""The SSH certificate authority hosted in Front Door Services.

§III.C: "FDS hosts a SSH certificate authority (CA) which is used to
generate time-limited SSH certificates ...  the identity broker
authenticates the user, the portal asserts that access is permitted, and
the identity broker is provided with the list of project-specific Linux
user accounts ... This information is routed from the identity broker to
the SSH CA, which signs the user's public key."

Accordingly the CA's ``/sign`` endpoint accepts requests **only from the
identity broker** (service RBAC token with the ``ca.sign`` capability)
and never decides authorisation itself — it signs exactly the principals
the broker routed to it, bounded by its maximum certificate lifetime.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.audit import AuditLog, Outcome
from repro.broker.rbac import require_capability
from repro.broker.tokens import RbacTokenValidator
from repro.clock import SimClock
from repro.crypto.keys import VerifyingKey, generate_signing_key
from repro.errors import AuthenticationError, CertificateError, RecoveryError
from repro.grants import GrantTable
from repro.net.http import HttpRequest, HttpResponse, Service, route
from repro.resilience.durability import Durable, RecoveryReport, ServiceJournal
from repro.sshca.certificate import issue_certificate

__all__ = ["SshCertificateAuthority"]


class SshCertificateAuthority(Service, Durable):
    """Signs short-lived user certificates on the broker's instruction.

    The serial counter and the registry of every issued certificate are
    durable: each ``/sign`` commits to the write-ahead journal *before*
    the serial advances, so a recovered CA never reuses a serial
    (monotonicity is re-verified after every recovery) and the cluster's
    sshds can check presented serials against the registry — a
    certificate signed by a fenced ex-primary is simply unknown.  The CA
    private key itself never enters the journal; it lives in the vault
    (the HSM of the real deployment).

    Parameters
    ----------
    validator:
        RBAC validator for audience ``"ssh-ca"`` (broker-issued service
        tokens).
    cert_ttl, max_cert_ttl:
        Default and maximum certificate lifetimes in seconds.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        validator: RbacTokenValidator,
        *,
        audit: AuditLog,
        cert_ttl: float = 4 * 3600.0,
        max_cert_ttl: float = 12 * 3600.0,
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.validator = validator
        self.audit = audit
        self.cert_ttl = cert_ttl
        self.max_cert_ttl = max_cert_ttl
        self.ca_key = generate_signing_key("EdDSA", kid=f"{name}-ca-key")
        self.wipe_state()
        # continuous authorization: the repro.authz.IdentityGraph whose
        # canonical SPIFFE id each signing is audited under
        self.identity_graph = None

    def ca_public_key(self) -> VerifyingKey:
        """The key login nodes trust (provisioned at cluster build time)."""
        return self.ca_key.public()

    def provision_host_certificate(
        self, hostname: str, host_public_key_jwk: Dict[str, object],
        *, ttl: float = 365 * 24 * 3600.0,
    ) -> str:
        """Sign a host certificate (operator provisioning, not a route:
        host keys are enrolled at cluster build time, not over the wire)."""
        from repro.sshca.certificate import issue_host_certificate

        now = self.clock.now()
        self.commit("ca.sign", {"serial": self._serial + 1, "key_id": hostname,
                                "kind": "host", "valid_before": now + ttl})
        wire = issue_host_certificate(
            self.ca_key,
            serial=self._serial,
            hostname=hostname,
            host_public_key_jwk=dict(host_public_key_jwk),  # type: ignore[arg-type]
            valid_after=now,
            valid_before=now + ttl,
        )
        self.log_event("operator", "ca.sign_host", hostname,
            Outcome.SUCCESS, serial=self._serial,
        )
        return wire

    @route("POST", "/sign")
    def sign(self, request: HttpRequest) -> HttpResponse:
        """Sign a user's public key for the principals the broker asserts."""
        token = request.bearer_token()
        if token is None:
            raise AuthenticationError("CA signing requires the broker's service token")
        claims = self.validator.validate(token)
        require_capability(claims, "ca.sign")

        key_id = str(request.body.get("key_id", ""))
        public_key_jwk = request.body.get("public_key_jwk")
        principals = request.body.get("principals")
        ttl = float(request.body.get("ttl") or self.cert_ttl)
        if not key_id or not isinstance(public_key_jwk, dict):
            return HttpResponse.error(400, "key_id and public_key_jwk required")
        if not isinstance(principals, list) or not principals:
            self.log_event(key_id, "ca.sign", "", Outcome.DENIED,
                reason="no-principals",
            )
            raise CertificateError("refusing to sign a certificate with no principals")
        ttl = min(ttl, self.max_cert_ttl)
        now = self.clock.now()
        # WAL before the serial advances: a fenced ex-primary aborts here
        # with the counter untouched and nothing registered
        self.commit("ca.sign", {"serial": self._serial + 1, "key_id": key_id,
                                "kind": "user", "valid_before": now + ttl})
        wire = issue_certificate(
            self.ca_key,
            serial=self._serial,
            key_id=key_id,
            public_key_jwk=public_key_jwk,
            principals=[str(p) for p in principals],
            valid_after=now,
            valid_before=now + ttl,
            extensions={"issued_via": str(claims["sub"])},
        )
        extra_audit: Dict[str, object] = {}
        if self.identity_graph is not None:
            extra_audit["spiffe_id"] = self.identity_graph.identity_of(key_id)
        self.log_event(key_id, "ca.sign", f"serial-{self._serial}",
            Outcome.SUCCESS, principals=list(principals), ttl=ttl,
            **extra_audit,
        )
        from repro.crypto.jwk import public_jwk

        return HttpResponse.json(
            {
                "certificate": wire,
                "serial": self._serial,
                "valid_before": now + ttl,
                "principals": sorted(str(p) for p in principals),
                # clients pin the CA key so they can verify host certs
                "ca_public_key_jwk": public_jwk(self.ca_key.public()),
            }
        )

    # ------------------------------------------------------------------
    # revocation (continuous authorization)
    # ------------------------------------------------------------------
    def sever(self, key_id: str, by: str,
              project: Optional[str] = None) -> int:
        """Revoke every still-valid user certificate issued to ``key_id``.

        Revoked serials fail :meth:`cert_registered`, so a certificate
        that has not even been presented yet can no longer open a
        session.  Committed (write-ahead), and idempotent: already-revoked
        serials are not counted again.
        """
        hit = sorted(int(serial) for serial, *_ in
                     self._granted.of(key_id, self.clock.now()))
        if hit:
            self.commit("ca.revoke", {"serials": hit, "key_id": key_id})
            self.log_event("authz-pipeline", "ca.revoke", key_id,
                           Outcome.INFO, count=len(hit))
        return len(hit)

    def grants(self, now: float, skip=()):
        """Every user certificate live at ``now`` (unrevoked, unexpired),
        as the session registry reads it (see ``SessionRegistry``)."""
        return self._granted.grants("ssh-cert", now, skip)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def cert_registered(self, serial: int, key_id: str) -> bool:
        """Is (serial, key_id) in the durable issuance registry — and not
        revoked?  sshds consult this when durability is on: certificates
        a fenced ex-primary signed after its deposition were never
        registered, and revoked serials are refused the same way."""
        if int(serial) in self._revoked_serials:
            return False
        rec = self._issued_certs.get(int(serial))
        return rec is not None and rec["key_id"] == key_id

    def seal_keys(self, journal: ServiceJournal) -> None:
        journal.seal("ca-key", self.ca_key)

    def adopt_keys(self, journal: ServiceJournal) -> None:
        sealed = journal.unseal("ca-key")
        if sealed is not None:
            self.ca_key = sealed

    def durable_state(self) -> Dict[str, object]:
        return {
            "serial": self._serial,
            "certificates_issued": self.certificates_issued,
            "issued_certs": {str(s): dict(rec)
                             for s, rec in self._issued_certs.items()},
            "revoked_serials": sorted(self._revoked_serials),
        }

    def wipe_state(self) -> None:
        self._serial = 0
        self.certificates_issued = 0
        # serial -> {key_id, kind, valid_before}; the durable issuance
        # registry sshds consult when durability is enabled
        self._issued_certs: Dict[int, Dict[str, object]] = {}
        # serials explicitly revoked before expiry (continuous authz):
        # cert_registered() refuses them, so revocation reaches even
        # sessions that have not been opened yet
        self._revoked_serials: Set[int] = set()
        # the live user certificates by key id (the id as a string); fed
        # by apply_entry, so a recovery rebuilds it, and never journaled
        self._granted = GrantTable()

    def load_state(self, state: Dict[str, object]) -> None:
        self._serial = int(state["serial"])
        self.certificates_issued = int(state["certificates_issued"])
        self._issued_certs = {
            int(s): dict(rec) for s, rec in state["issued_certs"].items()}
        # .get: snapshots written before revocation existed lack the key
        self._revoked_serials = {
            int(s) for s in state.get("revoked_serials", [])}
        for serial, rec in self._issued_certs.items():
            if rec["kind"] == "user" and serial not in self._revoked_serials:
                self._granted.add(str(serial), rec["key_id"],
                                  rec["valid_before"], rec)

    def apply_entry(self, kind: str, data: Dict[str, object]) -> None:
        if kind == "ca.sign":
            serial = data["serial"]
            self._serial = max(self._serial, serial)
            rec = self._issued_certs[serial] = {
                "key_id": data["key_id"], "kind": data["kind"],
                "valid_before": data["valid_before"],
            }
            if data["kind"] == "user":
                self.certificates_issued += 1
                self._granted.add(str(serial), rec["key_id"],
                                  rec["valid_before"], rec)
        elif kind == "ca.revoke":
            self._revoked_serials.update(data["serials"])
            self._granted.end(*map(str, data["serials"]))

    def verify_recovery(self, report: RecoveryReport) -> None:
        """Serial monotonicity: the recovered counter must sit at or past
        every serial ever committed, or the next signature would reuse one."""
        if self._issued_certs and self._serial < max(self._issued_certs):
            raise RecoveryError(
                f"CA {self.name!r}: recovered serial {self._serial} is behind "
                f"issued serial {max(self._issued_certs)} — reuse imminent")
