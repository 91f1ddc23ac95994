"""Certificate-validating sshd on the MDC login nodes.

The login node trusts exactly one thing: the SSH CA's public key,
provisioned at build time.  Each connection presents a certificate, a
requested principal and a proof-of-possession signature; sshd checks all
of it against the simulated clock, confirms the UNIX account still
exists (the cluster's user database is synchronised from the portal, so
revoked accounts are gone), and opens a time-limited session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.crypto.keys import VerifyingKey
from repro.errors import CertificateError
from repro.grants import GrantTable
from repro.net.http import HttpRequest, HttpResponse, Service, route
from repro.sshca.certificate import (
    check_certificate,
    parse_certificate,
    validate_certificate,
)

__all__ = ["SshSession", "LoginNodeSshd"]


@dataclass
class SshSession:
    """An interactive session on a login node."""

    session_id: str
    principal: str
    key_id: str       # federated identity, for audit
    opened_at: float
    expires_at: float
    closed: bool = False


class LoginNodeSshd(Service):
    """sshd bound to one login node endpoint.

    Parameters
    ----------
    ca_public_key:
        The CA key this node trusts.
    account_exists:
        Callable ``username -> bool`` backed by the cluster user database
        (tombstoned portal accounts make this return False).
    session_ttl:
        Maximum interactive session length before forced re-auth.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        ca_public_key: VerifyingKey,
        account_exists: Callable[[str], bool],
        *,
        audit: AuditLog,
        session_ttl: float = 8 * 3600.0,
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.ca_public_key = ca_public_key
        self.account_exists = account_exists
        self.audit = audit
        self.session_ttl = session_ttl
        self._sessions: Dict[str, SshSession] = {}
        # the open sessions, by the uid each certificate was issued to
        # (its key id), so a sever by uid needs no account resolution
        self._granted = GrantTable()
        self._next_session = 0
        # host identity: the node's own keypair plus a CA-signed host
        # certificate (installed by install_host_certificate at build time)
        from repro.sshca.certificate import SshKeyPair

        self.host_keypair = SshKeyPair.generate()
        self.host_certificate: Optional[str] = None
        # durability mode: callable ``(serial, key_id) -> bool`` backed by
        # the CA's journaled issuance registry.  A certificate whose serial
        # was never durably registered — e.g. one signed by a fenced
        # ex-primary after its deposition — is refused even though its
        # signature verifies.  None (the default) keeps seed behaviour.
        self.cert_registry: Optional[Callable[[int, str], bool]] = None
        # scale mode: a repro.scale.cache.TtlCache for the parse+CA-
        # signature step of certificate validation.  Only the immutable
        # crypto is cached; the validity window, principal binding, the
        # proof of key possession, the issuance registry and the account
        # check run fresh on every connection, so a cached entry can
        # never admit what a fresh validation would refuse.
        self.cert_cache = None
        # continuous authorization: the repro.authz.IdentityGraph whose
        # canonical SPIFFE id each session is audited under, and
        # admissions fail closed when the PDP is unreachable too long
        self.identity_graph = None
        self.authz_guard = None

    def install_host_certificate(self, wire: str) -> None:
        """Operator provisioning: the CA-signed certificate for this host."""
        self.host_certificate = wire

    @route("POST", "/session")
    def open_session(self, request: HttpRequest) -> HttpResponse:
        """Validate the certificate and open a session."""
        principal = str(request.body.get("principal", ""))
        if self.authz_guard is not None:
            self.authz_guard.check("ssh", actor=principal)
        wire = str(request.body.get("certificate", ""))
        proof_hex = str(request.body.get("proof", ""))
        now = self.clock.now()
        try:
            proof = bytes.fromhex(proof_hex)
        except ValueError:
            proof = b""
        challenge = f"{self.name}|{principal}".encode()
        cached_hit = False
        try:
            if self.cert_cache is not None:
                parsed = self.cert_cache.get_or_load(
                    wire,
                    lambda: parse_certificate(wire, self.ca_public_key),
                    ttl_of=lambda c: c.valid_before - now,
                    tags_of=lambda c: (c.key_id,),
                )
                cached_hit = self.cert_cache.last_hit
                cert = check_certificate(
                    parsed, self.clock,
                    principal=principal, challenge=challenge, proof=proof,
                )
            else:
                cert = validate_certificate(
                    wire, self.ca_public_key, self.clock,
                    principal=principal, challenge=challenge, proof=proof,
                )
        except CertificateError as exc:
            self.log_event(principal, "ssh.session", "", Outcome.DENIED,
                reason=str(exc), jump=request.headers.get("X-Jump-Host", ""),
            )
            raise
        if self.cert_registry is not None and not self.cert_registry(
                cert.serial, cert.key_id):
            self.log_event(principal, "ssh.session", "", Outcome.DENIED,
                reason="unregistered-serial", serial=cert.serial,
            )
            raise CertificateError(
                f"certificate serial {cert.serial} is not in the CA's "
                "issuance registry"
            )
        if not self.account_exists(principal):
            self.log_event(principal, "ssh.session", "", Outcome.DENIED,
                reason="no-such-account",
            )
            raise CertificateError(
                f"account {principal!r} does not exist on this cluster"
            )
        self._next_session += 1
        session = SshSession(
            session_id=f"{self.name}-ssh-{self._next_session}",
            principal=principal,
            key_id=cert.key_id,
            opened_at=now,
            expires_at=min(now + self.session_ttl, cert.valid_before),
        )
        self._sessions[session.session_id] = session
        self._granted.add(session.session_id, session.key_id,
                          session.expires_at, session)
        extra_audit: Dict[str, object] = {}
        if self.identity_graph is not None:
            extra_audit["spiffe_id"] = self.identity_graph.identity_of(
                principal)
        self.log_event(principal, "ssh.session", session.session_id,
            Outcome.CACHED if cached_hit else Outcome.SUCCESS,
            key_id=cert.key_id, serial=cert.serial, **extra_audit,
        )
        body: Dict[str, object] = {
            "session_id": session.session_id,
            "principal": principal,
            "expires_at": session.expires_at,
            "motd": f"Welcome to {self.name} (Isambard DRI)",
        }
        if self.host_certificate is not None:
            # mutual auth: prove *our* identity over the same challenge
            body["host_certificate"] = self.host_certificate
            body["host_proof"] = self.host_keypair.key.sign(
                b"host-proof:" + challenge
            ).hex()
        return HttpResponse.json(body)

    # ------------------------------------------------------------------
    def sessions(self, *, active_only: bool = True) -> List[SshSession]:
        """The open sessions, or every session ever opened."""
        return ([e[3] for e in self._granted.live(self.clock.now())]
                if active_only else list(self._sessions.values()))

    def grants(self, now: float, skip=()):
        """Every session open at ``now``, under the uid its certificate
        was issued to, as the session registry reads it (see
        ``SessionRegistry``)."""
        return self._granted.grants("ssh-session", now, skip)

    def sever(self, uid: str, by: str,
              project: Optional[str] = None) -> int:
        """Close the live sessions opened with a certificate issued to
        ``uid``, whichever accounts they run as."""
        hit = self._granted.of(uid, self.clock.now())
        for session_id, _, _, session in hit:
            self._granted.end(session_id)
            session.closed = True
        if hit:
            self.log_event("killswitch", "ssh.sessions_closed", uid,
                Outcome.INFO, count=len(hit),
            )
        return len(hit)
