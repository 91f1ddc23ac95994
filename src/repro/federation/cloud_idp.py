"""Public-cloud managed IdP for administrator identities.

User story 2: administrator identities live in a *separate* managed IdP
(AWS Identity Center in the real deployment) with strong guarantees —
hardware-key MFA, invitation-only membership "legally part of the same
institution", at least one human check before activation, and a small
group (~20 people).  Leaving the group revokes access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    MFAFailed,
    RegistrationError,
)
from repro.federation.assurance import LevelOfAssurance
from repro.federation.mfa import HardwareKey, HardwareKeyRegistration
from repro.ids import IdFactory
from repro.net.http import HttpRequest, HttpResponse, route
from repro.oidc.provider import OidcProvider

__all__ = ["AdminAccount", "CloudAdminIdP"]


@dataclass
class AdminAccount:
    username: str
    password: str
    email: str
    institution: str
    approved: bool = False
    approved_by: Optional[str] = None
    active: bool = True
    device_id: Optional[str] = None


class CloudAdminIdP(OidcProvider):
    """Managed admin IdP with mandatory hardware-key MFA and human vetting."""

    loa = LevelOfAssurance.ESPRESSO  # in-person vetted staff identities

    def __init__(
        self,
        name: str,
        clock: SimClock,
        ids: IdFactory,
        *,
        audit: AuditLog,
        institution: str = "bristol.ac.uk",
        max_admins: int = 20,
        session_ttl: float = 3600.0,
    ) -> None:
        super().__init__(name, clock, ids, audit=audit, session_ttl=session_ttl)
        self.institution = institution
        self.max_admins = max_admins
        self._invitations: Dict[str, str] = {}  # code -> email
        self._admins: Dict[str, AdminAccount] = {}
        self.hardware_keys = HardwareKeyRegistration(clock)
        self._login_challenges: Dict[str, bytes] = {}  # username -> pending challenge

    # ------------------------------------------------------------------
    # membership lifecycle
    # ------------------------------------------------------------------
    def invite_admin(self, email: str, *, invited_by: str) -> str:
        """Invite a new admin.  The email domain must match the institution
        (the group is 'legally part of the same institution')."""
        if not email.endswith("@" + self.institution):
            raise RegistrationError(
                f"admin identities must belong to {self.institution}"
            )
        active = [a for a in self._admins.values() if a.active]
        if len(active) >= self.max_admins:
            raise RegistrationError(
                f"admin group is capped at {self.max_admins} members"
            )
        code = self.ids.secret(20)
        self._invitations[code] = email
        self._audit(invited_by, "admin.invite", email, Outcome.INFO)
        return code

    @route("POST", "/register")
    def register(self, request: HttpRequest) -> HttpResponse:
        """Redeem an invitation and enrol a hardware key.

        The account remains *pending* until a human check approves it.
        """
        code = str(request.body.get("invite_code", ""))
        username = str(request.body.get("username", ""))
        password = str(request.body.get("password", ""))
        device_id = str(request.body.get("device_id", ""))
        email = self._invitations.pop(code, None)
        if email is None:
            raise RegistrationError("invalid or already-used admin invitation")
        if username in self._admins:
            raise RegistrationError(f"admin {username!r} already exists")
        if len(password) < 16:
            raise RegistrationError("admin passwords must be at least 16 characters")
        if not device_id or not self.hardware_keys.enrolled(device_id):
            raise RegistrationError(
                "a hardware key must be enrolled before registration"
            )
        self._admins[username] = AdminAccount(
            username=username,
            password=password,
            email=email,
            institution=self.institution,
            device_id=device_id,
        )
        self._audit(username, "admin.register", email, Outcome.SUCCESS, pending=True)
        return HttpResponse.json({"registered": username, "pending_approval": True})

    def enrol_hardware_key(self, device: HardwareKey) -> None:
        """Pre-registration step: record the device's attestation key."""
        self.hardware_keys.enrol(device)

    def approve_admin(self, username: str, *, approver: str) -> None:
        """The human check (user story 2): an existing member confirms
        identity before the account becomes usable."""
        account = self._admins.get(username)
        if account is None:
            raise RegistrationError(f"no pending admin {username!r}")
        if approver == username:
            raise AuthorizationError("admins cannot approve themselves")
        account.approved = True
        account.approved_by = approver
        self._audit(approver, "admin.approve", username, Outcome.SUCCESS)

    def remove_admin(self, username: str, *, removed_by: str) -> int:
        """Access is revoked when an individual leaves the group; returns
        the number of live sessions severed."""
        account = self._admins.get(username)
        if account is None:
            raise RegistrationError(f"no admin {username!r}")
        account.active = False
        severed = self.sessions.revoke_subject(f"{self.name}:{username}")
        self._audit(removed_by, "admin.remove", username, Outcome.INFO, severed=severed)
        return severed

    def active_admins(self) -> int:
        return sum(1 for a in self._admins.values() if a.active and a.approved)

    # ------------------------------------------------------------------
    # login: password, then hardware-key challenge/response
    # ------------------------------------------------------------------
    @route("POST", "/login")
    def login(self, request: HttpRequest) -> HttpResponse:
        """First factor.  Success yields a hardware-key challenge, never a
        session — there is no password-only path for admins."""
        username = str(request.body.get("username", ""))
        password = str(request.body.get("password", ""))
        account = self._admins.get(username)
        if account is None or account.password != password:
            self._audit(username, "admin.login", "", Outcome.DENIED, reason="pwd")
            raise AuthenticationError("invalid admin credentials")
        if not account.active:
            self._audit(username, "admin.login", "", Outcome.DENIED, reason="removed")
            raise AuthenticationError("admin account removed from group")
        if not account.approved:
            self._audit(username, "admin.login", "", Outcome.DENIED, reason="pending")
            raise AuthenticationError("admin account awaiting human approval")
        challenge = self.hardware_keys.issue_challenge()
        self._login_challenges[username] = challenge
        return HttpResponse.json(
            {"mfa_required": True, "challenge": challenge.hex()}
        )

    @route("POST", "/login/mfa")
    def login_mfa(self, request: HttpRequest) -> HttpResponse:
        """Second factor: hardware-key assertion over our challenge."""
        username = str(request.body.get("username", ""))
        assertion = request.body.get("assertion")
        account = self._admins.get(username)
        pending = self._login_challenges.pop(username, None)
        if account is None or pending is None:
            raise AuthenticationError("no password-stage login in progress")
        if not isinstance(assertion, dict):
            raise MFAFailed("hardware-key assertion required")
        device_id = self.hardware_keys.verify_assertion(assertion)
        if device_id != account.device_id:
            self._audit(username, "admin.login", "", Outcome.DENIED, reason="wrong-device")
            raise MFAFailed("assertion from an unregistered device for this admin")
        if bytes.fromhex(str(assertion.get("challenge"))) != pending:
            raise MFAFailed("assertion does not answer the issued challenge")
        session = self.create_session(
            f"{self.name}:{username}",
            {
                "name": username,
                "email": account.email,
                "loa": int(self.loa),
                "idp": f"https://{self.name}",
                "admin": True,
            },
            amr=["pwd", "hwk"],
        )
        self._audit(username, "admin.login", "", Outcome.SUCCESS, amr="pwd+hwk")
        resp = HttpResponse.json({"authenticated": True, "sub": session.subject})
        return self.set_session_cookie(resp, session)
