"""The "Identity Provider of Last Resort".

For users whose institutions are not in the MyAccessID federation —
vendors, government entities such as the AI Safety Institute — the
Isambard team operates a public-cloud managed IdP (§III.C).  Membership
is invitation-only (the team creates the invitation when the portal
grants a role), passwords are paired with mandatory TOTP MFA, and the
provider does **not** federate onward — the shortcoming §IV.B calls out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.errors import (
    AuthenticationError,
    MFAFailed,
    MFARequired,
    RegistrationError,
)
from repro.federation.assurance import LevelOfAssurance
from repro.federation.mfa import TotpDevice
from repro.ids import IdFactory
from repro.net.http import HttpRequest, HttpResponse, route
from repro.oidc.provider import OidcProvider

__all__ = ["LastResortUser", "LastResortIdP"]


@dataclass
class LastResortUser:
    username: str
    password: str
    email: str
    display_name: str
    totp: TotpDevice
    active: bool = True


class LastResortIdP(OidcProvider):
    """Invitation-only managed IdP with mandatory TOTP MFA."""

    loa = LevelOfAssurance.CAPPUCCINO  # team-vetted invitations

    def __init__(
        self,
        name: str,
        clock: SimClock,
        ids: IdFactory,
        *,
        audit: Optional[AuditLog] = None,
        session_ttl: float = 4 * 3600.0,
    ) -> None:
        super().__init__(name, clock, ids, audit=audit, session_ttl=session_ttl)
        self._invitations: Dict[str, str] = {}  # code -> email
        self._users: Dict[str, LastResortUser] = {}

    # ------------------------------------------------------------------
    # administration (Isambard team side)
    # ------------------------------------------------------------------
    def invite(self, email: str) -> str:
        """Create an invitation; returns the code emailed to the user."""
        code = self.ids.secret(20)
        self._jpublish("lastresort.invite", code=code, email=email)
        self._invitations[code] = email
        self._audit("isambard-team", "lastresort.invite", email, Outcome.INFO)
        return code

    def deactivate(self, username: str) -> None:
        user = self._users.get(username)
        if user is not None:
            self._jpublish("lastresort.deactivate", username=username)
            user.active = False
            self.sessions.revoke_subject(f"{self.name}:{username}")

    # ------------------------------------------------------------------
    # registration and login
    # ------------------------------------------------------------------
    @route("POST", "/register")
    def register(self, request: HttpRequest) -> HttpResponse:
        """Redeem an invitation; returns the TOTP secret for enrolment."""
        code = str(request.body.get("invite_code", ""))
        username = str(request.body.get("username", ""))
        password = str(request.body.get("password", ""))
        display_name = str(request.body.get("display_name", username))
        email = self._invitations.pop(code, None)
        if email is None:
            self._audit(username, "lastresort.register", code, Outcome.DENIED)
            raise RegistrationError("invalid or already-used invitation code")
        if username in self._users:
            raise RegistrationError(f"username {username!r} taken")
        if len(password) < 12:
            raise RegistrationError("password must be at least 12 characters")
        secret = self.ids.secret(20).encode()
        user = LastResortUser(
            username=username,
            password=password,
            email=email,
            display_name=display_name,
            totp=TotpDevice(secret=secret),
        )
        self._jpublish("lastresort.register",
                       code=code, **self._user_dict(user))
        self._users[username] = user
        self._audit(username, "lastresort.register", email, Outcome.SUCCESS)
        return HttpResponse.json({"registered": username, "totp_secret": secret.hex()})

    @route("POST", "/login")
    def login(self, request: HttpRequest) -> HttpResponse:
        """Password + TOTP login; both factors are always required."""
        username = str(request.body.get("username", ""))
        password = str(request.body.get("password", ""))
        otp = str(request.body.get("otp", ""))
        user = self._users.get(username)
        if user is None or user.password != password:
            self._audit(username, "lastresort.login", "", Outcome.DENIED, reason="pwd")
            raise AuthenticationError("invalid credentials")
        if not user.active:
            self._audit(username, "lastresort.login", "", Outcome.DENIED, reason="inactive")
            raise AuthenticationError("account deactivated")
        if not otp:
            # the factor is *absent*, not wrong — MFARequired, so clients
            # can prompt for a code instead of treating it as a bad one
            raise MFARequired("TOTP code required")
        if not user.totp.verify(otp, self.clock.now()):
            self._audit(username, "lastresort.login", "", Outcome.DENIED, reason="otp")
            raise MFAFailed("TOTP code incorrect")
        session = self.create_session(
            f"{self.name}:{username}",
            {
                "name": user.display_name,
                "email": user.email,
                "loa": int(self.loa),
                "idp": f"https://{self.name}",
            },
            amr=["pwd", "otp"],
        )
        self._audit(username, "lastresort.login", "", Outcome.SUCCESS)
        resp = HttpResponse.json({"authenticated": True, "sub": session.subject})
        return self.set_session_cookie(resp, session)

    # ------------------------------------------------------------------
    # durability: user directory + invitations ride the provider journal
    # ------------------------------------------------------------------
    @staticmethod
    def _user_dict(user: LastResortUser) -> Dict[str, object]:
        return {
            "username": user.username, "password": user.password,
            "email": user.email, "display_name": user.display_name,
            "totp_secret": user.totp.secret.hex(), "active": user.active,
        }

    @staticmethod
    def _user_from(data: Dict[str, object]) -> LastResortUser:
        return LastResortUser(
            username=str(data["username"]), password=str(data["password"]),
            email=str(data["email"]), display_name=str(data["display_name"]),
            totp=TotpDevice(secret=bytes.fromhex(str(data["totp_secret"]))),
            active=bool(data["active"]),
        )

    def durable_state(self) -> Dict[str, object]:
        state = super().durable_state()
        state["invitations"] = dict(self._invitations)
        state["users"] = {u: self._user_dict(rec)
                          for u, rec in self._users.items()}
        return state

    def wipe_state(self) -> None:
        super().wipe_state()
        self._invitations = {}
        self._users = {}

    def load_state(self, state: Dict[str, object]) -> None:
        super().load_state(state)
        self._invitations = dict(state["invitations"])
        self._users = {u: self._user_from(d)
                       for u, d in state["users"].items()}

    def apply_entry(self, kind: str, data: Dict[str, object]) -> None:
        if kind == "lastresort.invite":
            self._invitations[str(data["code"])] = str(data["email"])
        elif kind == "lastresort.register":
            payload = dict(data)
            code = str(payload.pop("code"))
            self._invitations.pop(code, None)
            user = self._user_from(payload)
            self._users[user.username] = user
        elif kind == "lastresort.deactivate":
            user = self._users.get(str(data["username"]))
            if user is not None:
                user.active = False
            self.sessions.revoke_subject(f"{self.name}:{data['username']}")
        else:
            super().apply_entry(kind, data)
