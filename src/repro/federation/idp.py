"""Institutional identity providers (the eduGAIN members).

Each :class:`InstitutionalIdP` stands for a university/institute IdP: it
authenticates its own members by password and issues short-lived signed
assertions about them.  Attribute release honours the R&S entity
category — a non-R&S IdP releases only the opaque ``sub``, which is
precisely why MyAccessID requires R&S of its upstreams.

De-affiliation matters for user story 3 ("authentication will fail if a
user is no longer affiliated with the organisational IdP"), so users can
be deactivated and every later login fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.crypto import encode_jwt
from repro.crypto.keys import generate_signing_key
from repro.errors import AuthenticationError, ConfigurationError
from repro.federation.assurance import EntityCategory, LevelOfAssurance
from repro.ids import IdFactory
from repro.net.http import HttpRequest, HttpResponse, Service, route

__all__ = ["FederatedUser", "InstitutionalIdP"]

ASSERTION_TTL = 300.0


@dataclass
class FederatedUser:
    """A member of an institution, as its IdP knows them."""

    username: str
    password: str
    sub: str  # IdP-local persistent identifier
    display_name: str
    email: str
    affiliation: str = "member"  # eduPersonScopedAffiliation prefix
    active: bool = True


class InstitutionalIdP(Service):
    """A home-organisation IdP issuing signed authentication assertions.

    Parameters
    ----------
    name:
        Network endpoint name (e.g. ``"idp-bristol"``).
    entity_id:
        Federation entity id (e.g. ``"https://idp.bristol.ac.uk"``).
    loa, categories:
        Declared assurance profile and entity categories; consumed by
        MyAccessID's acceptance policy via the eduGAIN metadata.
    """

    def __init__(
        self,
        name: str,
        entity_id: str,
        clock: SimClock,
        ids: IdFactory,
        *,
        loa: LevelOfAssurance = LevelOfAssurance.CAPPUCCINO,
        categories: Tuple[EntityCategory, ...] = (
            EntityCategory.RESEARCH_AND_SCHOLARSHIP,
        ),
        audit: AuditLog,
    ) -> None:
        super().__init__(name)
        self.entity_id = entity_id
        self.clock = clock
        self.ids = ids
        self.loa = loa
        self.categories = tuple(categories)
        self.audit = audit
        self.key = generate_signing_key("EdDSA", kid=f"{name}-idp-key")
        self._key_generation = 1
        self._users: Dict[str, FederatedUser] = {}
        self.scope = entity_id.split("//")[-1]  # e.g. idp.bristol.ac.uk

    # ------------------------------------------------------------------
    # user administration (the institution's own registrar)
    # ------------------------------------------------------------------
    def add_user(
        self,
        username: str,
        password: str,
        display_name: str,
        email: str,
        *,
        affiliation: str = "member",
    ) -> FederatedUser:
        if username in self._users:
            raise ConfigurationError(f"user {username!r} already exists at {self.name}")
        user = FederatedUser(
            username=username,
            password=password,
            sub=self.ids.next(f"{self.name}-sub"),
            display_name=display_name,
            email=email,
            affiliation=affiliation,
        )
        self._users[username] = user
        return user

    def deactivate_user(self, username: str) -> None:
        """De-affiliate a member; subsequent logins fail (user story 3)."""
        user = self._users.get(username)
        if user is None:
            raise ConfigurationError(f"no user {username!r} at {self.name}")
        user.active = False
        self.audit.record(
            self.clock.now(), self.name, username, "idp.deaffiliated", user.sub,
            Outcome.INFO,
        )

    def verifier(self):
        """Public key for eduGAIN metadata."""
        return self.key.public()

    def rotate_key(self):
        """Institutional key ceremony: mint a fresh signing key.

        Assertions signed from now on verify only against the *new*
        public key — until the federation metadata is refreshed
        (``refresh_idp`` / a feed delta), relying parties still pin the
        old verifier and logins fail.  Returns the new public key.
        """
        self._key_generation += 1
        self.key = generate_signing_key(
            "EdDSA", kid=f"{self.name}-idp-key-g{self._key_generation}")
        self.audit.record(
            self.clock.now(), self.name, "registrar", "idp.key_rotated",
            self.entity_id, Outcome.INFO, generation=self._key_generation,
        )
        return self.key.public()

    # ------------------------------------------------------------------
    # authentication
    # ------------------------------------------------------------------
    @route("POST", "/login")
    def login(self, request: HttpRequest) -> HttpResponse:
        """Password login; returns a signed assertion addressed to ``sp``.

        The assertion is the wire artefact the user agent carries back to
        the MyAccessID proxy.
        """
        username = str(request.body.get("username", ""))
        password = str(request.body.get("password", ""))
        sp = str(request.body.get("sp", ""))
        user = self._users.get(username)
        if user is None or user.password != password:
            self.audit.record(
                self.clock.now(), self.name, username, "idp.login", sp, Outcome.DENIED,
                reason="bad-credentials",
            )
            raise AuthenticationError(f"invalid credentials at {self.entity_id}")
        if not user.active:
            self.audit.record(
                self.clock.now(), self.name, username, "idp.login", sp, Outcome.DENIED,
                reason="deaffiliated",
            )
            raise AuthenticationError(
                f"{username} is no longer affiliated with {self.entity_id}"
            )
        if not sp:
            raise AuthenticationError("assertion requires a service-provider audience")

        now = self.clock.now()
        claims: Dict[str, object] = {
            "iss": self.entity_id,
            "sub": user.sub,
            "aud": sp,
            "iat": now,
            "exp": now + ASSERTION_TTL,
            "loa": int(self.loa),
            "categories": [str(c) for c in self.categories],
        }
        if EntityCategory.RESEARCH_AND_SCHOLARSHIP in self.categories:
            # R&S attribute bundle
            claims.update(
                {
                    "name": user.display_name,
                    "email": user.email,
                    "eduperson_scoped_affiliation": f"{user.affiliation}@{self.scope}",
                    "schac_home_organization": self.scope,
                }
            )
        assertion = encode_jwt(claims, self.key)
        self.audit.record(
            self.clock.now(), self.name, username, "idp.login", sp, Outcome.SUCCESS,
            sub=user.sub,
        )
        return HttpResponse.json({"assertion": assertion, "entity_id": self.entity_id})
