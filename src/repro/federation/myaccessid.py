"""MyAccessID-style IdP proxy: discovery, account registry, identity linking.

MyAccessID (GÉANT) is the federated, trusted IdP *proxy* between the
world's institutional IdPs and infrastructure service domains like
Isambard.  Its three jobs, per §II.B of the paper, are implemented here:

1. **Discovery service** — during login the user chooses their home IdP
   from the (policy-filtered) eduGAIN aggregate.
2. **Account registry** — maps external identities to a *unique,
   persistent* user identifier towards connected ISDs, and supports
   linking several institutional identities to one account (the
   :class:`~repro.federation.directory.ShardedAccountRegistry`; this
   module defines the :class:`Account` and :class:`LinkedIdentity` it
   serves).
3. **Assurance enforcement** — only IdPs meeting the R&S + LoA policy are
   accepted (the control eduGAIN itself lacks).

Downstream, MyAccessID is an ordinary OIDC provider (it subclasses
:class:`~repro.oidc.provider.OidcProvider`); the Isambard identity broker
is just one of its registered clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.crypto import JwkSet, JwtValidator
from repro.errors import AuthenticationError
from repro.federation.assurance import AssurancePolicy, LevelOfAssurance
from repro.federation.edugain import IdPMetadata
from repro.ids import IdFactory
from repro.net.http import HttpRequest, HttpResponse, route
from repro.oidc.provider import OidcProvider

__all__ = ["LinkedIdentity", "Account", "MyAccessID"]


@dataclass(frozen=True)
class LinkedIdentity:
    """One external identity: (issuing IdP, IdP-local subject)."""

    entity_id: str
    sub: str


@dataclass
class Account:
    """A MyAccessID account: the persistent identity ISDs see."""

    uid: str  # unique persistent identifier, e.g. "ma-0001@myaccessid"
    linked: List[LinkedIdentity]
    display_name: str
    email: str
    created_at: float
    loa: LevelOfAssurance


class MyAccessID(OidcProvider):
    """The AAI proxy service.

    Login dance (driven by the user agent):

    1. agent hits broker → broker redirects to our ``/authorize`` →
       ``401 login_required``;
    2. agent GETs ``/discovery``, picks an IdP;
    3. agent POSTs credentials to the IdP's ``/login`` (audience = our
       entity id) and receives a signed assertion;
    4. agent POSTs the assertion to our ``/assert`` — we validate it
       against eduGAIN metadata, enforce the assurance policy, resolve
       the account registry entry, and set a session cookie;
    5. agent retries ``/authorize`` and the normal OIDC code flow runs.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        ids: IdFactory,
        edugain,
        registry,
        *,
        policy: Optional[AssurancePolicy] = None,
        audit: AuditLog,
        session_ttl: float = 8 * 3600.0,
    ) -> None:
        super().__init__(name, clock, ids, audit=audit, session_ttl=session_ttl)
        self.edugain = edugain    # the ShardedMetadataStore aggregate
        self.registry = registry  # the ShardedAccountRegistry
        self.policy = policy if policy is not None else AssurancePolicy()
        self.entity_id = f"https://{name}"

    # ------------------------------------------------------------------
    @route("GET", "/discovery")
    def discovery(self, request: HttpRequest) -> HttpResponse:
        """The 'choose your institution' page: policy-filtered IdP list."""
        choices = []
        for md in self.edugain.idps():
            acceptable = self.policy.accepts(md.loa, md.categories)
            choices.append(
                {
                    "entity_id": md.entity_id,
                    "display_name": md.display_name,
                    "federation": md.federation,
                    "endpoint": md.endpoint_name,
                    "acceptable": acceptable,
                }
            )
        return HttpResponse.json(
            {
                "idps": choices,
                "policy": {
                    "minimum_loa": self.policy.minimum_loa.name,
                    "required_categories": sorted(
                        str(c) for c in self.policy.required_categories
                    ),
                },
            }
        )

    # ------------------------------------------------------------------
    def _validate_assertion(
            self, entity_id: str,
            assertion: str) -> Tuple[Dict[str, object], IdPMetadata]:
        md = self.edugain.get(entity_id)  # FederationError if unknown
        validator = JwtValidator(
            self.clock,
            issuer=entity_id,
            audience=self.entity_id,
            keys=JwkSet([md.verifier]),
            required_claims=("sub",),
        )
        claims = validator.validate(assertion)
        self.policy.check(md.loa, md.categories)  # AssuranceTooLow if not
        return claims, md

    @route("POST", "/assert")
    def assert_identity(self, request: HttpRequest) -> HttpResponse:
        """Consume an institutional assertion; establish a proxy session."""
        entity_id = str(request.body.get("entity_id", ""))
        assertion = str(request.body.get("assertion", ""))
        claims, md = self._validate_assertion(entity_id, assertion)
        identity = LinkedIdentity(entity_id=entity_id, sub=str(claims["sub"]))
        account = self.registry.register_or_get(
            identity,
            display_name=str(claims.get("name", "")),
            email=str(claims.get("email", "")),
            loa=md.loa,
            now=self.clock.now(),
        )
        session = self.create_session(
            account.uid,
            {
                "name": account.display_name,
                "email": account.email,
                "home_organization": claims.get("schac_home_organization", ""),
                "loa": int(md.loa),
                "idp": entity_id,
            },
            amr=["federated"],
        )
        self._audit(
            account.uid, "proxy.assert", entity_id, Outcome.SUCCESS,
            linked_identities=len(account.linked),
        )
        resp = HttpResponse.json({"uid": account.uid, "authenticated": True})
        return self.set_session_cookie(resp, session)

    def deprovision_account(self, uid: str, *, on_deprovision=None) -> int:
        """Operator-side erasure: drop the registry entry, sever our
        sessions, and give downstream ISDs the hook to revoke theirs."""
        removed = self.registry.deprovision(uid)
        severed = self.sessions.revoke_subject(uid)
        if on_deprovision is not None:
            on_deprovision(uid)
        self._audit("operator", "proxy.deprovision", uid, Outcome.INFO,
                    links_removed=removed, sessions=severed)
        return removed

    @route("POST", "/link")
    def link_identity(self, request: HttpRequest) -> HttpResponse:
        """Link an additional institutional identity to the session account."""
        session = self.session_from_request(request)
        if session is None:
            raise AuthenticationError("identity linking requires an active session")
        entity_id = str(request.body.get("entity_id", ""))
        assertion = str(request.body.get("assertion", ""))
        claims, _ = self._validate_assertion(entity_id, assertion)
        identity = LinkedIdentity(entity_id=entity_id, sub=str(claims["sub"]))
        account = self.registry.link(session.subject, identity)
        self._audit(session.subject, "proxy.link", entity_id, Outcome.SUCCESS)
        return HttpResponse.json(
            {"uid": account.uid, "linked": [li.entity_id for li in account.linked]}
        )
