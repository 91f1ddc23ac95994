"""The identity graph: one canonical SPIFFE id per principal/workload.

"Identity Control Plane: The Unifying Layer for Zero Trust
Infrastructure" argues for exactly one identity graph behind every
enforcement hop.  The repro's enforcement points each speak their own
subject dialect — the broker speaks federated uids, sshd speaks UNIX
accounts, Zenith speaks service-token subjects.  :class:`IdentityGraph`
is the translation table: principals are minted a
``spiffe://<td>/user/<uid>`` id at onboarding, workloads get
``workload/<name>``, and aliases (the per-project UNIX accounts the
portal allocates) are bound to the owning principal, so a live SSH
session opened under ``proj1-alice`` is read as a grant of the
federated uid ``alice``, and a sever named by that uid alone finds the
account here (``resolve``) even while the portal is down.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.federation.spiffe import (
    TrustDomainAuthority,
    principal_id,
    workload_id,
)

__all__ = ["IdentityGraph"]


class IdentityGraph:
    """Canonical-identity minting plus alias resolution.

    Parameters
    ----------
    trust_domain:
        SPIFFE trust domain ids are minted under.
    authority:
        Optional :class:`TrustDomainAuthority`; when present, minted
        principals are also attested there so SVIDs can be issued for
        humans exactly like for workloads.
    """

    def __init__(self, trust_domain: str = "isambard.example", *,
                 authority: Optional[TrustDomainAuthority] = None) -> None:
        self.trust_domain = trust_domain
        self.authority = authority
        self._principals: Dict[str, str] = {}   # uid -> spiffe id
        self._workloads: Dict[str, str] = {}    # name -> spiffe id
        self._accounts: Dict[str, str] = {}     # unix account -> uid

    # ------------------------------------------------------------- minting
    def principal(self, uid: str) -> str:
        """Mint (or fetch) the canonical id of a human principal."""
        spiffe = self._principals.get(uid)
        if spiffe is None:
            spiffe = principal_id(self.trust_domain, uid)
            self._principals[uid] = spiffe
            if self.authority is not None and not self.authority.registered(
                    f"user/{uid}"):
                self.authority.register_principal(uid)
        return spiffe

    def workload(self, name: str) -> str:
        """Mint (or fetch) the canonical id of a workload/service."""
        spiffe = self._workloads.get(name)
        if spiffe is None:
            spiffe = workload_id(self.trust_domain, name)
            self._workloads[name] = spiffe
        return spiffe

    def bind_account(self, account: str, uid: str) -> None:
        """Alias a per-project UNIX account to its owning principal
        (the portal calls this when the account is allocated)."""
        self._accounts[account] = uid

    # ----------------------------------------------------------- resolution
    def identity_of(self, subject: str, *, workload: bool = False) -> str:
        """Canonical id for any subject dialect: a federated uid, a UNIX
        account alias, or a service name (``workload=True``)."""
        if workload:
            return self.workload(subject)
        uid = self._accounts.get(subject, subject)
        return self.principal(uid)

    def identities(self, users, workloads) -> set:
        """The canonical ids of many subjects at once: ``identity_of``
        of each user subject and of each workload name."""
        principals, accounts = self._principals, self._accounts
        return ({principals.get(accounts.get(s, s)) or self.identity_of(s)
                 for s in users} | {self.workload(w) for w in workloads})

    def resolve(self, principal: str) -> Tuple[str, List[str]]:
        """The uid behind ``principal`` (a uid, or an account aliased to
        one) and every account aliased to that uid, sorted.  Nothing
        unbinds an alias, so a revoked account is still listed."""
        uid = self._accounts.get(principal, principal)
        return uid, sorted(a for a, u in self._accounts.items() if u == uid)

    def uid_of(self, spiffe: str) -> str:
        """The bare subject behind a canonical id (last path segment)."""
        return spiffe.rsplit("/", 1)[-1] if "/" in spiffe else spiffe
