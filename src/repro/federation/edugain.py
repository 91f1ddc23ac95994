"""eduGAIN-style inter-federation metadata: the entry type and a synthesiser.

eduGAIN "connects identity federations around the world" — operationally
it is a metadata aggregate: entity ids, endpoints, keys, entity
categories and assurance declarations for thousands of IdPs.  The proxy
(MyAccessID) consumes the aggregate to validate assertions and to drive
its discovery service; the aggregate itself is the
:class:`~repro.federation.directory.ShardedMetadataStore`, and this
module holds what it serves (:class:`IdPMetadata`) and a population
generator for scale tests (:func:`populate_edugain`).

The paper's noted weakness — eduGAIN "lacks features for controlling
assurance and trust from IdPs" — shows up here as: the aggregate
*records* what IdPs self-declare, and it is the proxy's
:class:`AssurancePolicy` that must filter, since the federation itself
will not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.federation.assurance import EntityCategory, LevelOfAssurance
from repro.federation.idp import InstitutionalIdP

__all__ = ["IdPMetadata", "populate_edugain"]


@dataclass(frozen=True)
class IdPMetadata:
    """One IdP's entry in the metadata aggregate."""

    entity_id: str
    endpoint_name: str
    display_name: str
    federation: str  # home federation, e.g. "UKAMF", "InCommon"
    loa: LevelOfAssurance
    categories: Tuple[EntityCategory, ...]
    verifier: object  # VerifyingKey for its assertions
    version: int = 1  # bumped by every refresh (key rotation, rename)
    registered_at: float = 0.0
    valid_until: Optional[float] = None  # None = no expiry enforced


def populate_edugain(
    edugain,
    clock,
    ids,
    *,
    n_federations: int = 20,
    idps_per_federation: int = 10,
    rns_fraction: float = 0.7,
    network=None,
) -> list:
    """Synthesise a large inter-federation (eduGAIN had >80 federations
    and >8000 IdPs at the time of the paper).

    Every ``rns_fraction`` of IdPs declares R&S + Cappuccino (acceptable
    to MyAccessID); the rest are low-assurance with no entity category —
    the population the discovery filter must reject.  When ``network``
    is given, IdPs are attached as live EXTERNAL endpoints so logins
    through them actually work.
    """
    created = []
    count = 0
    for f in range(n_federations):
        federation = f"fed-{f:02d}"
        for i in range(idps_per_federation):
            count += 1
            rns = (count % 100) < rns_fraction * 100
            name = f"idp-{federation}-{i:02d}"
            idp = InstitutionalIdP(
                name,
                f"https://{name}.example",
                clock,
                ids,
                loa=(LevelOfAssurance.CAPPUCCINO if rns
                     else LevelOfAssurance.LOW),
                categories=((EntityCategory.RESEARCH_AND_SCHOLARSHIP,)
                            if rns else ()),
            )
            edugain.register_idp(idp, federation=federation,
                                 display_name=name)
            if network is not None:
                from repro.net import OperatingDomain, Zone

                network.attach(idp, OperatingDomain.EXTERNAL, Zone.INTERNET)
            created.append(idp)
    return created
