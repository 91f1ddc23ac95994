"""eduGAIN-style inter-federation metadata: the aggregate's entry type.

eduGAIN "connects identity federations around the world" — operationally
it is a metadata aggregate: entity ids, endpoints, keys, entity
categories and assurance declarations for thousands of IdPs.  The proxy
(MyAccessID) consumes the aggregate to validate assertions and to drive
its discovery service; the aggregate itself is the
:class:`~repro.federation.directory.ShardedMetadataStore`, and this
module holds what it serves (:class:`IdPMetadata`).

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

__all__ = ["IdPMetadata"]


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

