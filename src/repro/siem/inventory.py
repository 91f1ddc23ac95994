"""Asset inventory and vulnerability tracking (SOC task 2).

"Inventory all virtual machines in SWS and FDS to track software
versions for vulnerabilities."  Assets register with a kind and version;
the vulnerability feed maps (kind, version-range) to advisories; a scan
joins the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Asset", "Advisory", "AssetInventory"]


@dataclass
class Asset:
    name: str
    kind: str           # e.g. "bastion-vm", "k8s-node", "login-node"
    version: str
    domain: str
    last_seen: float


@dataclass(frozen=True)
class Advisory:
    advisory_id: str    # e.g. "CVE-2024-0001"
    kind: str
    affected_versions: Tuple[str, ...]
    severity: str       # "low"|"medium"|"high"|"critical"
    summary: str


@dataclass(frozen=True)
class Finding:
    asset: str
    advisory_id: str
    severity: str
    summary: str


class AssetInventory:
    """Registry + vulnerability scanner."""

    def __init__(self) -> None:
        self._assets: Dict[str, Asset] = {}
        self._advisories: List[Advisory] = []

    # ------------------------------------------------------------------
    def register(self, name: str, kind: str, version: str, domain: str,
                 *, now: float = 0.0) -> Asset:
        asset = Asset(name=name, kind=kind, version=version,
                      domain=domain, last_seen=now)
        self._assets[name] = asset
        return asset

    def update_version(self, name: str, version: str, *, now: float = 0.0) -> None:
        asset = self._assets.get(name)
        if asset is not None:
            asset.version = version
            asset.last_seen = now

    def assets(self, *, domain: Optional[str] = None) -> List[Asset]:
        return [a for a in self._assets.values()
                if domain is None or a.domain == domain]

    # ------------------------------------------------------------------
    def publish_advisory(self, advisory: Advisory) -> None:
        self._advisories.append(advisory)

    def scan(self) -> List[Finding]:
        """Join assets against advisories; returns current findings."""
        findings: List[Finding] = []
        for asset in self._assets.values():
            for adv in self._advisories:
                if adv.kind == asset.kind and asset.version in adv.affected_versions:
                    findings.append(Finding(
                        asset=asset.name,
                        advisory_id=adv.advisory_id,
                        severity=adv.severity,
                        summary=adv.summary,
                    ))
        return findings

    def vulnerable_assets(self) -> List[str]:
        return sorted({f.asset for f in self.scan()})
