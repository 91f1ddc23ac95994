"""Default-deny firewall with first-match rules over (domain, zone, port).

Segmentation in the paper is enforced physically (separate networks) and
logically (firewalls, private VPCs).  In the simulation both collapse into
one policy object the :class:`~repro.net.network.Network` consults for
every message.  The default is **deny**: an empty firewall is a fully
segmented network, and the deployment opens exactly the flows Fig. 1
draws (port 22 to the bastion, 443 to the Cloudflare edge, tunnel
heartbeats outbound from MDC, log shipping to SEC...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.zones import OperatingDomain, Zone

__all__ = ["FirewallRule", "Decision", "Firewall", "ANY"]

ANY = "*"


def _match(pattern: object, value: object) -> bool:
    return pattern == ANY or pattern == value


@dataclass(frozen=True)
class FirewallRule:
    """One allow/deny rule.  ``ANY`` ("*") wildcards any field.

    ``port`` follows the same convention (int or ``ANY``).
    """

    name: str
    src_domain: object = ANY
    src_zone: object = ANY
    dst_domain: object = ANY
    dst_zone: object = ANY
    port: object = ANY
    action: str = "allow"

    def __post_init__(self) -> None:
        if self.action not in ("allow", "deny"):
            raise ValueError(f"action must be allow/deny, got {self.action!r}")

    def matches(
        self,
        src_domain: OperatingDomain,
        src_zone: Zone,
        dst_domain: OperatingDomain,
        dst_zone: Zone,
        port: int,
    ) -> bool:
        return (
            _match(self.src_domain, src_domain)
            and _match(self.src_zone, src_zone)
            and _match(self.dst_domain, dst_domain)
            and _match(self.dst_zone, dst_zone)
            and _match(self.port, port)
        )


@dataclass(frozen=True)
class Decision:
    """Outcome of a firewall evaluation, with the rule that decided it."""

    allowed: bool
    rule: Optional[str]

    def __bool__(self) -> bool:
        return self.allowed


class Firewall:
    """First-match-wins rule list with a default-deny tail.

    ``segmented=False`` turns the firewall into allow-all — used only by
    the ABL1 "flat network" baseline to measure what segmentation buys.
    """

    def __init__(self, *, segmented: bool = True) -> None:
        self._rules: List[FirewallRule] = []
        self.segmented = segmented

    def add_rule(self, rule: FirewallRule) -> None:
        self._rules.append(rule)

    def allow(self, name: str, **kwargs: object) -> FirewallRule:
        """Shorthand: append an allow rule."""
        rule = FirewallRule(name=name, action="allow", **kwargs)  # type: ignore[arg-type]
        self.add_rule(rule)
        return rule

    def deny(self, name: str, **kwargs: object) -> FirewallRule:
        """Shorthand: append a deny rule (useful to carve holes out of allows)."""
        rule = FirewallRule(name=name, action="deny", **kwargs)  # type: ignore[arg-type]
        self.add_rule(rule)
        return rule

    def rules(self) -> List[FirewallRule]:
        return list(self._rules)

    def evaluate(
        self,
        src_domain: OperatingDomain,
        src_zone: Zone,
        dst_domain: OperatingDomain,
        dst_zone: Zone,
        port: int,
    ) -> Decision:
        """First matching rule wins; no match ⇒ deny (when segmented)."""
        if not self.segmented:
            return Decision(allowed=True, rule="unsegmented-allow-all")
        if src_domain == dst_domain and src_zone == dst_zone:
            # Intra-zone, intra-domain traffic is not firewalled between
            # co-located services (they still require tokens — zero trust
            # is enforced at the service layer, not only the network).
            return Decision(allowed=True, rule="intra-zone")
        for rule in self._rules:
            if rule.matches(src_domain, src_zone, dst_domain, dst_zone, port):
                return Decision(allowed=rule.action == "allow", rule=rule.name)
        return Decision(allowed=False, rule=None)
