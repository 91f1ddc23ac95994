"""Firewall change analyzer: what would a proposed rule expose?

Segmentation erodes through well-meaning rule additions.  Before an
operator lands a new allow rule, the analyzer diffs the reachability
relation (over all attached endpoints and the standard probe ports) with
and without it, and flags any newly reachable flow into a protected zone
— the review artefact a DevSecOps pipeline would attach to the change
request (§IV.B: "we need to grow a DevSecOps culture ... to establish
and harden these practices").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.net.firewall import Firewall, FirewallRule
from repro.net.network import Network
from repro.net.zones import Zone

__all__ = ["FlowDelta", "ChangeReport", "analyze_rule_change"]

PROBE_PORTS = (22, 443)
PROTECTED_ZONES = (Zone.MANAGEMENT, Zone.HPC, Zone.DATA_STORAGE, Zone.SECURITY)


@dataclass(frozen=True)
class FlowDelta:
    src: str
    dst: str
    port: int
    dst_zone: str

    @property
    def into_protected(self) -> bool:
        return self.dst_zone in {z.value for z in PROTECTED_ZONES}


@dataclass(frozen=True)
class ChangeReport:
    rule: FirewallRule
    newly_allowed: Tuple[FlowDelta, ...]
    newly_denied: Tuple[FlowDelta, ...]

    @property
    def exposes_protected(self) -> bool:
        return any(d.into_protected for d in self.newly_allowed)

    def summary(self) -> str:
        lines = [f"proposed rule: {self.rule.name} ({self.rule.action})"]
        if not self.newly_allowed and not self.newly_denied:
            lines.append("  no reachability change")
        for d in self.newly_allowed:
            flag = "  [PROTECTED-ZONE EXPOSURE]" if d.into_protected else ""
            lines.append(f"  + {d.src} -> {d.dst}:{d.port}{flag}")
        for d in self.newly_denied:
            lines.append(f"  - {d.src} -> {d.dst}:{d.port}")
        return "\n".join(lines)


def _reachability(network: Network, firewall: Firewall,
                  ports: Sequence[int]) -> set:
    flows = set()
    endpoints = network.endpoints()
    for src in endpoints:
        for dst in endpoints:
            if src.name == dst.name:
                continue
            for port in ports:
                if firewall.evaluate(src.domain, src.zone,
                                     dst.domain, dst.zone, port):
                    flows.add((src.name, dst.name, port, dst.zone.value))
    return flows


def analyze_rule_change(
    network: Network,
    rule: FirewallRule,
    *,
    position: str = "append",
    ports: Sequence[int] = PROBE_PORTS,
) -> ChangeReport:
    """Diff reachability with ``rule`` added (``append`` or ``prepend``).

    The live firewall is never modified — the analysis runs on copies.
    """
    current = network.firewall

    def clone(with_rule: bool) -> Firewall:
        fw = Firewall(segmented=current.segmented)
        rules = list(current.rules())
        if with_rule:
            rules = ([rule] + rules) if position == "prepend" else (rules + [rule])
        for r in rules:
            fw.add_rule(r)
        return fw

    before = _reachability(network, clone(False), ports)
    after = _reachability(network, clone(True), ports)
    newly_allowed = tuple(
        FlowDelta(src, dst, port, zone)
        for (src, dst, port, zone) in sorted(after - before)
    )
    newly_denied = tuple(
        FlowDelta(src, dst, port, zone)
        for (src, dst, port, zone) in sorted(before - after)
    )
    return ChangeReport(rule=rule, newly_allowed=newly_allowed,
                        newly_denied=newly_denied)
