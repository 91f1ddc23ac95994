"""Attacker model: blast radius, stolen credentials, containment time.

The paper's security claims are qualitative ("segmentation of network
domains allowed us to isolate and contain different threats"; a
"non-authorised user of a service cannot access the AI and HPC
resources").  This module turns them into measurements:

* **network blast radius** — from a compromised foothold, which
  endpoints are reachable at all?  BFS over the firewall's reachability
  relation; compared against the flat-network baseline in ABL1.
* **stolen-token window** — an attacker exfiltrates a live RBAC token;
  for how long does it keep working?  Swept against TTL in ABL2.
* **containment time** — an attacker trips a detection rule; how long
  until the kill switch severs them?  Decomposed into forwarding delay +
  detection + containment in ABL3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import ReproError, TokenError
from repro.net.http import HttpRequest

__all__ = ["ExposureReport", "ThreatModel"]

PROBE_PORTS = (22, 443)


@dataclass(frozen=True)
class ExposureReport:
    origin: str
    reachable: List[str]
    total_endpoints: int


class ThreatModel:
    """Adversarial probes against one deployment."""

    def __init__(self, dri) -> None:
        self.dri = dri

    # ------------------------------------------------------------------
    # reachability / blast radius
    # ------------------------------------------------------------------
    def reachable_from(
        self, origin: str, *, ports: Sequence[int] = PROBE_PORTS
    ) -> ExposureReport:
        """Endpoints directly reachable from ``origin`` on any probe port."""
        network = self.dri.network
        reachable = [
            ep.name
            for ep in network.endpoints()
            if ep.name != origin
            and any(network.reachable(origin, ep.name, port) for port in ports)
        ]
        return ExposureReport(
            origin=origin,
            reachable=sorted(reachable),
            total_endpoints=len(network.endpoints()) - 1,
        )

    def lateral_movement(
        self, start: str, *, ports: Sequence[int] = PROBE_PORTS,
        max_hops: int = 2,
    ) -> ExposureReport:
        """Bounded transitive closure: what an attacker who fully
        compromises every service they can reach could touch within
        ``max_hops`` pivots.  (Unbounded closure saturates on any usable
        network — the paper's claim is about how *hard* each pivot is,
        which the hop budget models.)"""
        network = self.dri.network
        seen: Set[str] = {start}
        frontier = [start]
        for _hop in range(max_hops):
            next_frontier: List[str] = []
            for origin in frontier:
                for ep in network.endpoints():
                    if ep.name in seen:
                        continue
                    if any(network.reachable(origin, ep.name, port)
                           for port in ports):
                        seen.add(ep.name)
                        next_frontier.append(ep.name)
            frontier = next_frontier
        seen.discard(start)
        return ExposureReport(
            origin=start,
            reachable=sorted(seen),
            total_endpoints=len(network.endpoints()) - 1,
        )

    def hops_to(self, start: str, target: str,
                *, ports: Sequence[int] = PROBE_PORTS,
                max_hops: int = 6) -> Optional[int]:
        """Minimum number of pivots an attacker starting at ``start``
        needs before ``target`` is reachable (1 = direct).  None if the
        hop budget never reaches it."""
        for hops in range(1, max_hops + 1):
            report = self.lateral_movement(start, ports=ports, max_hops=hops)
            if target in report.reachable:
                return hops
        return None

    # ------------------------------------------------------------------
    # stolen credentials
    # ------------------------------------------------------------------
    def stolen_token_window(
        self, token: str, audience: str, *, probe_interval: float = 30.0,
        max_window: float = 24 * 3600.0,
    ) -> float:
        """Replay a stolen RBAC token until it stops validating.

        Returns the number of seconds the token remained usable after
        theft (theft time = now).  Advances the simulated clock.
        """
        clock = self.dri.clock
        validator = self.dri.validator_for(audience)
        start = clock.now()
        while clock.now() - start < max_window:
            try:
                validator.validate(token)
            except TokenError:
                return clock.now() - start
            clock.advance(probe_interval)
        return max_window

    def unauthorised_access_attempts(self, origin: str = "attacker-host"
                                     ) -> Dict[str, str]:
        """A non-authorised internet host tries every sensitive endpoint
        directly; records, per target, how the attempt died."""
        network = self.dri.network
        if not network.has_endpoint(origin):
            from repro.net import OperatingDomain, Service, Zone

            network.attach(Service(origin), OperatingDomain.EXTERNAL, Zone.INTERNET)
        outcomes: Dict[str, str] = {}
        for target, port, path in [
            ("login-node", 22, "/session"),
            ("mgmt-node", 443, "/operate"),
            ("jupyter", 443, "/"),
            ("soc", 443, "/alerts"),
            ("portal", 443, "/projects"),
            ("broker", 443, "/tokens"),
        ]:
            try:
                resp = network.request(
                    origin, target, HttpRequest("POST", path), port=port
                )
                outcomes[target] = (
                    f"HTTP {resp.status}: {resp.body.get('error', 'reached')}"
                    if not resp.ok else "REACHED (no denial!)"
                )
            except ReproError as exc:
                outcomes[target] = f"{type(exc).__name__}"
        return outcomes

    # ------------------------------------------------------------------
    # detection → containment
    # ------------------------------------------------------------------
    def containment_time(
        self, *, attack_rate: float = 1.0, attacker: str = "mallory",
        max_time: float = 3600.0,
    ) -> Optional[float]:
        """Brute-force the institutional IdP until the SOC contains the
        actor; returns seconds from first attempt to containment."""
        dri = self.dri
        clock = dri.clock
        start = clock.now()
        idp = next(iter(dri.idps.values()))
        while clock.now() - start < max_time:
            idp.handle(HttpRequest("POST", "/login", body={
                "username": attacker, "password": "guess", "sp": "x",
            }))
            clock.advance(1.0 / attack_rate)
            if attacker in dri.soc.contained:
                return clock.now() - start
        return None
