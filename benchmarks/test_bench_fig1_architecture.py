"""FIG1 — reproduce Fig. 1: domains, zones, services and permitted flows.

The bench builds the full deployment, prints the architecture inventory
(one row per service, grouped by domain/zone) and the inter-domain flow
matrix, and asserts the six §III design principles as machine-checkable
properties.
"""

from collections import defaultdict

import pytest

from repro.core import build_isambard
from repro.core.metrics import format_table
from repro.net import OperatingDomain, Zone

PROBE_FLOWS = [
    # (src, dst, port, expected) — the edges Fig. 1 draws (or refuses)
    ("laptop", "broker", 443, True),
    ("laptop", "portal", 443, True),
    ("laptop", "bastion", 22, True),
    ("laptop", "tailnet", 443, True),
    ("laptop", "login-node", 22, False),
    ("laptop", "login-node", 443, False),
    ("laptop", "mgmt-node", 443, False),
    ("laptop", "jupyter", 443, False),
    ("laptop", "soc", 443, False),
    ("bastion", "login-node", 22, True),
    ("bastion", "mgmt-node", 443, False),
    ("broker", "myaccessid", 443, True),
    ("broker", "login-node", 443, False),
    ("zenith-client", "zenith", 443, True),
    ("jupyter", "broker", 443, True),
    ("tailnet", "mgmt-node", 443, True),
    ("log-shipper", "soc", 443, True),
    ("soc", "broker", 443, False),
    ("login-node", "mgmt-node", 443, False),
]


def test_fig1_architecture(report):
    dri = build_isambard(seed=1)
    from repro.oidc import UserAgent

    agent = UserAgent("laptop")
    dri.network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)

    # --- service inventory, grouped as the figure draws it ---------------
    groups = defaultdict(list)
    for ep in dri.network.endpoints():
        groups[(str(ep.domain), str(ep.zone))].append(ep.name)
    inventory_rows = [
        [domain.upper(), zone, ", ".join(sorted(names))]
        for (domain, zone), names in sorted(groups.items())
    ]

    # --- flow matrix -------------------------------------------------------
    flow_rows = []
    for src, dst, port, expected in PROBE_FLOWS:
        actual = dri.network.reachable(src, dst, port)
        flow_rows.append([
            f"{src} -> {dst}:{port}",
            "ALLOW" if actual else "DENY",
            "ok" if actual == expected else "MISMATCH",
        ])
        assert actual == expected, f"{src}->{dst}:{port}"

    # --- the six §III design principles ------------------------------------
    principles = []
    # 1. all access via short-lived RBAC tokens
    principles.append(("short-lived RBAC tokens everywhere",
                       dri.broker.tokens.max_ttl <= 3600))
    # 2. only the Access zone is internet-facing
    internet_reachable_zones = {
        str(dri.network.endpoint(dst).zone)
        for src, dst, port, expected in PROBE_FLOWS
        if src == "laptop" and dri.network.reachable(src, dst, port)
    }
    principles.append(("only Access/Management-coordination internet-facing",
                       internet_reachable_zones <= {"access", "management"}))
    # 3. management zone only via admin tailnet
    principles.append(("management zone unreachable except via tailnet relay",
                       not dri.network.reachable("laptop", "mgmt-node", 443)
                       and dri.network.reachable("tailnet", "mgmt-node", 443)))
    # 4. security zone separated from all others
    principles.append(("security zone isolated (logs in, nothing out)",
                       not dri.network.reachable("soc", "broker", 443)
                       and dri.network.reachable("log-shipper", "soc", 443)))
    # 5. open protocols: OIDC discovery served
    from repro.net.http import HttpRequest

    disco = dri.broker.handle(HttpRequest("GET", "/.well-known/openid-configuration"))
    principles.append(("open protocols (OIDC discovery document)", disco.ok))
    # 6. default deny
    principles.append(("default-deny segmentation",
                       dri.network.firewall.segmented))
    for name, ok in principles:
        assert ok, name

    report("fig1_architecture", "\n\n".join([
        format_table(["domain", "zone", "services"], inventory_rows,
                     title="FIG1a: service inventory (cf. paper Fig. 1)"),
        format_table(["flow", "decision", "matches Fig.1"], flow_rows,
                     title="FIG1b: segmentation flow matrix"),
        format_table(["design principle (III)", "holds"],
                     [[n, "yes" if ok else "NO"] for n, ok in principles],
                     title="FIG1c: design principles"),
    ]))
