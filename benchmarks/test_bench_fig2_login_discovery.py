"""FIG2 — reproduce Fig. 2: the login page and identity-provider discovery.

Fig. 2 shows the provider-choice page: "University Login (MyAccessID)"
for most researchers, an identity of last resort, a team/admin option,
and the policy links.  The bench renders exactly that, plus MyAccessID's
own institution-discovery table with the assurance filter that eduGAIN
lacks (§II.B).
"""

import pytest

from repro.core import build_isambard
from repro.core.metrics import format_table
from repro.net import OperatingDomain, Zone
from repro.oidc import UserAgent, make_url


@pytest.fixture(scope="module")
def dri():
    return build_isambard(seed=2)


def test_fig2_login_page(dri, report):
    agent = UserAgent("fig2-laptop")
    dri.network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)

    resp = agent.get(make_url("broker", "/login"))[0]
    assert resp.ok
    providers = resp.body["providers"]
    assert {p["kind"] for p in providers} == {"federated", "lastresort", "admin"}
    assert resp.body["terms_acceptance_required"] is True
    for link in ("privacy_policy", "terms_of_use", "help", "contact"):
        assert link in resp.body["links"]

    disco, _ = agent.get(make_url("myaccessid", "/discovery"))
    assert disco.ok
    by_entity = {c["entity_id"]: c for c in disco.body["idps"]}
    # the assurance policy filters the webshop IdP out (no R&S, low LoA)
    assert by_entity["https://idp.webshop.example"]["acceptable"] is False
    assert by_entity["https://idp.bristol.ac.uk"]["acceptable"] is True

    report("fig2_login_discovery", "\n\n".join([
        format_table(
            ["option", "kind"],
            [[p["label"], p["kind"]] for p in providers],
            title="FIG2a: login page provider choices (cf. paper Fig. 2)",
        ),
        format_table(
            ["link", "target"],
            sorted(resp.body["links"].items()),
            title="FIG2b: policy links on the login page",
        ),
        format_table(
            ["institution", "federation", "acceptable (R&S + LoA policy)"],
            [[c["display_name"], c["federation"],
              "yes" if c["acceptable"] else "no"]
             for c in disco.body["idps"]],
            title="FIG2c: MyAccessID discovery service",
        ),
    ]))
