"""The recipes in docs/extending.md must actually work (docs don't rot)."""

import pytest

from repro.audit import Outcome
from repro.broker import Role
from repro.core import build_isambard
from repro.federation import EntityCategory, InstitutionalIdP, LevelOfAssurance
from repro.grants import GrantTable
from repro.net import (
    FirewallRule,
    HttpResponse,
    OperatingDomain,
    Service,
    Zone,
    analyze_rule_change,
    route,
)
from repro.oidc import make_url
from repro.policy import load_policy
from repro.siem import ThresholdRule
from repro.tunnels import ZenithClient


@pytest.fixture()
def dri():
    return build_isambard(seed=101)


def test_recipe_add_institutional_idp(dri):
    idp = InstitutionalIdP(
        "idp-oslo", "https://idp.uio.no", dri.clock, dri.ids,
        loa=LevelOfAssurance.CAPPUCCINO,
        categories=(EntityCategory.RESEARCH_AND_SCHOLARSHIP,),
        audit=dri.logs["external"],
    )
    dri.edugain.register_idp(idp, federation="FEIDE", display_name="U. Oslo")
    dri.network.attach(idp, OperatingDomain.EXTERNAL, Zone.INTERNET)
    dri.idps["idp-oslo"] = idp
    dri.workflows.create_researcher("kari", idp="idp-oslo")

    # the IdP shows up in discovery, and kari is onboarded as a PI by
    # logging in federated through it
    agent = dri.workflows._new_agent("probe")
    disco, _ = agent.get(make_url("myaccessid", "/discovery"))
    assert any(c["entity_id"] == "https://idp.uio.no" and c["acceptable"]
               for c in disco.body["idps"])
    s1 = dri.workflows.story1_pi_onboarding("kari", project_name="oslo-proj")
    assert s1.ok, s1.steps
    assert any(e.source == "idp-oslo" and e.actor == "kari"
               and e.action == "idp.login" and e.outcome == Outcome.SUCCESS
               for e in dri.logs["external"].events())
    # the IdP records into the trail the SOC's forwarders ship
    idp.rotate_key()
    assert any(e.source == "idp-oslo" and e.action == "idp.key_rotated"
               for e in dri.logs["external"].events())


def test_recipe_publish_service_via_zenith(dri):
    class Dashboard(Service):
        @route("GET", "/")
        def home(self, request):
            return HttpResponse.json({"hello": "dashboard"})

    dash = Dashboard("dashboard")
    client = ZenithClient("zenith-dash", "dashboard")
    dri.network.attach(dash, OperatingDomain.MDC, Zone.HPC)
    dri.network.attach(client, OperatingDomain.MDC, Zone.HPC)
    token, _ = dri.broker.tokens.mint("mdc-dash", "zenith", Role.SERVICE)
    resp = client.register_with("zenith", "dashboard", token)
    assert resp.ok
    assert "dashboard" in dri.zenith.tunnels

    # an authorised user reaches it through the edge (note: 'dashboard'
    # must be an audience the user can mint for -> researcher role works
    # because the zenith shim asks for researcher/pi)
    s1 = dri.workflows.story1_pi_onboarding("dana")
    dana = dri.workflows.personas["dana"]
    resp, _ = dana.agent.get(
        make_url("edge", "/zenith/app", service="dashboard", path="/"))
    if resp.status == 401:
        dri.workflows.login(dana)
        resp, _ = dana.agent.get(
            make_url("edge", "/zenith/app", service="dashboard", path="/"))
    assert resp.ok and resp.body["hello"] == "dashboard"


def test_recipe_policy_dsl_at_mgmt(dri):
    dri.mgmt_node.policy = load_policy("""
        deny  contained  if risk_score >= 1
        deny  no-hwk     if role startswith "admin" and "hwk" not in mfa_methods
        allow rest       if capability
    """)
    result = dri.workflows.story5_privileged_operation("ops1")
    assert result.ok, result.steps


def test_recipe_detection_rule(dri):
    dri.soc.rules.append(ThresholdRule(
        name="cert-mint-burst", severity="medium", window=60, count=3,
        summary="{actor} minted {count} SSH certs in a minute",
        predicate=lambda action, outcome: action == "ca.sign",
    ))
    s1 = dri.workflows.story1_pi_onboarding("carl")
    carl = dri.workflows.personas["carl"]
    for _ in range(3):
        carl.ssh_client.request_certificate()
    dri.ship_logs()
    assert any(a.rule == "cert-mint-burst" for a in dri.soc.alerts)


def test_recipe_firewall_gate(dri):
    risky = FirewallRule(
        name="grafana-direct", src_domain=OperatingDomain.EXTERNAL,
        dst_domain=OperatingDomain.MDC, dst_zone=Zone.HPC, port=443)
    report = analyze_rule_change(dri.network, risky)
    assert report.exposes_protected  # CI would reject this change


class DashboardSessions:
    """The recipe's surface: web dashboard sessions keyed by uid."""

    def __init__(self, clock):
        self.clock = clock
        self._granted = GrantTable()

    def open(self, sid, uid, expires_at, record):
        self._granted.add(sid, uid, expires_at, record)

    def grants(self, now, skip=()):
        return self._granted.grants("dashboard", now, skip)

    def sever(self, subject, by, project=None):
        hit = self._granted.of(subject, self.clock.now())
        self._granted.end(*(sid for sid, *_ in hit))
        return len(hit)


def test_recipe_enforcement_surface():
    """One entry in ``dri.surfaces()`` is read by the session registry
    and ended by every teardown: the kill switch, the portal and the
    pipeline."""
    dri = build_isambard(seed=101, authz=True)
    dashboard = DashboardSessions(dri.clock)
    surfaces = dri.surfaces
    dri.surfaces = lambda: (*surfaces(), ("tunnels", dashboard))
    for sid, sub in (("d1", "mallory"), ("d2", "mallory"), ("d3", "eve")):
        dashboard.open(sid, sub, 3600.0, {"sub": sub})
    reg = dri.authz.registry
    mallory = reg.graph.identity_of("mallory")
    assert {g.resource for g in reg.live_grants(mallory)} == {"d1", "d2"}
    record = dri.killswitch.contain_user("mallory")
    assert record.details["tunnels"] == 2
    assert [sid for sid, *_ in dashboard._granted.live(dri.clock.now())] \
        == ["d3"]
    assert reg.live_grants(mallory) == []
