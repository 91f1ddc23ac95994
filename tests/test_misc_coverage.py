"""Coverage for smaller surfaces: user agent, metrics, ids, errors,
plus two realistic journeys (last-resort SSH; institution change via
identity linking)."""

import pytest

from repro.core import build_isambard
from repro.core.metrics import format_table, latency_stats
from repro.errors import ConfigurationError, ReproError, TokenError, TokenExpired
from repro.ids import IdFactory
from repro.net import HttpRequest, HttpResponse, OperatingDomain, Service, Zone, route
from repro.oidc import UserAgent, make_url


# ---------------------------------------------------------------------------
# ids
# ---------------------------------------------------------------------------
def test_ids_deterministic_per_seed():
    a, b = IdFactory(7), IdFactory(7)
    assert [a.next("x") for _ in range(3)] == [b.next("x") for _ in range(3)]
    assert a.secret(16) == b.secret(16)
    assert IdFactory(8).secret(16) != IdFactory(9).secret(16)


def test_ids_namespaced_counters():
    ids = IdFactory(1)
    assert ids.next("user") == "user-0001"
    assert ids.next("proj") == "proj-0001"
    assert ids.next("user") == "user-0002"


def test_ids_jti_unique():
    ids = IdFactory(1)
    jtis = {ids.jti() for _ in range(100)}
    assert len(jtis) == 100


def test_ids_secret_validation():
    with pytest.raises(ValueError):
        IdFactory(1).secret(0)


# ---------------------------------------------------------------------------
# errors taxonomy
# ---------------------------------------------------------------------------
def test_every_error_is_a_repro_error():
    import repro.errors as E

    for name in E.__all__:
        cls = getattr(E, name)
        assert issubclass(cls, ReproError)
        assert issubclass(cls, Exception)


def test_token_error_hierarchy():
    assert issubclass(TokenExpired, TokenError)
    with pytest.raises(TokenError):
        raise TokenExpired("x")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def test_latency_stats_empty_and_filled():
    empty = latency_stats([])
    assert empty["n"] == 0 and empty["p95"] == 0.0
    stats = latency_stats([1.0, 2.0, 3.0, 4.0])
    assert stats["n"] == 4
    assert stats["min"] == 1.0 and stats["max"] == 4.0
    assert stats["p50"] == pytest.approx(2.5)


def test_format_table_alignment():
    out = format_table(["a", "long-header"], [["xx", 1], ["y", 22]],
                       title="t")
    lines = out.splitlines()
    assert lines[0] == "t"
    assert all(len(line) == len(lines[1]) for line in lines[1:])


# ---------------------------------------------------------------------------
# user agent details
# ---------------------------------------------------------------------------
class Bouncer(Service):
    @route("GET", "/loop")
    def loop(self, request):
        return HttpResponse.redirect(make_url(self.name, "/loop"))

    @route("GET", "/here")
    def here(self, request):
        return HttpResponse.json({"cookie": request.headers.get("Cookie", "")})


@pytest.fixture()
def agent_net(sim):
    clock, ids, network = sim
    network.attach(Bouncer("svc"), OperatingDomain.FDS, Zone.ACCESS)
    agent = UserAgent("ua", max_hops=5)
    network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
    return agent


def test_agent_detects_redirect_loops(agent_net):
    with pytest.raises(ConfigurationError) as err:
        agent_net.get(make_url("svc", "/loop"))
    assert "redirect loop" in str(err.value)


def test_agent_history_records_hops(agent_net):
    agent_net.get(make_url("svc", "/here"))
    assert agent_net.history[-1].startswith("GET https://svc/here")


def test_agent_clear_cookies_selective(agent_net):
    agent_net.cookies["svc"] = {"sid": "x"}
    agent_net.cookies["other"] = {"sid": "y"}
    agent_net.clear_cookies("svc")
    assert "svc" not in agent_net.cookies and "other" in agent_net.cookies
    agent_net.clear_cookies()
    assert not agent_net.cookies


def test_agent_sends_stored_cookies(agent_net):
    agent_net.cookies["svc"] = {"sid": "abc"}
    resp, _ = agent_net.get(make_url("svc", "/here"))
    assert resp.body["cookie"] == "sid=abc"


# ---------------------------------------------------------------------------
# journey: a vendor user (last resort) works on the cluster over SSH
# ---------------------------------------------------------------------------
def test_lastresort_user_full_ssh_journey():
    dri = build_isambard(seed=95)
    s1 = dri.workflows.story1_pi_onboarding(
        "vendor-pi", via="lastresort", project_name="proj-aisi")
    assert s1.ok, s1.steps
    s4 = dri.workflows.story4_ssh_session("vendor-pi")
    assert s4.ok, s4.steps
    assert s4.data["principal"].startswith("vendorpi.")
    # and Jupyter works for them too
    s6 = dri.workflows.story6_jupyter("vendor-pi")
    assert s6.ok, s6.steps


# ---------------------------------------------------------------------------
# journey: researcher changes institution, links the new identity
# ---------------------------------------------------------------------------
def test_institution_change_with_identity_linking():
    """A researcher moves from Bristol to Tartu mid-project.  Linking the
    new institutional identity to their MyAccessID account preserves the
    persistent uid — projects, unix accounts and roles survive the move.
    """
    dri = build_isambard(seed=96)
    s1 = dri.workflows.story1_pi_onboarding("remy")
    remy = dri.workflows.personas["remy"]
    uid = remy.broker_sub

    # new identity at Tartu
    tartu = dri.idps["idp-tartu"]
    tartu.add_user("remy.t", "pw-new", "Remy", "remy@idp.ut.ee")

    # while still logged in at MyAccessID, link the Tartu identity
    login, _ = remy.agent.post(
        make_url("idp-tartu", "/login"),
        {"username": "remy.t", "password": "pw-new",
         "sp": dri.myaccessid.entity_id},
    )
    link, _ = remy.agent.post(
        make_url("myaccessid", "/link"),
        {"entity_id": tartu.entity_id, "assertion": login.body["assertion"]},
    )
    assert link.ok, link.body

    # Bristol de-affiliates them; fresh login via Tartu still maps to the
    # same account, so the project role is intact
    dri.idps["idp-bristol"].deactivate_user("remy")
    remy.agent.clear_cookies("broker")
    remy.agent.clear_cookies("myaccessid")
    remy.idp_endpoint = "idp-tartu"
    remy.username, remy.password = "remy.t", "pw-new"
    resp = dri.workflows.login(remy)
    assert resp.ok, resp.body
    assert resp.body["sub"] == uid
    mint = dri.workflows.mint(remy, "portal", "pi",
                              project=s1.data["project_id"])
    assert mint.ok
