"""Unit tests for the Cloudflare edge, Zenith tunnels, and the tailnet."""

import pytest

from repro.broker import RbacTokenValidator, Role, TokenService
from repro.clock import SimClock
from repro.core import build_isambard
from repro.crypto import JwkSet
from repro.crypto.keys import generate_signing_key
from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    ConnectionBlocked,
    KillSwitchActive,
)
from repro.ids import IdFactory
from repro.net import (
    HttpRequest,
    HttpResponse,
    Network,
    OperatingDomain,
    Service,
    Zone,
    route,
)
from repro.tunnels import (
    CloudflareEdge,
    TailnetCoordinator,
    ZenithClient,
    ZenithServer,
)
from tests.conftest import Wiring

ISS = "https://broker"


class Hello(Service):
    @route("GET", "/")
    def hello(self, request):
        return HttpResponse.json({"hello": self.name,
                                  "token": request.headers.get("X-Isambard-Token", ""),
                                  "edge_ip": request.headers.get("CF-Connecting-IP", "")})

    @route("GET", "/status")
    def status(self, request):
        return HttpResponse.json({"node": request.headers.get("X-Tailnet-Node", "")})


# ---------------------------------------------------------------------------
# Cloudflare edge
# ---------------------------------------------------------------------------
@pytest.fixture()
def edge():
    clock = SimClock()
    e = CloudflareEdge("edge", clock, window=10, rate_limit=5, block_threshold=2,
                       **Wiring())
    e.register_origin("web", Hello("web"))
    return clock, e


def hit(e, source="laptop", path="/web/"):
    req = HttpRequest("GET", path)
    req.source = source
    return e.handle(req)


def test_edge_forwards_to_origin(edge):
    clock, e = edge
    resp = hit(e)
    assert resp.ok and resp.body["hello"] == "web"
    assert resp.body["edge_ip"] == "laptop"


def test_edge_unknown_origin_404(edge):
    clock, e = edge
    assert hit(e, path="/nope/").status == 404


def test_edge_rate_limits_flood(edge):
    clock, e = edge
    results = [hit(e, source="botnet") for _ in range(20)]
    assert any(r.status == 429 for r in results)
    assert e.requests_blocked > 0


def test_edge_blocks_repeat_offender_persistently(edge):
    clock, e = edge
    for _ in range(30):
        hit(e, source="botnet")
    assert "botnet" in e.blocked_sources
    clock.advance(1000)  # window long past: still blocked
    assert hit(e, source="botnet").status == 429
    # innocent client unaffected
    assert hit(e, source="laptop").ok


def test_edge_window_slides_for_slow_clients(edge):
    clock, e = edge
    for _ in range(30):
        assert hit(e, source="steady").ok
        clock.advance(5)  # 5s apart never exceeds 5-in-10s


def test_edge_manual_block_and_unblock(edge):
    clock, e = edge
    e.block_source("laptop")
    assert hit(e).status == 429
    e.unblock_source("laptop")
    assert hit(e).ok


# ---------------------------------------------------------------------------
# Zenith
# ---------------------------------------------------------------------------
@pytest.fixture()
def zenith_world():
    clock = SimClock()
    ids = IdFactory(11)
    network = Network(clock, **Wiring())
    fw = network.firewall
    fw.allow("mdc-out-to-fds", src_domain=OperatingDomain.MDC,
             dst_domain=OperatingDomain.FDS, port=443)
    fw.allow("internet-to-fds", src_domain=OperatingDomain.EXTERNAL,
             dst_domain=OperatingDomain.FDS, port=443)

    broker_key = generate_signing_key("EdDSA", kid="bk")
    tokens = TokenService(clock, ids, broker_key, ISS, **Wiring())
    validator = RbacTokenValidator(
        clock, ISS, "zenith", JwkSet([broker_key.public()]), tokens.is_revoked
    )
    server = ZenithServer("zenith", clock, ids, validator, heartbeat_ttl=120,
                          **Wiring())
    app = Hello("jupyter-app")
    client = ZenithClient("zenith-client", "jupyter-app")
    network.attach(server, OperatingDomain.FDS, Zone.ACCESS)
    network.attach(app, OperatingDomain.MDC, Zone.HPC)
    network.attach(client, OperatingDomain.MDC, Zone.HPC)
    return clock, ids, network, tokens, server, client


def register(tokens, client, *, token=None, service="jupyter"):
    if token is None:
        token, _ = tokens.mint("mdc-zenith", "zenith", Role.SERVICE)
    return client.register_with("zenith", service, token)


def test_zenith_registration_with_service_token(zenith_world):
    clock, ids, network, tokens, server, client = zenith_world
    resp = register(tokens, client)
    assert resp.ok and "jupyter" in server.tunnels


def test_zenith_registration_requires_valid_token(zenith_world):
    clock, ids, network, tokens, server, client = zenith_world
    user_token, _ = tokens.mint("alice", "zenith", Role.RESEARCHER)
    resp = register(tokens, client, token=user_token)
    assert resp.status == 403
    resp2 = client.register_with("zenith", "jupyter", "garbage")
    assert resp2.status == 403


def test_zenith_tunnel_expires_without_heartbeat(zenith_world):
    clock, ids, network, tokens, server, client = zenith_world
    register(tokens, client)
    clock.advance(200)
    assert not server.tunnels["jupyter"].usable(clock.now())
    register(tokens, client)  # heartbeat re-registers
    assert server.tunnels["jupyter"].usable(clock.now())


def test_zenith_kill_switch_blocks_reregistration(zenith_world):
    clock, ids, network, tokens, server, client = zenith_world
    register(tokens, client)
    server.kill_tunnel("jupyter")
    resp = register(tokens, client)
    assert resp.status == 403 and resp.body["error_type"] == "KillSwitchActive"


def test_zenith_unregistered_service_unreachable(zenith_world):
    clock, ids, network, tokens, server, client = zenith_world
    from repro.oidc import UserAgent, make_url

    agent = UserAgent("laptop")
    network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
    resp, _ = agent.get(make_url("zenith", "/app", service="jupyter", path="/"))
    assert resp.status == 503


# ---------------------------------------------------------------------------
# tailnet
# ---------------------------------------------------------------------------
@pytest.fixture()
def tailnet_world():
    clock = SimClock()
    ids = IdFactory(13)
    network = Network(clock, **Wiring())
    fw = network.firewall
    fw.allow("internet-to-sws-tailnet", src_domain=OperatingDomain.EXTERNAL,
             dst_domain=OperatingDomain.SWS, dst_zone=Zone.MANAGEMENT, port=443)
    fw.allow("sws-mgmt-to-mdc-mgmt", src_domain=OperatingDomain.SWS,
             src_zone=Zone.MANAGEMENT, dst_domain=OperatingDomain.MDC,
             dst_zone=Zone.MANAGEMENT, port=443)

    broker_key = generate_signing_key("EdDSA", kid="bk")
    tokens = TokenService(clock, ids, broker_key, ISS, **Wiring())
    validator = RbacTokenValidator(
        clock, ISS, "tailnet", JwkSet([broker_key.public()]), tokens.is_revoked
    )
    coord = TailnetCoordinator("tailnet", clock, ids, validator, key_ttl=3600,
                               **Wiring())
    mgmt = Hello("mgmt-node")
    network.attach(coord, OperatingDomain.SWS, Zone.MANAGEMENT)
    network.attach(mgmt, OperatingDomain.MDC, Zone.MANAGEMENT)
    coord.expose_endpoint("mgmt-node", "mgmt")
    coord.acl.allow("admin-device", "mgmt", 443)

    from repro.oidc import UserAgent

    agent = UserAgent("admin-laptop")
    network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
    return clock, ids, network, tokens, coord, agent


def enrol(tokens, agent, *, role=Role.ADMIN_INFRA):
    token, _ = tokens.mint("idp-admin:ops1", "tailnet", role)
    resp = agent.call("tailnet", HttpRequest(
        "POST", "/enrol",
        headers={"Authorization": f"Bearer {token}"},
        body={"hostname": "admin-laptop"},
    ))
    return resp


def test_enrol_with_admin_token(tailnet_world):
    clock, ids, network, tokens, coord, agent = tailnet_world
    resp = enrol(tokens, agent)
    assert resp.ok and resp.body["node_id"].startswith("tnode")


def test_enrol_rejected_for_researcher_token(tailnet_world):
    clock, ids, network, tokens, coord, agent = tailnet_world
    resp = enrol(tokens, agent, role=Role.RESEARCHER)
    assert resp.status == 403


def test_relay_reaches_mgmt_node(tailnet_world):
    clock, ids, network, tokens, coord, agent = tailnet_world
    node_id = enrol(tokens, agent).body["node_id"]
    resp = coord.relay(node_id, "mgmt-node", HttpRequest("GET", "/status"))
    assert resp.ok and resp.body["node"] == node_id


def test_relay_acl_denies_unlisted_port(tailnet_world):
    clock, ids, network, tokens, coord, agent = tailnet_world
    node_id = enrol(tokens, agent).body["node_id"]
    with pytest.raises(ConnectionBlocked):
        coord.relay(node_id, "mgmt-node", HttpRequest("GET", "/status"), port=22)


def test_relay_denies_unexposed_target(tailnet_world):
    clock, ids, network, tokens, coord, agent = tailnet_world
    node_id = enrol(tokens, agent).body["node_id"]
    with pytest.raises(AuthorizationError):
        coord.relay(node_id, "somewhere-else", HttpRequest("GET", "/status"))


def test_relay_denies_unknown_node(tailnet_world):
    clock, ids, network, tokens, coord, agent = tailnet_world
    with pytest.raises(AuthenticationError):
        coord.relay("tnode-9999", "mgmt-node", HttpRequest("GET", "/status"))


def test_node_key_expiry_forces_reenrol(tailnet_world):
    clock, ids, network, tokens, coord, agent = tailnet_world
    node_id = enrol(tokens, agent).body["node_id"]
    clock.advance(3700)
    with pytest.raises(AuthenticationError):
        coord.relay(node_id, "mgmt-node", HttpRequest("GET", "/status"))
    node_id2 = enrol(tokens, agent).body["node_id"]
    assert coord.relay(node_id2, "mgmt-node", HttpRequest("GET", "/status")).ok


def test_disable_node_kill_switch(tailnet_world):
    clock, ids, network, tokens, coord, agent = tailnet_world
    node_id = enrol(tokens, agent).body["node_id"]
    coord.disable_node(node_id)
    with pytest.raises(AuthenticationError):
        coord.relay(node_id, "mgmt-node", HttpRequest("GET", "/status"))


def test_whole_tailnet_kill_switch(tailnet_world):
    clock, ids, network, tokens, coord, agent = tailnet_world
    node_id = enrol(tokens, agent).body["node_id"]
    coord.kill_tailnet()
    with pytest.raises(KillSwitchActive):
        coord.relay(node_id, "mgmt-node", HttpRequest("GET", "/status"))
    assert enrol(tokens, agent).status == 403
    coord.restore_tailnet()
    assert coord.relay(node_id, "mgmt-node", HttpRequest("GET", "/status")).ok


def test_mgmt_node_unreachable_from_internet(tailnet_world):
    """The management zone is not reachable except through the tailnet
    relay — the segmentation property behind user story 5."""
    clock, ids, network, tokens, coord, agent = tailnet_world
    with pytest.raises(ConnectionBlocked):
        agent.call("mgmt-node", HttpRequest("GET", "/status"))


def test_tailnet_accessors_and_resume_operation():
    dri = build_isambard(seed=135)
    result = dri.workflows.story5_privileged_operation(
        "ops1", operation="drain_node", target="gh-0005")
    assert result.ok
    assert not dri.pool.node("gh-0005").up
    node = dri.tailnet.node(str(result.data["node_id"]))
    assert node is not None and node.hostname == "ops1-laptop"
    assert len(dri.tailnet.acl.rules()) >= 2

    resumed = dri.workflows.story5_privileged_operation(
        "ops1", operation="resume_node", target="gh-0005")
    assert resumed.ok
    assert dri.pool.node("gh-0005").up
