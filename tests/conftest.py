"""Shared fixtures: a minimal network, a password OIDC provider, an RP app,
and the one reader/writer of the recorded outputs under ``golden/``."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.audit import AuditLog
from repro.clock import SimClock
from repro.ids import IdFactory
from repro.net import HttpRequest, HttpResponse, Network, OperatingDomain, Service, Zone, route
from repro.oidc import OidcProvider, RelyingParty, UserAgent, make_url

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str, value):
    """What ``golden/<name>`` records.  With ``REGEN_GOLDEN`` set, ``value``
    is recorded there first — called, when it is a function, so a costly
    recording runs only then.  A ``.json`` file holds JSON (sorted keys,
    one-space indent, UTF-8 as written); any other file holds the text."""
    path = GOLDEN / name
    if os.environ.get("REGEN_GOLDEN"):
        value = value() if callable(value) else value
        path.write_text(value if isinstance(value, str) else json.dumps(
            value, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    return json.loads(text) if name.endswith(".json") else text


def capture_ingest(soc) -> list:
    """Every record ``soc.ingest_batch`` receives from now on, in arrival
    order (the SOC itself keeps none)."""
    received = []
    ingest = soc.ingest_batch

    def capturing(records):
        received.extend(records)
        return ingest(records)

    soc.ingest_batch = capturing
    return received


class PasswordProvider(OidcProvider):
    """Smallest possible concrete provider: username/password login."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.users = {}

    def add_user(self, username, password, **claims):
        self.users[username] = (password, dict(claims))

    @route("POST", "/login")
    def login(self, request: HttpRequest) -> HttpResponse:
        from repro.errors import AuthenticationError

        username = str(request.body.get("username", ""))
        password = str(request.body.get("password", ""))
        entry = self.users.get(username)
        if entry is None or entry[0] != password:
            raise AuthenticationError("bad credentials")
        session = self.create_session(username, entry[1], amr=["pwd"])
        return self.set_session_cookie(
            HttpResponse.json({"authenticated": True}), session
        )


class CallbackApp(Service):
    """A relying-party web app with a /callback route completing the flow."""

    def __init__(self, name, provider_endpoint, client_cfg, clock, ids):
        super().__init__(name)
        self.rp = RelyingParty(self, provider_endpoint, client_cfg, clock, ids)
        self.last_tokens = None
        self.redirect_uri = make_url(name, "/callback")

    def begin(self, scope="openid profile"):
        return self.rp.begin(self.redirect_uri, scope=scope)

    @route("GET", "/callback")
    def callback(self, request: HttpRequest) -> HttpResponse:
        if "error" in request.query:
            return HttpResponse.json({"error": request.query["error"]}, status=400)
        self.last_tokens = self.rp.redeem(
            request.query.get("code", ""), request.query.get("state", "")
        )
        return HttpResponse.json(
            {"ok": True, "sub": self.last_tokens["id_claims"]["sub"]}
        )


@pytest.fixture()
def sim():
    """A tiny world: clock, ids, network with EXTERNAL->FDS opened."""
    clock = SimClock(start=1_000.0)
    ids = IdFactory(seed=7)
    network = Network(clock, audit=AuditLog("net"))
    network.firewall.allow(
        "internet-to-fds",
        src_domain=OperatingDomain.EXTERNAL,
        dst_domain=OperatingDomain.FDS,
        port=443,
    )
    return clock, ids, network


class BrokerWorld:
    """A wired mini-deployment: IdPs + broker + portal + user agent.

    Exposes helpers that mirror how users actually drive the system, so
    story-style tests stay readable.
    """

    def __init__(self, seed: int = 7):
        from repro.broker import IdentityBroker, RbacTokenValidator
        from repro.federation import (
            CloudAdminIdP,
            InstitutionalIdP,
            LastResortIdP,
            MyAccessID,
        )
        from repro.federation.directory import (
            ShardedAccountRegistry,
            ShardedMetadataStore,
        )
        from repro.portal import UserPortal

        self.clock = SimClock(start=1_000.0)
        self.ids = IdFactory(seed=seed)
        self.audit = AuditLog("world")
        self.network = Network(self.clock, audit=self.audit)
        fw = self.network.firewall
        fw.allow("internet-to-fds", src_domain=OperatingDomain.EXTERNAL,
                 dst_domain=OperatingDomain.FDS, port=443)
        fw.allow("internet-to-external", src_domain=OperatingDomain.EXTERNAL,
                 dst_domain=OperatingDomain.EXTERNAL, port=443)
        fw.allow("fds-to-external-idps", src_domain=OperatingDomain.FDS,
                 dst_domain=OperatingDomain.EXTERNAL, port=443)

        self.idp = InstitutionalIdP(
            "idp-bristol", "https://idp.bristol.ac.uk", self.clock, self.ids,
            audit=self.audit,
        )
        self.idp.add_user("alice", "pw-alice", "Alice Smith", "alice@bristol.ac.uk")
        self.idp.add_user("bob", "pw-bob", "Bob Jones", "bob@bristol.ac.uk")
        self.edugain = ShardedMetadataStore(self.clock, shards=1)
        self.edugain.register_idp(self.idp, federation="UKAMF",
                                  display_name="University of Bristol")
        self.myaccessid = MyAccessID(
            "myaccessid", self.clock, self.ids, self.edugain,
            ShardedAccountRegistry(self.clock, self.ids, shards=1),
            audit=self.audit)
        self.lastresort = LastResortIdP("idp-lastresort", self.clock, self.ids,
                                        audit=self.audit)
        self.admin_idp = CloudAdminIdP("idp-admin", self.clock, self.ids,
                                       audit=self.audit)
        self.broker = IdentityBroker("broker", self.clock, self.ids, audit=self.audit)

        cb = make_url("broker", "/login/callback")
        for upstream_id, label, provider, kind in [
            ("myaccessid", "University Login (MyAccessID)", self.myaccessid, "federated"),
            ("lastresort", "Isambard Account (Identity of Last Resort)",
             self.lastresort, "lastresort"),
            ("admin", "Isambard Team (Administrators)", self.admin_idp, "admin"),
        ]:
            cfg = provider.register_client(
                f"isambard-broker-{upstream_id}", [cb], confidential=True
            )
            self.broker.add_upstream(upstream_id, label, provider.name, cfg, kind=kind)

        validator = RbacTokenValidator(
            self.clock, self.broker.issuer, "portal",
            self.broker.jwks, self.broker.tokens.is_revoked,
        )
        self.portal = UserPortal(
            "portal", self.clock, self.ids, validator,
            audit=self.audit,
            on_revoke=lambda uid, project, account:
                self.broker.revoke_user_access(uid, project),
        )

        self.network.attach(self.idp, OperatingDomain.EXTERNAL, Zone.INTERNET)
        self.network.attach(self.myaccessid, OperatingDomain.EXTERNAL, Zone.INTERNET)
        self.network.attach(self.lastresort, OperatingDomain.FDS, Zone.ACCESS)
        self.network.attach(self.admin_idp, OperatingDomain.FDS, Zone.ACCESS)
        self.network.attach(self.broker, OperatingDomain.FDS, Zone.ACCESS)
        self.network.attach(self.portal, OperatingDomain.FDS, Zone.ACCESS)

        self.agent = self.new_agent("laptop")

    # -- helpers ---------------------------------------------------------
    def new_agent(self, name):
        agent = UserAgent(name)
        self.network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
        return agent

    def federated_login(self, agent=None, username="alice", password="pw-alice"):
        """Full Fig.2 -> MyAccessID -> institutional IdP -> broker dance."""
        agent = agent or self.agent
        resp, final = agent.get(
            make_url("broker", "/login/start", idp="myaccessid", accept_terms="true")
        )
        if resp.status == 401 and resp.body.get("login_required"):
            idp_resp, _ = agent.post(
                make_url("idp-bristol", "/login"),
                {"username": username, "password": password,
                 "sp": self.myaccessid.entity_id},
            )
            if not idp_resp.ok:
                return idp_resp
            assert_resp, _ = agent.post(
                make_url("myaccessid", "/assert"),
                {"entity_id": self.idp.entity_id,
                 "assertion": idp_resp.body["assertion"]},
            )
            if not assert_resp.ok:
                return assert_resp
            resp, final = agent.get(final)  # resume the authorize request
        return resp

    def admin_login(self, agent, username, password, device):
        resp, _ = agent.get(
            make_url("broker", "/login/start", idp="admin", accept_terms="true")
        )
        if resp.status == 401 and resp.body.get("login_required"):
            r1, _ = agent.post(make_url("idp-admin", "/login"),
                               {"username": username, "password": password})
            if not r1.ok:
                return r1
            challenge = bytes.fromhex(r1.body["challenge"])
            r2, _ = agent.post(
                make_url("idp-admin", "/login/mfa"),
                {"username": username, "assertion": device.sign_challenge(challenge)},
            )
            if not r2.ok:
                return r2
            resp, _ = agent.get(
                make_url("broker", "/login/start", idp="admin", accept_terms="true")
            )
        return resp

    def mint(self, agent, audience, role, project=None, ttl=None):
        body = {"audience": audience, "role": role}
        if project:
            body["project"] = project
        if ttl:
            body["ttl"] = ttl
        resp, _ = agent.post(make_url("broker", "/tokens"), body)
        return resp

    def onboard_allocator(self, username="alloc1"):
        """Create an approved allocator admin; returns (agent, device)."""
        from repro.federation import HardwareKey

        agent = self.new_agent(f"{username}-laptop")
        code = self.admin_idp.invite_admin(
            f"{username}@bristol.ac.uk", invited_by="bootstrap"
        )
        device = HardwareKey(f"hwk-{username}")
        self.admin_idp.enrol_hardware_key(device)
        agent.post(
            make_url("idp-admin", "/register"),
            {"invite_code": code, "username": username,
             "password": "p" * 20, "device_id": device.device_id},
        )
        self.admin_idp.approve_admin(username, approver="bootstrap")
        from repro.broker import Role

        self.broker.grant_admin_role(f"idp-admin:{username}", Role.ALLOCATOR)
        return agent, device

    def create_project(self, pi_email="alice@bristol.ac.uk", name="proj-llm",
                       gpu_hours=1000.0, duration=90 * 24 * 3600.0):
        """Allocator creates a project; returns (project_id, pi_invite_code)."""
        agent, device = self.onboard_allocator()
        login = self.admin_login(agent, "alloc1", "p" * 20, device)
        assert login.ok, login.body
        token = self.mint(agent, "portal", "allocator").body["token"]
        resp, _ = agent.post(
            make_url("portal", "/projects"),
            {"name": name, "pi_email": pi_email, "gpu_hours": gpu_hours,
             "duration": duration},
            headers={"Authorization": f"Bearer {token}"},
        )
        assert resp.ok, resp.body
        return resp.body["project_id"], resp.body["invite_code"]

    def accept_invitation(self, agent, code, preferred="alice"):
        """Login (as invitee) and redeem an invitation; then re-login to
        refresh roles.  Returns the acceptance response."""
        token_resp = self.mint(agent, "portal", "invitee")
        assert token_resp.ok, token_resp.body
        resp, _ = agent.post(
            make_url("portal", "/invitations/accept"),
            {"code": code, "preferred_username": preferred},
            headers={"Authorization": f"Bearer {token_resp.body['token']}"},
        )
        return resp


@pytest.fixture()
def world():
    return BrokerWorld()


@pytest.fixture()
def real_crypto(monkeypatch):
    """``(signs, verifies)``: Counters, by ``kid``, of the asymmetric
    signatures really computed and really checked from here on, across
    every key object.  An answer from a key's memo of verified pairs, or
    an issuer recognising a token it minted, runs no maths and counts as
    nothing.  Every user and host SSH key is ``user-ssh-key``."""
    from collections import Counter

    from repro.crypto.keys import SigningKey, VerifyingKey

    signs, verifies = Counter(), Counter()
    sign, check = SigningKey.sign, VerifyingKey._check

    def counting_sign(self, data):
        signs[self.kid] += 1
        return sign(self, data)

    def counting_check(self, data, signature):
        verifies[self.kid] += 1
        return check(self, data, signature)

    monkeypatch.setattr(SigningKey, "sign", counting_sign)
    monkeypatch.setattr(VerifyingKey, "_check", counting_check)
    return signs, verifies


@pytest.fixture()
def oidc_world(sim):
    """Provider + RP app + user agent, wired and registered."""
    clock, ids, network = sim
    provider = PasswordProvider("op", clock, ids)
    provider.add_user("alice", "pw-alice", name="Alice", email="alice@example.org")
    app = CallbackApp.__new__(CallbackApp)  # construct after client registration
    client_cfg = provider.register_client(
        "app-client", [make_url("app", "/callback")]
    )
    CallbackApp.__init__(app, "app", "op", client_cfg, clock, ids)
    agent = UserAgent("laptop")
    network.attach(provider, OperatingDomain.FDS, Zone.ACCESS)
    network.attach(app, OperatingDomain.FDS, Zone.ACCESS)
    network.attach(agent, OperatingDomain.EXTERNAL, Zone.INTERNET)
    return clock, ids, network, provider, app, agent


@pytest.fixture()
def hop_counts(monkeypatch):
    """A Counter of what the transport and its observers did from here
    on, across every instance: ``hops`` (``Network.request``), ``audit``
    (``AuditLog.emit``), ``spans`` (``SpanStore.add``), ``ids``
    (``IdFactory.next``/``secret``/``jti`` calls, as ``perf/``'s
    ``ids.calls`` counts them: a ``jti`` is three), ``json``
    (``json.dumps``/``loads`` calls) and the W3C header codec,
    ``from_traceparent`` and ``inject`` — which in-process hops never
    run."""
    from collections import Counter

    from repro.telemetry import SpanStore, TraceContext

    counts = Counter()

    def count(owner, name, key):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(Network, "request", "hops")
    count(AuditLog, "emit", "audit")
    count(SpanStore, "add", "spans")
    count(TraceContext, "inject", "inject")
    for name in ("next", "secret", "jti"):
        count(IdFactory, name, "ids")
    for name in ("dumps", "loads"):
        count(json, name, "json")
    parse = TraceContext.from_traceparent.__func__

    def counting_parse(cls, *args, **kwargs):
        counts["from_traceparent"] += 1
        return parse(cls, *args, **kwargs)

    monkeypatch.setattr(TraceContext, "from_traceparent",
                        classmethod(counting_parse))
    return counts
