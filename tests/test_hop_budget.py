"""A hop budget per story: messages, audit records, spans — exact.

Every message is a firewall verdict, an audit record, two spans and three
metric samples (tenet 7: observe everything), so what a story costs in
messages is what it costs to observe.  The counts are pinned here as
literals, next to ``test_crypto_budget.py``, one line of reason per hop:
a change that adds a hop, an audit record or a span to a story has to
edit this file and say why.

``hops`` are ``Network.request`` calls (delivered or not), ``audit`` every
record emitted into any log, ``spans`` every span opened, ``ids`` the
``IdFactory`` calls (a ``jti`` is three: itself, ``next`` and ``secret``),
``json`` the ``json.dumps``/``loads`` calls and the compact encoder's
(a JWT's claims; its protected header is encoded once per key and parsed
once per segment, so a header costs nothing here), ``journal`` the
write-ahead appends by kind (none on a default build: it journals
nothing).
The W3C header codec (``TraceContext.from_traceparent``/``inject``) never
runs on a story: between the hops of one process the trace position is an
object on the request.
"""

from collections import Counter

import pytest

from repro.core import build_isambard
from repro.net import HttpRequest
from repro.resilience import ServiceJournal
from tests.test_deployment_fingerprint import OPT_IN


@pytest.fixture(scope="module", params=["default", "all-tiers"])
def deployment(request):
    """One onboarded researcher on a default or an all-tiers build, logs
    shipped; yields ``(build name, dri, project id)``."""
    flags = {flag: True for flag in OPT_IN} \
        if request.param == "all-tiers" else {}
    dri = build_isambard(seed=31, **flags)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi", project_name="budget")
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    assert wf.story3_researcher_setup(project_id, "pi", "res1").ok
    dri.ship_logs()
    return request.param, dri, project_id


@pytest.fixture()
def spent(hop_counts, monkeypatch):
    """``spent(op)`` runs ``op`` and returns what it cost, codec calls
    (always zero) and journal appends by kind included."""
    journal = Counter()
    append = ServiceJournal.append

    def counting(self, kind, data, **kwargs):
        journal[kind] += 1
        return append(self, kind, data, **kwargs)

    monkeypatch.setattr(ServiceJournal, "append", counting)

    def run(op):
        hop_counts.clear()
        journal.clear()
        op()
        return {**{key: hop_counts[key] for key in
                   ("hops", "audit", "spans", "ids", "json",
                    "from_traceparent", "inject")},
                "journal": dict(journal)}

    return run


def _budget(hops, audit, spans, ids, json, journal=None):
    return {"hops": hops, "audit": audit, "spans": spans, "ids": ids,
            "json": json, "from_traceparent": 0, "inject": 0,
            "journal": journal or {}}


def test_relogin(deployment, spent):
    build, dri, _ = deployment
    wf = dri.workflows
    cost = spent(lambda: wf.relogin(wf.personas["res1"]))
    assert cost == {
        # device → broker /login/start, → MyAccessID /authorize (session
        # still live there), → broker /login/callback, which redeems the
        # code at MyAccessID /token and asks the portal /authz: 5 hops.
        # One delivery record each, MyAccessID's code + token, the
        # broker's session + login.success.  A root span, then a client
        # and a server span per hop.
        # ids: the broker's state, nonce and PKCE verifier, MyAccessID's
        # code, the broker's session id, the tokens' jti (next + secret).
        # json: MyAccessID's two JWTs' claims, the session record's amr
        # list; the claims of the id token at the broker and of the
        # broker's service token at the portal /authz (9 → 5: two headers
        # no longer encoded, two no longer parsed)
        "default": _budget(hops=5, audit=9, spans=11, ids=8, json=5),
        # both device → broker hops go geo-router → region front →
        # replica: 2 more hops each, a delivery record and two spans per
        # extra hop; the portal's token validation is a cache hit (7 → 4:
        # two headers encoded and one parsed fewer)
        "all-tiers": _budget(hops=9, audit=13, spans=19, ids=8, json=4, journal={
            # every record, in the log it lands in
            "audit.emit": 13,
            # (no fw.accept: a forwarder is a position in its log and
            # journals once per shipped batch, not per record)
            # the broker's new SSO session; MyAccessID journals nothing
            "oidc.session": 1}),
    }[build]


def test_ssh_session_first_and_second(deployment, spent):
    build, dri, _ = deployment
    wf = dri.workflows
    first = {
        # device → broker /ssh/certificate → portal /authz and SSH CA
        # /sign, then ssh: device → bastion → login node.  The SSH legs
        # are not HTTP flows and carry no trace: root + 2 × 3 spans.
        # Five deliveries, the CA service token's rbac.mint, ca.sign,
        # ssh.cert_issued, the bastion's ssh.connect, the node's session.
        # ids: the CA service token's jti.  json: that token's claims, the
        # certificate's canonical form signed, put on the wire and checked
        # by the bastion and the node (4), two audit list attrs; the
        # claims of two RBAC token checks, at the portal /authz and the CA
        # /sign, the certificate parsed by the bastion and the node (2)
        # (14 → 11: one header encoded and two parsed fewer)
        "default": _budget(hops=5, audit=10, spans=7, ids=3, json=11),
        # the certificate request crosses geo-router → front → replica;
        # one service-token validation is a cache hit (12 → 10: one header
        # encoded and one parsed fewer)
        "all-tiers": _budget(hops=7, audit=12, spans=11, ids=3, json=10, journal={
            "audit.emit": 12,
            # (no fw.accept: the forwarders read the logs at flush time)
            # the broker's service token for the CA, the CA's signature
            "rbac.mint": 1, "ca.sign": 1}),
    }[build]
    second = {
        # the broker presents the CA service token it holds (more than
        # 30 s of its 60 s to run): no rbac.mint record, no jti, no
        # token encoded (1) (12 → 10: two headers parsed fewer)
        "default": _budget(hops=5, audit=9, spans=7, ids=0, json=10),
        # and the CA's check of those bytes is a cache hit too (1)
        "all-tiers": _budget(hops=7, audit=11, spans=11, ids=0, json=8, journal={
            "audit.emit": 11,
            # (no fw.accept: the forwarders read the logs at flush time)
            "ca.sign": 1}),
    }[build]
    assert spent(lambda: wf.story4_ssh_session("res1")) == first
    # a remembered host certificate saves a signature check, not a message
    assert spent(lambda: wf.story4_ssh_session("res1")) == second


def test_jupyter_notebook(deployment, spent):
    build, dri, _ = deployment
    wf = dri.workflows
    cost = spent(lambda: wf.story6_jupyter("res1"))
    assert cost == {
        # device → edge (which tunnels to Zenith: a span, not a hop),
        # → broker /authorize, → zenith /callback [discovery, jwks,
        # /token, /tokens → portal /authz], → zenith /app → jupyter →
        # broker /introspect: 11 hops.  Eleven deliveries, the broker's
        # code + token, rbac.mint, zenith.route, jupyter.spawn.  Root +
        # tunnel + 2 × 11 spans.
        # ids: Zenith's state, nonce and verifier and its session cookie,
        # the broker's code, two jti (3 each), the notebook id.
        # json: three JWTs' claims; five validations' claims (16 → 8:
        # three headers encoded and five parsed fewer)
        "default": _budget(hops=11, audit=16, spans=24, ids=12, json=8),
        # six of the eleven are hops to the broker, each two hops longer;
        # the regional introspection is one record more; one validation
        # is a cache hit (14 → 7: three headers encoded and four parsed
        # fewer)
        "all-tiers": _budget(hops=23, audit=29, spans=48, ids=12, json=7, journal={
            "audit.emit": 29,
            # (no fw.accept: the forwarders read the logs at flush time)
            # the broker, as Zenith's provider: the code, its redemption
            "oidc.code": 1, "oidc.tokens_issued": 1,
            # Zenith's RBAC token, fenced by its region: intent, commit
            "rbac.mint": 1, "region.mint.intent": 1, "region.mint": 1}),
    }[build]


def test_mint_then_introspect(deployment, spent):
    build, dri, project_id = deployment
    wf = dri.workflows
    persona = wf.personas["res1"]

    def op():
        minted = wf.mint(persona, "jupyter", "researcher", project=project_id)
        assert minted.ok, minted.body
        resp = persona.agent.call("broker", HttpRequest(
            "POST", "/introspect", body={"token": minted.body["token"]}))
        assert resp.body["active"] is True

    assert spent(op) == {
        # device → broker /tokens → portal /authz, then /introspect sent
        # outside any flow: a hop, untraced.  Three deliveries and the
        # rbac.mint; root + 2 × 2 spans for the mint.
        # ids: the token's jti.  json: the JWT's claims; the claims of the
        # device's access token at the broker and of the service token at
        # the portal (6 → 3: one header encoded and two parsed fewer)
        "default": _budget(hops=3, audit=4, spans=5, ids=3, json=3),
        # both broker hops are two longer (the untraced one adds no
        # span) and the region records its introspection; the portal's
        # validation is a cache hit (4 → 2: one header encoded and one
        # parsed fewer)
        "all-tiers": _budget(hops=7, audit=9, spans=9, ids=3, json=2, journal={
            "audit.emit": 9,
            # (no fw.accept: the forwarders read the logs at flush
            # time); introspection journals nothing
            "rbac.mint": 1, "region.mint.intent": 1, "region.mint": 1}),
    }[build]
