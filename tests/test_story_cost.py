"""What each story costs, exact: one row per story and build.

The paper puts every access on short-lived signed tokens (§III) and
asks that every access be observed (NIST SP 800-207 tenet 7), so a
story's price is counted in both: the real Ed25519 operations it runs,
by key, and the messages it sends, each one a firewall verdict, an audit
record, two spans and three metric samples.  ``COST[story][build]`` pins
every count as a literal, one line of reason per literal: a change that
adds a signature, a hop, a record or a frame to a story has to edit this
table and say why.

- ``signs``/``verifies``: the maths really ran, by ``kid``.  An answer
  from a key's memo of verified pairs, or an issuer recognising a token
  it minted itself, is not counted; every user and host SSH key is
  ``user-ssh-key``.
- ``hops`` are ``Network.request`` calls (delivered or not), ``audit``
  every record emitted into any log, ``spans`` every span opened,
  ``ids`` the ``IdFactory`` calls (a ``jti`` is three: itself, ``next``
  and ``secret``), ``json`` the ``json.dumps``/``loads`` calls and the
  compact encoder's (a JWT's claims; its protected header is encoded once
  per key and parsed once per segment, so a header costs nothing here),
  ``journal`` the write-ahead appends by kind (none on a default build:
  it journals nothing).
- ``frames`` is a cap, not a count: the Python frames entered in ``src/``
  code, read off ``sys.setprofile`` call events less the ``<...>`` bodies
  (comprehensions, which 3.12 inlines).  The count is deterministic, so a
  change that adds per-hop work shows here before any wall-clock does.

The W3C header codec (``TraceContext.from_traceparent``/``inject``) never
runs on a story: between the hops of one process the trace position is an
object on the request.  Each story runs once per build, in the table's
order (ship logs last: it runs out the held SVID); three tests read it.
"""

import sys
from collections import Counter
from operator import itemgetter
from pathlib import Path

import pytest

from repro.audit import Outcome
from repro.core import build_isambard
from repro.net import HttpRequest
from repro.resilience import ServiceJournal
from tests.test_deployment_fingerprint import OPT_IN

SRC = str(Path(__file__).resolve().parents[1] / "src")
SIGNS = itemgetter("signs", "verifies")
SENDS = itemgetter("hops", "audit", "spans", "ids", "json", "journal")


def _cell(signs, verifies, hops, audit, spans, ids, json, frames,
          journal=None):
    return {"signs": signs, "verifies": verifies, "hops": hops,
            "audit": audit, "spans": spans, "ids": ids, "json": json,
            "journal": journal or {}, "frames": frames}


def _mint_then_introspect(revoke):
    def story(dri, project_id):
        persona = dri.workflows.personas["res1"]

        def op():
            minted = dri.workflows.mint(persona, "jupyter", "researcher",
                                        project=project_id)
            assert minted.ok, minted.body
            if revoke:
                assert dri.broker.tokens.revoke_jti(str(minted.body["jti"]))
            resp = persona.agent.call("broker", HttpRequest(
                "POST", "/introspect", body={"token": minted.body["token"]}))
            assert resp.body["active"] is (not revoke)
        return op
    return story


def _ship_logs(advance):
    def story(dri, _):
        # one record in the FDS log, so its forwarder's flush presents
        # the shipper's RBAC token and its SVID to the SOC
        dri.clock.advance(advance(dri))
        log = dri.logs["fds"]

        def op():
            log.record(dri.clock.now(), "test", "system", "test.note", "-",
                       Outcome.INFO)
            dri.ship_logs()
        return op
    return story


def _run(name, persona=False):
    def story(dri, _):
        wf = dri.workflows

        def op():
            assert getattr(wf, name)(
                wf.personas["res1"] if persona else "res1").ok
        return op
    return story


STORIES = {
    "relogin": _run("relogin", persona=True),
    "ssh-first": _run("story4_ssh_session"),
    # a remembered host certificate saves a signature check, not a message
    "ssh-second": _run("story4_ssh_session"),
    "notebook": _run("story6_jupyter"),
    "mint-introspect": _mint_then_introspect(revoke=False),
    "mint-revoke-introspect": _mint_then_introspect(revoke=True),
    # the held shipper token and the held SVID have both run out
    "ship-logs-expired": _ship_logs(lambda dri: dri.spire.svid_ttl),
    "ship-logs-held": _ship_logs(lambda dri: 1.0),
}

COST = {
    "relogin": {
        # MyAccessID signs the access token and the ID token of the code
        # grant; the broker, its relying party, verifies the ID token, and
        # its /authz service token is inside its TTL and in the portal's
        # key memo.
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
        # frames: 446 → 442; each mint and each validation enters one
        # b64url_* frame fewer (the header is encoded once per key and
        # parsed once per segment)
        "default": _cell({"myaccessid-k1": 2}, {"myaccessid-k1": 1},
                         hops=5, audit=9, spans=11, ids=8, json=5,
                         frames=442),
        # the tiers add hops, not signatures: every all-tiers cell signs
        # and checks what the default one does.
        # both device → broker hops go geo-router → region front →
        # replica: 2 more hops each, a delivery record and two spans per
        # extra hop; the portal's token validation is a cache hit (7 → 4:
        # two headers encoded and one parsed fewer)
        # frames: 1021 → 1018; the same, for two mints and one validation
        # (one is cached)
        "all-tiers": _cell({"myaccessid-k1": 2}, {"myaccessid-k1": 1},
                           hops=9, audit=13, spans=19, ids=8, json=4,
                           frames=1018, journal={
            # every record, in the log it lands in
            "audit.emit": 13,
            # (no fw.accept: a forwarder is a position in its log and
            # journals once per shipped batch, not per record)
            # the broker's new SSO session; MyAccessID journals nothing
            "oidc.session": 1}),
    },
    "ssh-first": {
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
        # frames: 491, 54 over the second session: the service token's
        # mint and the CA's first check of it
        "default": _cell({
            "broker-k1": 1,       # the broker's 60 s service token for the CA
            "ssh-ca-ca-key": 1,   # the CA signs the user certificate
            "user-ssh-key": 2,    # the user's proof, the login node's proof
        }, {
            "broker-k1": 1,       # the CA: first sight of that service token
            "ssh-ca-ca-key": 2,   # sshd: the user certificate; client: the host's
            "user-ssh-key": 2,    # sshd: the user's proof; client: the host's proof
        }, hops=5, audit=10, spans=7, ids=3, json=11, frames=491),
        # the certificate request crosses geo-router → front → replica;
        # one service-token validation is a cache hit (12 → 10: one header
        # encoded and one parsed fewer)
        # frames: 945; two more hops, through a region front
        "all-tiers": _cell(
            {"broker-k1": 1, "ssh-ca-ca-key": 1, "user-ssh-key": 2},
            {"broker-k1": 1, "ssh-ca-ca-key": 2, "user-ssh-key": 2},
            hops=7, audit=12, spans=11, ids=3, json=10, frames=945, journal={
                "audit.emit": 12,
                # (no fw.accept: the forwarders read the logs at flush
                # time) the broker's service token for the CA, the CA's
                # signature
                "rbac.mint": 1, "ca.sign": 1}),
    },
    "ssh-second": {
        # the broker presents the CA service token it holds (more than
        # 30 s of its 60 s to run): no mint, no rbac.mint record, no jti,
        # no token encoded (1), and the CA's key has verified those bytes
        # (12 → 10: two headers parsed fewer)
        # frames: 437, a held token and a remembered host certificate
        "default": _cell({
            "ssh-ca-ca-key": 1,   # a new certificate every session
            "user-ssh-key": 2,
        }, {
            "ssh-ca-ca-key": 1,   # the client has verified this host certificate
            "user-ssh-key": 2,    # proofs are never remembered: the challenge is static
        }, hops=5, audit=9, spans=7, ids=0, json=10, frames=437),
        # and the CA's check of those bytes is a cache hit too (1)
        # frames: 850, 95 under the first: the mint, and the check cached
        "all-tiers": _cell(
            {"ssh-ca-ca-key": 1, "user-ssh-key": 2},
            {"ssh-ca-ca-key": 1, "user-ssh-key": 2},
            hops=7, audit=11, spans=11, ids=0, json=8, frames=850, journal={
                "audit.emit": 11,
                # (no fw.accept: the forwarders read the logs at flush time)
                "ca.sign": 1}),
    },
    "notebook": {
        # Zenith's code grant (access + ID token), then the RBAC token it
        # mints for Jupyter with that access token as bearer.  Zenith
        # verifies the ID token, Jupyter the RBAC token: one relying party
        # each.  The broker is shown its own access token (bearer /tokens)
        # and its own RBAC token (/introspect) and checks neither.
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
        # frames: 1081, the longest story: eleven hops, three mints
        "default": _cell({"broker-k1": 3}, {"broker-k1": 2},
                         hops=11, audit=16, spans=24, ids=12, json=8,
                         frames=1081),
        # six of the eleven are hops to the broker, each two hops longer;
        # the regional introspection is one record more; one validation
        # is a cache hit (14 → 7: three headers encoded and four parsed
        # fewer)
        # frames: 2676; twelve more hops, each through a region front
        "all-tiers": _cell({"broker-k1": 3}, {"broker-k1": 2},
                           hops=23, audit=29, spans=48, ids=12, json=7,
                           frames=2676, journal={
            "audit.emit": 29,
            # (no fw.accept: the forwarders read the logs at flush time)
            # the broker, as Zenith's provider: the code, its redemption
            "oidc.code": 1, "oidc.tokens_issued": 1,
            # Zenith's RBAC token, fenced by its region: intent, commit
            "rbac.mint": 1, "region.mint.intent": 1, "region.mint": 1}),
    },
    "mint-introspect": {
        # the RBAC token, shown back to the broker that minted it.
        # device → broker /tokens → portal /authz, then /introspect sent
        # outside any flow: a hop, untraced.  Three deliveries and the
        # rbac.mint; root + 2 × 2 spans for the mint.
        # ids: the token's jti.  json: the JWT's claims; the claims of the
        # device's access token at the broker and of the service token at
        # the portal (6 → 3: one header encoded and two parsed fewer)
        # frames: 257; three hops and one mint
        "default": _cell({"broker-k1": 1}, {},
                         hops=3, audit=4, spans=5, ids=3, json=3,
                         frames=257),
        # both broker hops are two longer (the untraced one adds no
        # span) and the region records its introspection; the portal's
        # validation is a cache hit (4 → 2: one header encoded and one
        # parsed fewer)
        # frames: 747; four more hops and the region's fenced mint
        "all-tiers": _cell({"broker-k1": 1}, {},
                           hops=7, audit=9, spans=9, ids=3, json=2,
                           frames=747, journal={
            "audit.emit": 9,
            # (no fw.accept: the forwarders read the logs at flush
            # time); introspection journals nothing
            "rbac.mint": 1, "region.mint.intent": 1, "region.mint": 1}),
    },
    "mint-revoke-introspect": {
        # inactive by the revocation check, not by the maths.  The
        # messages of mint → introspect, and the rbac.revoke record
        # frames: 275; the revocation's 18 over mint → introspect
        "default": _cell({"broker-k1": 1}, {},
                         hops=3, audit=5, spans=5, ids=3, json=3,
                         frames=275),
        # the same, and the revocation's journal entry (the bus eviction
        # is a call, not a hop)
        # frames: 790; 43 over mint → introspect, the commit included
        "all-tiers": _cell({"broker-k1": 1}, {},
                           hops=7, audit=10, spans=9, ids=3, json=2,
                           frames=790, journal={
            "audit.emit": 10, "rbac.revoke": 1,
            "rbac.mint": 1, "region.mint.intent": 1, "region.mint": 1}),
    },
    "ship-logs-expired": {
        # the shipper's 120 s token for the SOC, and a fresh SVID; the
        # SOC: first sight of the token, and of the SVID.
        # One untraced hop, forwarder → SOC: its delivery record and the
        # note; the token's jti (an infrastructure mint audits nothing).
        # json: the token's claims and the SVID's two encodings at issue;
        # the SOC parses the token's claims, parses and re-encodes the
        # SVID's (the batch crosses in-process, unencoded)
        # frames: 164, 40 over a held flush: the token and the SVID
        "default": _cell({"broker-k1": 1, "spire-isambard.example": 1},
                         {"broker-k1": 1, "spire-isambard.example": 1},
                         hops=1, audit=2, spans=0, ids=3, json=6,
                         frames=164),
        # the mint is journaled as one, and the forwarder's batch
        # frames: 235, the same flush through the tiers' journals
        "all-tiers": _cell({"broker-k1": 1, "spire-isambard.example": 1},
                           {"broker-k1": 1, "spire-isambard.example": 1},
                           hops=1, audit=2, spans=0, ids=3, json=6,
                           frames=235, journal={
            "audit.emit": 2, "rbac.mint": 1, "fw.flush": 1}),
    },
    "ship-logs-held": {
        # the shipper presents the token and the SVID it holds; the SOC's
        # keys have verified those bytes.  Was one spire signature and one
        # verification: an SVID was issued per flush, and the log shipper
        # now holds its SVID until half its lifetime has passed.
        # json: the SOC parses the token's claims, parses and re-encodes
        # the SVID's
        # frames: 124; one hop, nothing signed
        "default": _cell({}, {}, hops=1, audit=2, spans=0, ids=0, json=3,
                         frames=124),
        # the SOC's token validation is a cache hit (3 → 2)
        # frames: 170, the same flush through the tiers' journals
        "all-tiers": _cell({}, {}, hops=1, audit=2, spans=0, ids=0, json=2,
                           frames=170, journal={
            "audit.emit": 2, "fw.flush": 1}),
    },
}


@pytest.fixture(scope="module", params=["default", "all-tiers"])
def deployment(request):
    """One onboarded researcher on a default or an all-tiers build, logs
    shipped; yields ``(build name, dri, project id, costs so far)``."""
    flags = dict.fromkeys(OPT_IN, True) if request.param == "all-tiers" else {}
    dri = build_isambard(seed=31, **flags)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi", project_name="budget")
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    assert wf.story3_researcher_setup(project_id, "pi", "res1").ok
    dri.ship_logs()
    return request.param, dri, project_id, {}


@pytest.fixture()
def spent(deployment, real_crypto, hop_counts, monkeypatch):
    """``spent(story)``: its cost on this build (the header codec's calls
    must be zero).  The first ask runs every story once, in order."""
    _, dri, project_id, costs = deployment
    signs, verifies = real_crypto
    journal = Counter()
    append = ServiceJournal.append

    def counting(self, kind, data, **kwargs):
        journal[kind] += 1
        return append(self, kind, data, **kwargs)

    monkeypatch.setattr(ServiceJournal, "append", counting)

    def measure(op):
        frames = 0

        def profile(frame, event, arg):
            nonlocal frames
            code = frame.f_code
            frames += (event == "call" and code.co_filename.startswith(SRC)
                       and not code.co_name.startswith("<"))

        for counter in (signs, verifies, hop_counts, journal):
            counter.clear()
        sys.setprofile(profile)
        try:
            op()
        finally:
            sys.setprofile(None)
        assert hop_counts["from_traceparent"] == hop_counts["inject"] == 0
        return {"signs": dict(signs), "verifies": dict(verifies),
                **{key: hop_counts[key] for key in
                   ("hops", "audit", "spans", "ids", "json")},
                "journal": dict(journal), "frames": frames}

    def run(story):
        if not costs:
            costs.update((name, measure(make(dri, project_id)))
                         for name, make in STORIES.items())
        return costs[story]

    return run


@pytest.mark.parametrize("story", STORIES)
def test_a_story_signs_its_row(story, deployment, spent):
    assert SIGNS(spent(story)) == SIGNS(COST[story][deployment[0]])


@pytest.mark.parametrize("story", STORIES)
def test_a_story_sends_its_row(story, deployment, spent):
    assert SENDS(spent(story)) == SENDS(COST[story][deployment[0]])


@pytest.mark.parametrize("story", STORIES)
def test_a_story_enters_at_most_its_src_frames(story, deployment, spent):
    assert spent(story)["frames"] <= COST[story][deployment[0]]["frames"]
