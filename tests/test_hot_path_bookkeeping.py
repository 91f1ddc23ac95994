"""Request-path bookkeeping that must not change a single output.

The login path's per-request bookkeeping (SLO windows, audit attr
coercion, secret minting, signature checks, the portal's ``/authz``
lookup) runs in constant time; every test here pins it against the
straightforward implementation it replaced, kept as a test-only
reference.
"""

import enum
import json
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import AuditLog, Outcome
from repro.broker.rbac import Role
from repro.broker.tokens import RbacTokenValidator, TokenService
from repro.clock import SimClock
from repro.core import build_isambard
from repro.crypto import JwkSet, JwtValidator, encode_jwt
from repro.crypto import keys as keys_module
from repro.crypto.keys import HmacKey, generate_signing_key
from repro.errors import (
    AudienceMismatch,
    SignatureInvalid,
    TokenExpired,
    TokenRevoked,
)
from repro.ids import IdFactory
from repro.net import HttpRequest
from repro.oidc import make_url
from repro.telemetry import SloMonitor
from repro.telemetry.pipeline import PipelineConfig
from repro.telemetry.slo import BurnRateAlert, burn_rate
from tests.conftest import Wiring, capture_ingest


# ---------------------------------------------------------------------------
# SloMonitor: incremental windows == rescanning the whole slow window
# ---------------------------------------------------------------------------
class RescanSloMonitor:
    """The monitor as it was: one deque, two full scans per record."""

    def __init__(self, name, *, service, objective, fast_window, slow_window,
                 threshold, min_events, cooldown):
        self.name, self.service, self.objective = name, service, objective
        self.fast_window, self.slow_window = fast_window, slow_window
        self.threshold, self.min_events = threshold, min_events
        self.cooldown = cooldown
        self._events = deque()
        self._last_alert = None
        self.alerts = []

    def record(self, time, ok):
        self._events.append((time, ok))
        horizon = time - self.slow_window
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()
        alert = self._evaluate(time)
        if alert is not None:
            self.alerts.append(alert)
        return alert

    def error_rate(self, now, window):
        horizon = now - window
        total = errors = 0
        for when, ok in self._events:
            if when >= horizon:
                total += 1
                if not ok:
                    errors += 1
        return errors / total if total else 0.0

    def burn(self, now, window):
        return burn_rate(self.error_rate(now, window), self.objective)

    def _evaluate(self, now):
        if len(self._events) < self.min_events:
            return None
        if self._last_alert is not None and now - self._last_alert < self.cooldown:
            return None
        fast = self.burn(now, self.fast_window)
        slow = self.burn(now, self.slow_window)
        if fast < self.threshold or slow < self.threshold:
            return None
        self._last_alert = now
        return BurnRateAlert(
            time=now, slo=self.name, service=self.service,
            fast_burn=fast, slow_burn=slow, threshold=self.threshold,
            fast_window=self.fast_window, slow_window=self.slow_window,
            events_in_slow_window=len(self._events))


# gaps span "many events per fast window" to "the whole slow window
# drains in one step"; exact repeats (0.0) exercise the >= boundary
_GAPS = st.one_of(st.just(0.0), st.just(10.0), st.floats(0.0, 15.0),
                  st.floats(0.0, 250.0))


@settings(max_examples=150, deadline=None)
@given(
    stream=st.lists(st.tuples(_GAPS, st.booleans()), max_size=120),
    fast_window=st.sampled_from([1.0, 10.0, 30.0]),
    slow_ratio=st.sampled_from([1.5, 4.0, 10.0]),
    threshold=st.sampled_from([0.5, 2.0, 5.0]),
    min_events=st.integers(0, 12),
    cooldown=st.sampled_from([0.0, 7.0, 60.0]),
    probes=st.lists(st.tuples(st.floats(0.0, 120.0), st.floats(0.0, 400.0)),
                    min_size=1, max_size=4),
)
def test_slo_monitor_matches_rescan_reference(
        stream, fast_window, slow_ratio, threshold, min_events, cooldown,
        probes):
    kwargs = dict(service="svc", objective=0.9, fast_window=fast_window,
                  slow_window=fast_window * slow_ratio, threshold=threshold,
                  min_events=min_events, cooldown=cooldown)
    fast, reference = SloMonitor("slo", **kwargs), RescanSloMonitor("slo", **kwargs)
    pages = []
    fast.subscribe(pages.append)
    now = 0.0
    for gap, ok in stream:
        now += gap
        assert fast.record(now, ok) == reference.record(now, ok)
        for back, window in probes:
            # arbitrary windows, asked at the present and at a past `now`
            assert fast.error_rate(now, window) == reference.error_rate(now, window)
            assert (fast.error_rate(now - back, window)
                    == reference.error_rate(now - back, window))
        for window in (fast.fast_window, fast.slow_window):
            assert fast.burn(now, window) == reference.burn(now, window)
    assert fast.alerts == reference.alerts == pages


def test_slo_monitor_rejects_a_non_positive_fast_window():
    with pytest.raises(ValueError):
        SloMonitor("slo", fast_window=0.0, slow_window=10.0)
    with pytest.raises(ValueError):
        SloMonitor("slo", fast_window=10.0, slow_window=10.0)


# ---------------------------------------------------------------------------
# IdFactory.secret: the stream rng.choice draws, without the call stack
# ---------------------------------------------------------------------------
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


@pytest.mark.parametrize("seed", [0, 1, 12, 42, 2024])
def test_secret_draws_the_stream_rng_choice_draws(seed):
    ids, reference = IdFactory(seed), random.Random(seed)
    for nchars in (1, 8, 20, 24, 32, 257):
        expected = "".join(reference.choice(_ALPHABET) for _ in range(nchars))
        assert ids.secret(nchars) == expected
    # nothing extra was consumed: the shared RNG is where choice left it
    assert ids.rng().getstate() == reference.getstate()
    assert ids.jti() == f"jti-0001.{''.join(reference.choice(_ALPHABET) for _ in range(8))}"
    with pytest.raises(ValueError):
        ids.secret(0)


# ---------------------------------------------------------------------------
# AuditLog._plain: scalars pass through, everything else round-trips and
# comes back with sorted keys (the order the journal stores)
# ---------------------------------------------------------------------------
class Colour(enum.Enum):
    RED = "red"


class Level(enum.IntEnum):
    HIGH = 3


class Opaque:
    def __repr__(self):
        return "<opaque>"


def _round_trip(value):
    # keys are sorted *after* coercion to strings: sort_keys on the first
    # pass would refuse {1: ..., None: ...}, which plain JSON accepts
    try:
        return json.loads(json.dumps(json.loads(json.dumps(value)),
                                     sort_keys=True))
    except (TypeError, ValueError):
        return repr(value)


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=False), st.sampled_from([Role.PI, Level.HIGH]))
_leaves = st.one_of(_scalars, st.sampled_from([Colour.RED]),
                    st.builds(Opaque), st.binary(max_size=4))
_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=5), st.integers(),
                                  st.booleans(), st.none()),
                        children, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_plain_is_the_json_round_trip(value):
    plain = AuditLog._plain(value)
    expected = _round_trip(value)
    assert plain == expected
    # bool/int/float compare equal across types: the repr the digest
    # hashes must agree too
    assert repr(plain) == repr(expected)


def test_plain_keeps_non_finite_floats_and_flattens_subclasses():
    for value in (float("nan"), float("inf"), float("-inf"), -0.0):
        assert repr(AuditLog._plain(value)) == repr(_round_trip(value))
    assert type(AuditLog._plain(Role.PI)) is str          # str-enum -> str
    assert type(AuditLog._plain(Level.HIGH)) is int       # int-enum -> int
    assert AuditLog._plain(Colour.RED) == repr(Colour.RED)
    assert AuditLog._plain((1, "a")) == [1, "a"]
    assert AuditLog._plain({1: True, None: 2.5}) == {"1": True, "null": 2.5}


def test_audit_chain_head_is_pinned_for_a_fixed_event_sequence():
    log = AuditLog("pin")
    log.record(0.0, "broker", "alice", "token.issue", "jti-0001", Outcome.SUCCESS,
               domain="fds", zone="access", ttl=900.0, audience="portal",
               caps=["a", "b"], role=Role.PI, project=None, cached=False)
    log.record(1.5, "portal", "bob", "authz.query", "proj-0001", Outcome.DENIED,
               reason="no-role", attempts=3, detail={"k": (1, 2)}, who=Opaque())
    log.record(2.0, "soc", "", "alert.x", "r", Outcome.INFO, level=Level.HIGH)
    assert log.verify_chain() == (True, None)
    # the head the round-trip-everything emit produced for these events
    assert log._head == (
        "8133eb0e7a62f821d3adc3d2184910e1cb60a45c2dd4bc6b2b622711ab563d71")


# ---------------------------------------------------------------------------
# VerifyingKey: a bounded memo of successful verifications, per key object
# ---------------------------------------------------------------------------
class CountingPublicKey:
    """Wraps the ``cryptography`` public key to count real verifications."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def verify(self, *args):
        self.calls += 1
        return self.inner.verify(*args)


def _counted(signing_key):
    verifier = signing_key.public()
    verifier._public = CountingPublicKey(verifier._public)
    return verifier, verifier._public


def count_real_verifications(*key_sets):
    """Count the signature checks the keys now in these ``JwkSet``s really
    run — an answer from a key's memo or an issuer recognising its own
    token is not one.  Returns a callable that reads the total since this
    call; a key added later (a rotation) needs another call."""
    counters = []
    for keys in key_sets:
        for kid in keys.kids():
            verifier = keys.get(kid)
            if not isinstance(verifier._public, CountingPublicKey):
                verifier._public = CountingPublicKey(verifier._public)
            counters.append(verifier._public)
    before = sum(counter.calls for counter in counters)
    return lambda: sum(counter.calls for counter in counters) - before


@pytest.mark.parametrize("alg", ["EdDSA", "ES256"])
def test_repeat_verification_is_remembered_but_forgeries_are_not(alg):
    key = generate_signing_key(alg, kid="k1")
    verifier, counter = _counted(key)
    data, sig = b"header.payload", key.sign(b"header.payload")
    verifier.verify(data, sig)
    verifier.verify(data, sig)
    assert counter.calls == 1
    # a tampered signature or payload after the cached good one is checked
    # for real and refused — every time, failures are never remembered
    forged = sig[:-1] + bytes([sig[-1] ^ 1])
    for _ in range(2):
        with pytest.raises(SignatureInvalid):
            verifier.verify(data, forged)
        with pytest.raises(SignatureInvalid):
            verifier.verify(b"header.tampered", sig)
    assert counter.calls == 5
    verifier.verify(data, sig)
    assert counter.calls == 5


def test_memo_belongs_to_the_key_object_not_the_kid():
    genuine = generate_signing_key("EdDSA", kid="shared-kid")
    impostor = generate_signing_key("EdDSA", kid="shared-kid")
    data, sig = b"msg", genuine.sign(b"msg")
    genuine.public().verify(data, sig)
    with pytest.raises(SignatureInvalid):
        impostor.public().verify(data, sig)


def test_memo_is_bounded_and_keeps_the_recently_used():
    key = generate_signing_key("EdDSA", kid="k1")
    verifier, counter = _counted(key)
    bound = keys_module.VERIFIED_MEMO_SIZE
    hot = (b"hot", key.sign(b"hot"))
    verifier.verify(*hot)
    for i in range(3 * bound):
        message = b"msg-%d" % i
        verifier.verify(message, key.sign(message))
        verifier.verify(*hot)              # re-presented between the others
        assert len(verifier._verified) <= bound
    assert counter.calls == 1 + 3 * bound  # the hot pair was checked once
    verifier.verify(b"msg-0", key.sign(b"msg-0"))  # long evicted: checked again
    assert counter.calls == 2 + 3 * bound


def test_hmac_keys_are_not_memoised():
    key = generate_signing_key("HS256", kid="h1")
    assert isinstance(key, HmacKey) and not hasattr(key, "_verified")
    sig = key.sign(b"msg")
    key.verify(b"msg", sig)
    with pytest.raises(SignatureInvalid):
        key.verify(b"msg", sig[:-1] + bytes([sig[-1] ^ 1]))


ISS = "https://broker"


def test_claims_are_rechecked_on_every_presentation():
    """The memo amortises the signature only: expiry, audience and
    revocation refuse a token on its second presentation."""
    clock = SimClock(start=0.0)
    key = generate_signing_key("EdDSA", kid="b1")
    service = TokenService(clock, IdFactory(1), key, ISS,
                           default_ttl=900, max_ttl=3600, **Wiring())
    jwks = JwkSet([key.public()])
    verifier, counter = jwks.get("b1"), None
    verifier._public = counter = CountingPublicKey(verifier._public)
    portal = RbacTokenValidator(clock, ISS, "portal", jwks, service.is_revoked)
    other = RbacTokenValidator(clock, ISS, "ssh-ca", jwks, service.is_revoked)

    token, record = service.mint("alice", "portal", Role.RESEARCHER, ttl=60)
    assert portal.validate(token)["sub"] == "alice"
    assert portal.validate(token)["sub"] == "alice"
    assert counter.calls == 1
    # wrong audience: same key, same bytes, signature remembered — refused
    with pytest.raises(AudienceMismatch):
        other.validate(token)
    # revoked between two presentations
    assert service.revoke_jti(record.jti)
    with pytest.raises(TokenRevoked):
        portal.validate(token)
    # expired between two presentations
    token2, _ = service.mint("alice", "portal", Role.RESEARCHER, ttl=60)
    assert portal.validate(token2)
    clock.advance(120.0)
    with pytest.raises(TokenExpired):
        portal.validate(token2)
    assert counter.calls == 2

    # plain JwtValidator (ID tokens): same story for exp and aud
    jwt = encode_jwt({"iss": ISS, "aud": "rp", "exp": clock.now() + 30,
                      "sub": "alice"}, key)
    rp = JwtValidator(clock, ISS, "rp", jwks)
    assert rp.validate(jwt) and rp.validate(jwt)
    with pytest.raises(AudienceMismatch):
        JwtValidator(clock, ISS, "elsewhere", jwks).validate(jwt)
    clock.advance(60.0)
    with pytest.raises(TokenExpired):
        rp.validate(jwt)
    assert counter.calls == 3


# ---------------------------------------------------------------------------
# portal GET /authz: indexed lookup == scanning every project/invitation
# ---------------------------------------------------------------------------
def _authz_by_scan(portal, uid, email):
    """The response body as the handler used to build it."""
    from repro.portal.models import ProjectStatus
    now = portal.clock.now()
    roles = []
    for project in portal._projects.values():
        if project.status != ProjectStatus.ACTIVE:
            continue
        m = project.member(uid)
        if m is not None:
            roles.append({"project_id": project.project_id,
                          "project_name": project.name, "role": m.role.value,
                          "unix_account": m.unix_account,
                          "expires_at": project.allocation.end})
    pending = [{"project_id": inv.project_id, "role": inv.role.value}
               for inv in portal._invitations.values()
               if inv.pending(now) and inv.email.lower() == email.lower()]
    return {"uid": uid, "roles": roles, "pending_invitations": pending}


def _authz(dri, uid, email):
    token, _ = dri.broker.tokens.mint("broker", "portal", Role.SERVICE, ttl=60)
    response = dri.portal.authz(HttpRequest(
        "GET", "/authz", query={"uid": uid, "email": email},
        headers={"Authorization": f"Bearer {token}"}))
    return response.body


def _invite(dri, pi_name, project_id, email):
    wf = dri.workflows
    pi = wf.personas[pi_name]
    token = wf.mint(pi, "portal", "pi", project=project_id).body["token"]
    invited, _ = pi.agent.post(
        make_url("portal", "/invite"), {"project_id": project_id, "email": email},
        headers={"Authorization": f"Bearer {token}"})
    assert invited.ok, invited.body


def test_authz_index_preserves_scan_order_across_membership_churn():
    dri = build_isambard(seed=5)
    wf = dri.workflows
    projects = []
    for i, pi in enumerate(("alice", "erin", "frank")):
        res = wf.story1_pi_onboarding(pi, project_name=f"proj-{i}")
        assert res.ok, res.steps
        projects.append((pi, str(res.data["project_id"])))
    # bob joins the projects newest-first: /authz must still list them in
    # project-creation order, as the scan did
    for pi, project_id in reversed(projects):
        assert wf.story3_researcher_setup(project_id, pi, "bob").ok
    # two invitations that stay pending; one project is torn down below
    for pi, project_id in (projects[0], projects[2]):
        _invite(dri, pi, project_id, "Carol@Example.org")
    portal = dri.portal
    people = [(u.uid, u.email) for u in portal._users.values()]
    people.append(("nobody", "carol@example.org"))

    def check():
        for uid, email in people:
            assert _authz(dri, uid, email) == _authz_by_scan(portal, uid, email)

    check()
    bob_uid = next(u.uid for u in portal._users.values()
                   if u.email.startswith("bob@"))
    assert [r["project_id"] for r in _authz(dri, bob_uid, "")["roles"]] == [
        p for _, p in projects]
    assert len(_authz(dri, "nobody", "CAROL@example.org")["pending_invitations"]) == 2
    # membership revoked, then a whole project torn down (drops its invitations)
    portal._remove_member(portal.project(projects[1][1]), bob_uid)
    check()
    portal._expire(projects[2][1])
    check()
    assert len(_authz(dri, "nobody", "carol@example.org")["pending_invitations"]) == 1


@pytest.mark.durability
def test_authz_index_is_rebuilt_by_crash_recovery():
    dri = build_isambard(seed=6, durability=True)
    wf = dri.workflows
    project_id = str(wf.story1_pi_onboarding("alice").data["project_id"])
    assert wf.story3_researcher_setup(project_id, "alice", "bob").ok
    _invite(dri, "alice", project_id, "carol@example.org")
    portal = dri.portal
    people = [(u.uid, u.email) for u in portal._users.values()]
    people.append(("nobody", "carol@example.org"))
    before = [_authz(dri, uid, email) for uid, email in people]
    assert any(body["roles"] for body in before)
    assert before[-1]["pending_invitations"]
    dri.crash("portal")
    dri.restart("portal")
    assert [_authz(dri, uid, email) for uid, email in people] == before
    assert before == [_authz_by_scan(portal, uid, email) for uid, email in people]


# ---------------------------------------------------------------------------
# bounded span store: an evicted trace's audit records are not "forged"
# ---------------------------------------------------------------------------
@pytest.mark.pipeline
@pytest.mark.authz
def test_evicted_traces_do_not_read_as_forged_audit_records():
    """Past the span budget the store evicts finished traces before the
    log forwarders ship their audit records; the trace-integrity rule
    used to call those records forged, the SOC escalated and continuous
    authorization revoked legitimate users."""
    dri = build_isambard(seed=12, authz=True,
                         pipeline=PipelineConfig(max_spans=100))
    received = capture_ingest(dri.soc)
    wf = dri.workflows
    project_id = str(wf.story1_pi_onboarding("alice").data["project_id"])
    users = ("bob", "carol", "dave")
    for name in users:
        assert wf.story3_researcher_setup(project_id, "alice", name).ok
    for i in range(30):
        user = users[i % 3]
        if i % 2:
            result = wf.story6_jupyter(user)
            assert result.ok, result.steps
            dri.jupyter.close_session(str(result.data["session_id"]))
        else:
            assert wf.story4_ssh_session(user).ok
    dri.ship_logs()

    store = dri.telemetry.store
    assert store.stats()["evicted_traces"] > 0
    shipped = [str(r["attrs"]["trace_id"]) for r in received
               if r["attrs"].get("trace_id")]
    # the scenario is the bug's: records did arrive after their trace left
    assert any(not store.trace(tid) for tid in shipped)
    assert all(store.has_trace(tid) for tid in shipped)
    assert [a for a in dri.soc.alerts if a.rule == "trace-unknown"] == []
    assert dri.soc.contained == []
    assert dri.authz.pipeline.revocations == 0
    for user in users:
        assert wf.story4_ssh_session(user).ok
    # a trace id nobody minted is still caught
    forged = dri.soc.ingest_batch([{
        "time": dri.clock.now(), "source": "sshd", "actor": "mallory",
        "action": "ssh.login", "attrs": {"trace_id": "f" * 32}}])
    assert [a.rule for a in forged] == ["trace-unknown"]
