"""Scale-out subsystem wired into the full deployment (PR 5 tier-1).

The acceptance invariants of the horizontal-scaling layer:

* ``scale=True`` puts the broker behind a replica pool + load balancer
  transparently — every user story still passes, URL-addressed callers
  never learn the endpoint name changed hands;
* **a cached ALLOW never outlives a revocation** — the invalidation bus
  evicts the jti from every subscribed cache synchronously, inside the
  revoking call, so there is no window in which a replica can serve a
  revoked credential from cache;
* a JWKS rotation invalidates the shared RP cache before TTL expiry and
  N same-instant refreshes coalesce into exactly one upstream fetch;
* cache-served decisions are stamped with the ``cached`` audit outcome,
  correlate in incident timelines, and the SOC's staleness oracle
  cross-checks them against revocation events;
* scaling composes with the overload, durability and crash machinery.
"""

import pytest

from repro.audit import AuditLog, Outcome
from repro.broker.rbac import Role
from repro.core import build_isambard
from repro.core.workflows import Workflows
from repro.errors import ServiceUnavailable, TokenRevoked
from repro.net.http import HttpRequest
from repro.scale import ScaleConfig
from repro.siem import CacheStalenessRule, build_timeline, event_to_record
from repro.tunnels.zenith import TOKEN_HEADER

pytestmark = pytest.mark.scale


# ======================================================================
# topology
# ======================================================================
def test_scale_build_topology():
    dri = build_isambard(seed=301, scale=True)
    # the LB owns the public name; the origin moved aside
    assert dri.network.endpoint("broker").service is dri.broker_lb
    assert dri.network.endpoint("broker-origin").service is dri.broker
    assert dri.broker_pool.replicas() == ["broker-r1", "broker-r2"]
    assert set(dri.caches) == {
        "token-decisions", "jwks", "introspection", "ssh-certs"}
    assert dri.invalidation_bus is not None
    assert dri.autoscaler is None  # opt-in via ScaleConfig

    # every cache that can go stale on revocation/rotation is subscribed
    bus = dri.invalidation_bus
    assert bus.subscriber_count("token.revoked") >= 2
    assert bus.subscriber_count("jwks.rotated") >= 1


def test_seed_mode_is_unchanged():
    dri = build_isambard(seed=301)
    assert dri.network.endpoint("broker").service is dri.broker
    assert dri.broker_pool is None and dri.broker_lb is None
    assert dri.caches == {} and dri.invalidation_bus is None


def test_autoscaler_opt_in():
    dri = build_isambard(
        seed=302, scale=ScaleConfig(autoscale=True, broker_replicas=1))
    assert dri.autoscaler is not None
    assert dri.autoscaler.pool is dri.broker_pool
    assert dri.telemetry.pool_size.value(pool="broker") == 1.0


# ======================================================================
# the stories still pass behind the balancer
# ======================================================================
def test_user_stories_pass_under_scale():
    dri = build_isambard(seed=303, scale=True)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi")
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    assert wf.story3_researcher_setup(project_id, "pi", "res1").ok
    assert wf.story4_ssh_session("res1").ok
    assert wf.story6_jupyter("res1").ok
    # traffic genuinely went through the balancer, without exhaustion
    assert dri.broker_lb.routed > 0
    assert dri.broker_lb.exhausted == 0
    # the hot-path caches saw traffic
    assert dri.caches["token-decisions"].stats.requests() > 0
    assert dri.caches["jwks"].stats.loads > 0


# ======================================================================
# ACCEPTANCE: a revoked token is never served from cache
# ======================================================================
def test_revoked_token_never_served_from_cache():
    dri = build_isambard(seed=304, scale=True)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    minted = wf.mint(wf.personas["pi"], "jupyter", "pi").body
    token, jti = str(minted["token"]), str(minted["jti"])

    v = dri.validator_for("jupyter")
    v.validate(token)
    v.validate(token)
    assert v.last_hit  # the second check rode the decision cache
    cache = dri.caches["token-decisions"]
    assert cache.peek(token) is not None

    invalidations = cache.stats.invalidations
    assert dri.broker.tokens.revoke_jti(jti)
    # the bus delivered synchronously, inside the revoking call — the
    # entry is gone *now*, not at TTL expiry
    assert cache.peek(token) is None
    assert cache.stats.invalidations > invalidations
    assert any(topic == "token.revoked" and key == jti
               for _, topic, key in dri.invalidation_bus.history)
    with pytest.raises(TokenRevoked):
        v.validate(token)
    assert not v.last_hit  # the refusal was a fresh verdict


def test_jupyter_introspection_cache_respects_revocation():
    dri = build_isambard(seed=305, scale=True)
    token, record = dri.broker.tokens.mint("ma-1", "jupyter", Role.RESEARCHER)
    req = HttpRequest("GET", "/", headers={TOKEN_HEADER: token})

    before = dri.broker.introspections
    assert dri.jupyter.handle(req).ok
    assert dri.broker.introspections == before + 1
    # second open: verdict served from the shared cache, no round-trip,
    # and the decision is flagged for the staleness oracle
    assert dri.jupyter.handle(req).ok
    assert dri.broker.introspections == before + 1
    assert dri.jupyter.introspection_hit
    cached_events = [e for e in dri.logs["mdc"].events()
                     if e.action == "jupyter.auth"
                     and e.outcome == Outcome.CACHED]
    assert cached_events

    assert dri.broker.tokens.revoke_jti(record.jti)
    assert dri.caches["introspection"].peek(record.jti) is None
    refused = dri.jupyter.handle(req)
    assert not refused.ok
    assert refused.body.get("error_type") == "TokenRevoked"


# ======================================================================
# satellite: JWKS rotation + single-flight
# ======================================================================
def test_jwks_rotation_invalidates_before_ttl_and_coalesces():
    dri = build_isambard(seed=306, scale=True)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok  # primes the shared JWKS cache
    cache = dri.caches["jwks"]
    assert cache.peek("myaccessid") is not None

    rp = next(u.rp for u in dri.broker._upstreams.values()
              if u.rp.provider == "myaccessid")
    serves = dri.myaccessid.jwks_serves
    dri.myaccessid.rotate_key()
    # evicted by the bus the moment the provider rotated (TTL is 600s)
    assert cache.peek("myaccessid") is None

    # a same-instant refresh storm collapses to ONE upstream fetch
    for _ in range(5):
        rp._discover(force=True)
    assert dri.myaccessid.jwks_serves == serves + 1

    # and logins keep working against the rotated key
    assert wf.relogin(wf.personas["pi"]).ok


# ======================================================================
# satellite: CACHED outcome, timeline correlation, staleness oracle
# ======================================================================
def test_cached_ssh_outcome_lands_in_audit_and_timeline():
    dri = build_isambard(seed=307, scale=True)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi")
    project_id = str(s1.data["project_id"])
    assert wf.story3_researcher_setup(project_id, "pi", "res1").ok
    s4 = wf.story4_ssh_session("res1")
    assert s4.ok

    # the same certificate presented again parses out of the cert cache
    client = wf.personas["res1"].ssh_client
    alias = sorted(client.ssh_config)[0]
    assert client.ssh(alias).ok
    cached = [e for e in dri.logs["mdc"].events()
              if e.action == "ssh.session" and e.outcome == Outcome.CACHED]
    assert cached
    assert dri.caches["ssh-certs"].stats.hits > 0

    # the incident timeline for the MDC-side principal surfaces the
    # cache-served decision — the oracle's cross-check set is populated
    timeline = build_timeline(dri, str(s4.data["principal"]))
    assert [e for e in timeline.entries if e.outcome == "cached"]


def test_staleness_oracle_flags_cached_decision_after_revocation():
    """The SOC detection that polices the subsystem's core promise: a
    ``cached`` decision naming a jti revoked earlier is a critical
    alert.  Records flow through the real audit->forwarder wire format,
    so this also pins where the jti attribute rides."""
    log = AuditLog("synthetic")
    log.record(10.0, "token-service", "system", "rbac.revoke", "jti-x",
               Outcome.INFO, jti="jti-x")
    log.record(11.0, "jupyter", "mallory", "jupyter.auth", "jti-x",
               Outcome.CACHED, jti="jti-x")
    log.record(12.0, "jupyter", "mallory", "jupyter.auth", "jti-x",
               Outcome.CACHED, jti="jti-x")
    # a different token cached *before* its revocation is benign
    log.record(13.0, "jupyter", "carol", "jupyter.auth", "jti-y",
               Outcome.CACHED, jti="jti-y")
    log.record(14.0, "token-service", "system", "rbac.revoke", "jti-y",
               Outcome.INFO, jti="jti-y")

    rule = CacheStalenessRule()
    alerts = [a for a in (rule.observe(event_to_record(e))
                          for e in log.events()) if a is not None]
    assert len(alerts) == 1  # one alert per stale jti, no storm
    alert = alerts[0]
    assert alert.severity == "critical"
    assert alert.actor == "mallory"
    assert "jti-x" in alert.summary


def test_staleness_oracle_in_default_soc_rule_pack():
    dri = build_isambard(seed=308, scale=True)
    assert any(isinstance(r, CacheStalenessRule) for r in dri.soc.rules)


# ======================================================================
# composition with overload + durability + crash/restart
# ======================================================================
def test_scale_composes_with_overload_and_durability():
    dri = build_isambard(seed=309, scale=True, overload=True,
                         durability=True)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok
    # each worker carries its own admission bucket; the origin's moved off
    assert dri.broker.admission is None
    for name in dri.broker_pool.replicas():
        assert dri.broker_pool.worker(name).admission is not None

    dri.crash("broker")
    with pytest.raises(ServiceUnavailable):
        wf.mint(wf.personas["pi"], "jupyter", "pi")
    dri.restart("broker")
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok
    # the journal-backed origin recovered behind an unchanged balancer
    assert dri.network.endpoint("broker").service is dri.broker_lb


def test_pool_scales_live_under_traffic():
    dri = build_isambard(seed=310, scale=ScaleConfig(broker_replicas=1))
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    dri.broker_pool.scale_to(4)
    assert wf.relogin(wf.personas["pi"]).ok
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok
    dri.broker_pool.scale_to(1)
    assert wf.relogin(wf.personas["pi"]).ok
