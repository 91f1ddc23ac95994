"""Failover × autoscaler composition (PR 6 satellite).

The scale tier (PR 5) and the active-standby failover machinery (PR 3)
compose on the same deployment: the broker pool's pods front a
supervised state backend registered as ``broker-origin``.  The contract
under test:

* a standby promotion restores the *whole serving path* — the pods went
  dark because the backend died, so promotion re-points every worker at
  the promoted state and brings the fleet back up;
* an autoscaler that grows the pool **mid-outage** (loss signals during
  the detection window trigger exactly that) leaves no inconsistent
  balancer view: the replica born against the dying primary is
  re-pointed by the promotion like every pre-existing one;
* replicas added **after** promotion inherit the promoted origin, never
  the deposed one;
* the deposed primary stays journal-fenced throughout, and
  ``dri.restart("broker")`` rejoins it as the new parked standby even
  though the supervised pair is keyed by the origin endpoint.
"""

from __future__ import annotations

import pytest

from repro.core import build_isambard
from repro.errors import EpochFenced, ServiceUnavailable
from repro.scale import ScaleConfig

pytestmark = pytest.mark.scale


def _scaled_ha(seed: int, **scale_kw) -> object:
    cfg = ScaleConfig(autoscale=True, broker_replicas=2, **scale_kw)
    return build_isambard(seed=seed, scale=cfg, failover=True)


def test_promotion_restores_the_pool_serving_path():
    dri = _scaled_ha(701)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    old_broker = dri.broker

    dri.crash("broker")
    # mid-outage the LB fails closed: no healthy replica, not a silent
    # route to a dead pod
    with pytest.raises(ServiceUnavailable):
        wf.mint(wf.personas["pi"], "jupyter", "pi")

    dri.clock.advance(dri.failover.budget + 0.5)
    pair = dri.failover.pairs["broker-origin"]
    assert pair.promoted
    assert dri.broker is not old_broker

    # the fleet is serving again: endpoints up, workers on the standby
    for replica in dri.broker_pool.replicas():
        assert dri.network.endpoint(replica).up
        assert dri.broker_pool.worker(replica).origin is dri.broker
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok

    # and the deposed primary cannot mint behind the promoted one's back
    with pytest.raises(EpochFenced):
        old_broker.tokens.mint("zombie", "jupyter", "pi")


def test_autoscale_growth_mid_outage_is_repointed_by_promotion():
    """A replica born while the primary is dying must not keep serving
    the deposed origin after promotion — the balancer's whole view moves
    to the promoted backend atomically."""
    dri = _scaled_ha(702, autoscale_interval=1.0)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    old_broker = dri.broker
    size_before = dri.broker_pool.size()

    dri.crash("broker")
    # loss signals land in the window (what a real outage produces);
    # the autoscaler reacts before the failover threshold trips
    dri.telemetry.hop_requests.inc(20, dst="broker-r1", outcome="unavailable")
    dri.clock.advance(1.2)
    assert dri.broker_pool.size() == size_before + 1
    assert any(d.direction == "grow" for d in dri.autoscaler.decisions)
    assert not dri.failover.pairs["broker-origin"].promoted
    newborn = dri.broker_pool.replicas()[-1]
    # the newborn was wired against the dying primary
    assert dri.broker_pool.worker(newborn).origin is old_broker

    dri.clock.advance(dri.failover.budget + 0.5)
    assert dri.failover.pairs["broker-origin"].promoted

    # consistency: every replica — including the mid-outage newborn —
    # serves the promoted state, and every endpoint in the balancer's
    # view is actually up
    for replica in dri.broker_pool.replicas():
        assert dri.broker_pool.worker(replica).origin is dri.broker
        assert dri.network.endpoint(replica).up
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok


def test_replica_added_after_promotion_inherits_promoted_origin():
    dri = _scaled_ha(703)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    old_broker = dri.broker

    dri.crash("broker")
    dri.clock.advance(dri.failover.budget + 0.5)
    assert dri.failover.pairs["broker-origin"].promoted

    newborn = dri.broker_pool.add_replica()
    assert dri.broker_pool.worker(newborn).origin is dri.broker
    assert dri.broker_pool.worker(newborn).origin is not old_broker
    # drive enough traffic that the rotation reaches the newborn
    for _ in range(dri.broker_pool.size() * 2):
        assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok
    assert dri.broker_pool.worker(newborn).served > 0


def test_restart_rejoins_ex_primary_as_standby_in_scale_mode():
    """The supervised pair is keyed "broker-origin"; restart("broker")
    must still find it and park the recovered ex-primary as standby."""
    dri = _scaled_ha(704)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    old_broker = dri.broker
    dri.crash("broker")
    dri.clock.advance(dri.failover.budget + 0.5)
    assert dri.failover.pairs["broker-origin"].promoted

    report = dri.restart("broker")
    assert report is not None
    pair = dri.failover.pairs["broker-origin"]
    assert not pair.promoted            # supervision resumed
    assert pair.standby is old_broker   # parked as the new standby
    assert pair.primary is dri.broker
    assert dri.network.has_endpoint("broker-standby")
    # caught up on the journal, but still not a legitimate writer
    with pytest.raises(EpochFenced):
        old_broker.tokens.mint("zombie", "jupyter", "pi")
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok


def test_promotion_restores_regions_with_fresh_epochs():
    """Region mode: the backend crash downs every region (fencing their
    generations); promotion brings them back ACTIVE under fresh epochs
    with revocation views resynced from the promoted store."""
    dri = build_isambard(seed=705, regions=True, failover=True)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    token, rec = dri.broker.tokens.mint("pi", "jupyter", "pi", ttl=600)
    dri.broker.tokens.revoke_jti(rec.jti)
    old_epochs = {r.name: r.epoch for r in dri.region_directory.regions()}

    dri.crash("broker")
    dri.clock.advance(dri.failover.budget + 0.5)
    assert dri.failover.pairs["broker-origin"].promoted

    for region in dri.region_directory.regions():
        assert region.state == "active"
        assert region.epoch > old_epochs[region.name]  # old gen fenced
        # the resynced view knows the pre-crash revocation (the journal
        # replay carried it into the promoted store)
        assert region.revocations.is_revoked(rec.jti)
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok


def test_promoted_standby_inherits_no_memory_of_minted_tokens():
    """The standby replays the primary's issued *records*; which bytes
    the primary signed is the primary's own volatile knowledge.  So the
    promoted broker verifies the deposed primary's tokens for real, then
    recognises the ones it mints itself — and a fenced mint on the
    deposed primary leaves nothing to recognise."""
    from repro.net.http import HttpRequest
    from tests.test_hot_path_bookkeeping import count_real_verifications

    dri = build_isambard(seed=707, failover=True)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    agent = wf.personas["pi"].agent

    def introspect(token):
        return agent.call("broker", HttpRequest(
            "POST", "/introspect", body={"token": token})).body["active"]

    by_primary = str(wf.mint(wf.personas["pi"], "jupyter", "pi").body["token"])
    old_broker = dri.broker
    assert old_broker._recognises(by_primary)
    dri.crash("broker")
    dri.clock.advance(dri.failover.budget + 0.5)
    assert dri.failover.pairs["broker"].promoted
    assert dri.broker is not old_broker and dri.broker.jwks is old_broker.jwks

    assert not dri.broker._recognises(by_primary)
    real = count_real_verifications(dri.broker.jwks)
    assert introspect(by_primary) is True
    assert real() == 1
    by_standby = str(wf.mint(wf.personas["pi"], "jupyter", "pi").body["token"])
    real = count_real_verifications(dri.broker.jwks)  # past the portal's check
    assert dri.broker._recognises(by_standby)
    assert introspect(by_standby) is True
    assert real() == 0

    with pytest.raises(EpochFenced):
        old_broker.tokens.mint("zombie", "jupyter", "pi")
    assert not old_broker.tokens._minted and not old_broker._minted
