"""Continuous authorization (PR 8): canonical identities, the session
registry, the journaled revocation pipeline, fail-closed PDP guards, the
continuous re-evaluation loop, and the pdp_down / teardown_stuck /
revocation_storm chaos faults."""

import pytest

from repro.authz import (
    REEVAL_INTERVAL,
    RETRY_INTERVAL,
    STALENESS_BOUND,
    SURFACES,
    AuthzGuard,
    IdentityGraph,
    PolicyDecisionPoint,
    RevocationPipeline,
    SessionRegistry,
)
from repro.clock import SimClock
from repro.core import build_isambard
from repro.errors import ConfigurationError, ServiceUnavailable
from repro.oidc import make_url
from repro.policy import PolicyEngine, standard_zero_trust_rules

pytestmark = pytest.mark.authz


# ---------------------------------------------------------------------------
# canonical identity
# ---------------------------------------------------------------------------
class TestIdentityGraph:
    def test_principals_workloads_and_account_aliases(self):
        graph = IdentityGraph("isambard.example")
        alice = graph.principal("ma-0001@myaccessid")
        assert alice == "spiffe://isambard.example/user/ma-0001@myaccessid"
        assert graph.principal("ma-0001@myaccessid") == alice  # idempotent

        shipper = graph.workload("log-shipper")
        assert shipper == "spiffe://isambard.example/workload/log-shipper"

        graph.bind_account("alice.proj-0001", "ma-0001@myaccessid")
        assert graph.identity_of("alice.proj-0001") == alice
        assert graph.identity_of("ma-0001@myaccessid") == alice
        assert graph.uid_of(alice) == "ma-0001@myaccessid"
        assert graph.accounts_of("ma-0001@myaccessid") == ["alice.proj-0001"]
        assert graph.known(alice)

    def test_unknown_subject_mints_on_demand(self):
        graph = IdentityGraph("isambard.example")
        spiffe = graph.identity_of("stranger")
        assert spiffe.endswith("/user/stranger")
        assert graph.known(spiffe)


# ---------------------------------------------------------------------------
# session registry
# ---------------------------------------------------------------------------
class TestSessionRegistry:
    def _registry(self):
        clock = SimClock(start=0.0)
        return clock, SessionRegistry(clock)

    def test_track_close_and_queries(self):
        clock, reg = self._registry()
        g = reg.track("rbac-token", "tokens", "alice", "jti-1",
                      expires_at=600.0)
        reg.track("ssh-session", "ssh", "alice", "sess-1")
        assert g.live(clock.now())
        spiffe = reg.graph.identity_of("alice")
        assert len(reg.live_grants(spiffe)) == 2
        assert reg.surfaces_of(spiffe) == ["tokens", "ssh"]
        assert reg.identities_with_live_grants() == [spiffe]

        assert reg.close("rbac-token", "jti-1", reason="revoked")
        assert not reg.close("rbac-token", "jti-1", reason="twice")  # idempotent
        assert reg.surfaces_of(spiffe) == ["ssh"]
        assert reg.close_surface(spiffe, "ssh", reason="teardown") == 1
        assert reg.live_grants(spiffe) == []

    def test_expiry_ends_grants_without_revocation(self):
        clock, reg = self._registry()
        reg.track("rbac-token", "tokens", "alice", "jti-1", expires_at=10.0)
        clock.advance(11.0)
        assert reg.live_grants() == []
        assert reg.identities_with_live_grants() == []

    def test_reregistration_refreshes_in_place(self):
        clock, reg = self._registry()
        g1 = reg.track("tunnel", "tunnels", "svc", "jupyter",
                       expires_at=100.0, workload=True)
        g2 = reg.track("tunnel", "tunnels", "svc", "jupyter",
                       expires_at=200.0, workload=True)  # the heartbeat
        assert g1.grant_id == g2.grant_id
        assert g2.expires_at == 200.0
        assert len(reg.live_grants()) == 1

    def test_unknown_surface_rejected(self):
        _, reg = self._registry()
        with pytest.raises(ConfigurationError):
            reg.track("rbac-token", "warp-core", "alice", "x")


# ---------------------------------------------------------------------------
# revocation pipeline (unit: in-memory outbox)
# ---------------------------------------------------------------------------
def _pipeline(retry_interval=2.0):
    clock = SimClock(start=0.0)
    reg = SessionRegistry(clock)
    pipe = RevocationPipeline(clock, registry=reg,
                              retry_interval=retry_interval)
    torn = {s: 0 for s in SURFACES}

    def point(surface):
        def action(intent):
            torn[surface] += 1
            return 1
        return action

    for s in SURFACES:
        pipe.register_point(s, point(s))
    return clock, reg, pipe, torn


class TestRevocationPipeline:
    def test_revoke_fans_out_and_completes(self):
        clock, reg, pipe, torn = _pipeline()
        reg.track("rbac-token", "tokens", "alice", "jti-1")
        intent = pipe.revoke(uid="alice", reason="test")
        assert intent.complete and intent.ttr() == 0.0
        assert set(intent.done) == set(SURFACES)
        assert all(torn[s] == 1 for s in SURFACES)
        assert reg.live_grants() == []

    def test_needs_a_subject(self):
        _, _, pipe, _ = _pipeline()
        with pytest.raises(ConfigurationError):
            pipe.revoke(reason="nobody")

    def test_stuck_surface_retries_until_converged(self):
        clock, reg, pipe, torn = _pipeline(retry_interval=2.0)
        reg.track("jupyter", "compute", "alice", "jup-1")
        pipe.stick("compute")
        intent = pipe.revoke(uid="alice", reason="incident")
        assert intent.pending == ["compute"]
        assert reg.live_grants() != []  # compute grant survives the wedge

        clock.advance(5.0)  # retry ticks fire but the wedge holds
        assert not intent.complete and pipe.retries >= 1

        pipe.unstick("compute")  # unstick re-drives immediately
        assert intent.complete
        assert intent.ttr() == pytest.approx(5.0)
        assert reg.live_grants() == []

    def test_identical_pending_intents_coalesce(self):
        clock, reg, pipe, torn = _pipeline()
        reg.track("rbac-token", "tokens", "alice", "jti-1")
        pipe.stick("tokens")
        first = pipe.revoke(uid="alice", reason="storm")
        for _ in range(9):
            again = pipe.revoke(uid="alice", reason="storm")
            assert again is first
        assert pipe.revocations == 1
        assert pipe.storms_coalesced == 9
        pipe.unstick("tokens")
        assert first.complete

    def test_completed_intents_do_not_absorb_new_revocations(self):
        clock, reg, pipe, torn = _pipeline()
        reg.track("rbac-token", "tokens", "alice", "jti-1")
        first = pipe.revoke(uid="alice", reason="one")
        assert first.complete
        second = pipe.revoke(uid="alice", reason="two")
        assert second is not first
        assert pipe.revocations == 2

    def test_failing_enforcement_point_stays_pending(self):
        clock = SimClock(start=0.0)
        reg = SessionRegistry(clock)
        pipe = RevocationPipeline(clock, registry=reg, retry_interval=1.0)
        attempts = {"n": 0}

        def flaky(intent):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise ServiceUnavailable("surface briefly dark")
            return 1

        pipe.register_point("tokens", flaky)
        intent = pipe.revoke(uid="alice", reason="flaky")
        assert not intent.complete
        clock.advance(3.0)  # two retry ticks get attempt 3 through
        assert intent.done.get("tokens") == 1


# ---------------------------------------------------------------------------
# the PDP guard: stale allows inside the bound, fail-closed past it
# ---------------------------------------------------------------------------
class TestAuthzGuard:
    def test_fail_closed_past_staleness_bound(self):
        clock = SimClock(start=0.0)
        pdp = PolicyDecisionPoint(
            clock, standard_zero_trust_rules(PolicyEngine()))
        guard = AuthzGuard(clock, pdp, staleness_bound=30.0)

        guard.check("tokens")           # PDP up: refreshes the heartbeat
        pdp.down()
        clock.advance(15.0)
        guard.check("tokens")           # inside the bound: stale allow
        assert guard.stale_allows == 1

        clock.advance(20.0)             # now 35s past the last heartbeat
        with pytest.raises(ServiceUnavailable):
            guard.check("tokens")
        assert guard.fail_closed_denials == 1

        pdp.restore()
        guard.check("tokens")           # healed: admissions resume
        assert guard.age() == 0.0


# ---------------------------------------------------------------------------
# deployment integration: grants tracked at every surface
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def authz_dri():
    dri = build_isambard(seed=81, authz=True)
    s1 = dri.workflows.story1_pi_onboarding("alice")
    assert s1.ok, s1.steps
    s3 = dri.workflows.story3_researcher_setup(
        s1.data["project_id"], "alice", "bob")
    assert s3.ok, s3.steps
    s4 = dri.workflows.story4_ssh_session("bob")
    assert s4.ok, s4.steps
    s6 = dri.workflows.story6_jupyter("bob")
    assert s6.ok, s6.steps
    return dri


class TestDeploymentGrants:
    def test_all_four_surfaces_tracked(self, authz_dri):
        dri = authz_dri
        reg = dri.authz.registry
        bob = dri.workflows.personas["bob"].broker_sub
        spiffe = reg.graph.identity_of(bob)
        assert spiffe.endswith(f"/user/{bob}")
        assert reg.surfaces_of(spiffe) == list(SURFACES)
        kinds = {g.kind for g in reg.live_grants(spiffe)}
        assert {"rbac-token", "ssh-cert", "ssh-session",
                "web-session", "jupyter"} <= kinds

    def test_minted_tokens_carry_the_spiffe_claim(self, authz_dri):
        dri = authz_dri
        bob = dri.workflows.personas["bob"].broker_sub
        token, _ = dri.broker.tokens.mint(bob, "jupyter", "researcher")
        claims = dri.validator_for("jupyter").validate(token)
        assert claims["spiffe_id"] == (
            dri.authz.registry.graph.identity_of(bob))

    def test_unix_account_resolves_to_the_principal(self, authz_dri):
        dri = authz_dri
        reg = dri.authz.registry
        bob = dri.workflows.personas["bob"].broker_sub
        accounts = reg.graph.accounts_of(bob)
        assert accounts and accounts[0].startswith("bob.")
        assert reg.graph.identity_of(accounts[0]) == (
            reg.graph.identity_of(bob))

    def test_workload_tunnel_is_a_workload_grant(self, authz_dri):
        reg = authz_dri.authz.registry
        tunnel = [g for g in reg.live_grants() if g.kind == "tunnel"]
        assert tunnel and "/workload/" in tunnel[0].spiffe_id

    def test_spiffe_id_lands_in_siem_records(self, authz_dri):
        dri = authz_dri
        dri.ship_logs()
        stamped = [r for r in dri.soc.records()
                   if isinstance(r.get("attrs"), dict)
                   and r["attrs"].get("spiffe_id")]
        assert stamped, "no SIEM record carried a spiffe_id"


# ---------------------------------------------------------------------------
# deployment integration: one pipeline tears everything down
# ---------------------------------------------------------------------------
class TestDeploymentRevocation:
    def _onboard(self, seed, **kw):
        dri = build_isambard(seed=seed, authz=True, **kw)
        s1 = dri.workflows.story1_pi_onboarding("alice")
        dri.workflows.story3_researcher_setup(s1.data["project_id"], "alice")
        dri.workflows.story4_ssh_session("bob")
        dri.workflows.story6_jupyter("bob")
        return dri

    def test_pipeline_revokes_across_all_surfaces(self):
        dri = self._onboard(82)
        reg = dri.authz.registry
        bob = dri.workflows.personas["bob"].broker_sub
        account = reg.graph.accounts_of(bob)[0]
        spiffe = reg.graph.identity_of(bob)
        assert reg.surfaces_of(spiffe) == list(SURFACES)

        intent = dri.authz.pipeline.revoke(uid=bob, reason="incident",
                                           by="soc")
        assert intent.complete and intent.ttr() == 0.0
        assert reg.live_grants(spiffe) == []
        # the enforcement points really fired, not just the ledger
        assert not [s for s in dri.login_sshd.sessions()
                    if s.principal == account]
        assert not [s for s in dri.jupyter.sessions()
                    if s.subject == bob]
        # his still-valid-looking certificate no longer opens sessions
        retry = dri.workflows.personas["bob"].ssh_client.ssh_direct(account)
        assert retry.status == 403

    def test_user_revocation_spares_the_shared_tunnel(self):
        dri = self._onboard(83)
        assert "jupyter" in dri.zenith.tunnels
        bob = dri.workflows.personas["bob"].broker_sub
        dri.authz.pipeline.revoke(uid=bob, reason="incident", by="soc")
        # the jupyter tunnel is the zenith-client workload's, not bob's
        assert dri.zenith.tunnels["jupyter"].usable(dri.clock.now())

    def test_portal_member_revocation_rides_the_pipeline(self):
        dri = self._onboard(84)
        reg = dri.authz.registry
        alice = dri.workflows.personas["alice"]
        bob = dri.workflows.personas["bob"].broker_sub
        project_id = dri.portal.projects()[0].project_id
        pi_token = dri.workflows.mint(
            alice, "portal", "pi", project=project_id).body["token"]
        resp, _ = alice.agent.post(
            make_url("portal", "/revoke_member"),
            {"project_id": project_id, "uid": bob},
            headers={"Authorization": f"Bearer {pi_token}"},
        )
        assert resp.ok, resp.body
        assert dri.authz.pipeline.revocations >= 1
        intents = dri.authz.pipeline._iter_intents()
        assert any(i.reason == "portal-revocation" and i.complete
                   for i in intents)
        assert reg.live_grants(reg.graph.identity_of(bob)) == []

    def test_killswitch_delegates_and_pins_containment(self):
        dri = self._onboard(85)
        reg = dri.authz.registry
        bob = dri.workflows.personas["bob"].broker_sub
        record = dri.killswitch.contain_user(bob)
        assert str(record.details.get("pipeline", "")).startswith("rev-")
        assert reg.live_grants(reg.graph.identity_of(bob)) == []

        # containment is sticky: a grant acquired afterwards dies on the
        # next re-evaluation tick (risk pinned at 1.0)
        dri.broker.tokens.mint(bob, "jupyter", "researcher", ttl=3600)
        assert reg.live_grants(reg.graph.identity_of(bob))
        dri.clock.advance(REEVAL_INTERVAL + 0.1)
        assert reg.live_grants(reg.graph.identity_of(bob)) == []
        assert dri.authz.authorizer.revocations_triggered >= 1

    def test_assurance_drop_below_floor_revokes(self):
        dri = self._onboard(86)
        reg = dri.authz.registry
        bob = dri.workflows.personas["bob"].broker_sub
        assert reg.live_grants(reg.graph.identity_of(bob))
        dri.authz.authorizer.assurance_changed(bob, 0)  # below min_loa=1
        assert reg.live_grants(reg.graph.identity_of(bob)) == []
        intents = dri.authz.pipeline._iter_intents()
        assert any(i.reason.startswith("policy:assurance-below-floor")
                   for i in intents)


# ---------------------------------------------------------------------------
# chaos: the three new fault kinds
# ---------------------------------------------------------------------------
class TestAuthzFaults:
    def _onboard(self, seed, **kw):
        dri = build_isambard(seed=seed, authz=True, **kw)
        s1 = dri.workflows.story1_pi_onboarding("alice")
        dri.workflows.story3_researcher_setup(s1.data["project_id"], "alice")
        dri.workflows.story4_ssh_session("bob")
        return dri

    def test_pdp_down_fails_every_surface_closed(self):
        dri = self._onboard(87)
        bob = dri.workflows.personas["bob"].broker_sub
        account = dri.authz.registry.graph.accounts_of(bob)[0]
        bound = STALENESS_BOUND

        dri.faults.pdp_down()
        dri.clock.advance(bound + 1.0)
        with pytest.raises(ServiceUnavailable):
            dri.broker.tokens.mint(bob, "jupyter", "researcher")
        resp = dri.workflows.personas["bob"].ssh_client.ssh_direct(account)
        assert not resp.ok
        with pytest.raises(ServiceUnavailable):
            dri.slurm.submit(account, "proj-0001", nodes=1, walltime=60.0)
        assert dri.authz.guard.fail_closed_denials >= 3
        # denials are audited, not silently dropped
        assert dri.audit.query(action="authz.fail_closed")

    def test_pdp_down_within_bound_serves_stale(self):
        dri = self._onboard(88)
        bob = dri.workflows.personas["bob"].broker_sub
        dri.faults.pdp_down()
        dri.clock.advance(STALENESS_BOUND / 2)
        dri.broker.tokens.mint(bob, "jupyter", "researcher")
        assert dri.authz.guard.stale_allows >= 1
        assert dri.authz.guard.fail_closed_denials == 0

    def test_pdp_restore_after_heals_and_redrives(self):
        dri = self._onboard(89)
        bob = dri.workflows.personas["bob"].broker_sub
        bound = STALENESS_BOUND
        dri.faults.pdp_down(restore_after=bound + 10.0)
        dri.faults.teardown_stuck("ssh", duration=bound + 10.0)
        intent = dri.authz.pipeline.revoke(uid=bob, reason="incident")
        assert not intent.complete
        dri.clock.advance(bound + 11.0)
        assert dri.authz.pdp.up
        assert intent.complete            # the heal re-drove the outbox
        dri.broker.tokens.mint("ma-0001@myaccessid", "portal", "pi")

    def test_teardown_stuck_bounds_ttr(self):
        dri = self._onboard(90)
        bob = dri.workflows.personas["bob"].broker_sub
        stuck_for = 6.0
        dri.faults.teardown_stuck("compute", duration=stuck_for)
        intent = dri.authz.pipeline.revoke(uid=bob, reason="incident")
        assert intent.pending == ["compute"]
        # tokens and ssh died immediately; compute converges at unstick
        dri.clock.advance(stuck_for + 0.1)
        assert intent.complete
        assert intent.ttr() <= stuck_for + RETRY_INTERVAL
        assert dri.faults.teardowns_stuck == 1

    def test_revocation_storm_coalesces(self):
        dri = self._onboard(91)
        dri.faults.teardown_stuck("tokens", duration=5.0)
        identities = dri.authz.registry.identities_with_live_grants()
        storm = 30
        dri.faults.revocation_storm(storm)
        pipe = dri.authz.pipeline
        assert pipe.revocations <= len(identities)
        assert pipe.storms_coalesced == storm - pipe.revocations
        assert dri.faults.revocation_storms == 1
        dri.clock.advance(10.0)
        assert not pipe.pending_intents()
        assert dri.authz.registry.identities_with_live_grants() == []


# ---------------------------------------------------------------------------
# durability: the outbox survives a crash mid-revocation
# ---------------------------------------------------------------------------
class TestCrashMidRevocation:
    def test_outbox_resumes_after_crash(self):
        dri = build_isambard(seed=92, authz=True, durability=True)
        s1 = dri.workflows.story1_pi_onboarding("alice")
        dri.workflows.story3_researcher_setup(s1.data["project_id"], "alice")
        dri.workflows.story6_jupyter("bob")
        bob = dri.workflows.personas["bob"].broker_sub
        reg = dri.authz.registry

        # crash lands between the intent journal entry and enforcement
        for s in SURFACES:
            dri.authz.pipeline.stick(s)
        intent = dri.authz.pipeline.revoke(uid=bob, reason="incident")
        assert intent.pending == list(SURFACES)
        assert reg.live_grants(reg.graph.identity_of(bob))

        dri.crash("authz")
        assert dri.authz.pipeline.pending_intents() == []  # state wiped
        for s in SURFACES:
            dri.authz.pipeline.unstick(s)  # the new process is not wedged
        dri.restart("authz")

        assert dri.authz.pipeline.resumed == 1
        resumed = dri.authz.pipeline._iter_intents()[0]
        assert resumed.intent_id == intent.intent_id and resumed.complete
        assert reg.live_grants(reg.graph.identity_of(bob)) == []
        assert not [s for s in dri.jupyter.sessions() if s.subject == bob]

    def test_portal_crash_between_journal_and_enforcement(self):
        """Satellite: the portal journals a member revocation, crashes
        before the teardown hook runs, and recovery still completes the
        teardown — no orphaned Jupyter server."""
        dri = build_isambard(seed=93, authz=True, durability=True)
        s1 = dri.workflows.story1_pi_onboarding("alice")
        project_id = s1.data["project_id"]
        dri.workflows.story3_researcher_setup(project_id, "alice")
        dri.workflows.story6_jupyter("bob")
        alice = dri.workflows.personas["alice"]
        bob = dri.workflows.personas["bob"].broker_sub
        reg = dri.authz.registry
        assert [s for s in dri.jupyter.sessions() if s.subject == bob]

        # the crash window: the journal entry lands, on_revoke never runs
        real_hook = dri.portal.on_revoke
        dri.portal.on_revoke = lambda uid, project, account: None
        pi_token = dri.workflows.mint(
            alice, "portal", "pi", project=project_id).body["token"]
        resp, _ = alice.agent.post(
            make_url("portal", "/revoke_member"),
            {"project_id": project_id, "uid": bob},
            headers={"Authorization": f"Bearer {pi_token}"},
        )
        assert resp.ok, resp.body
        orphans = [s for s in dri.jupyter.sessions() if s.subject == bob]
        assert orphans, "precondition: the crash left an orphaned notebook"

        dri.crash("portal")
        dri.portal.on_revoke = real_hook
        dri.restart("portal")

        # verify_recovery resynced the revoked membership through the
        # pipeline: the orphan is gone and the ledger agrees
        assert not [s for s in dri.jupyter.sessions() if s.subject == bob]
        assert reg.live_grants(reg.graph.identity_of(bob)) == []
        intents = dri.authz.pipeline._iter_intents()
        assert any(i.reason == "portal-recovery-resync" and i.complete
                   for i in intents)


# ---------------------------------------------------------------------------
# kill switch x region partition: convergence inside the bound
# ---------------------------------------------------------------------------
class TestKillswitchAcrossPartition:
    def test_containment_converges_within_staleness_bound(self):
        """Satellite: contain a user during an inter-region partition;
        after the heal every region refuses the revoked token within the
        advertised staleness bound."""
        dri = build_isambard(seed=94, authz=True, regions=True)
        from repro.net.http import HttpRequest

        cfg = dri.region_config
        bound = cfg.staleness_bound
        token, rec = dri.broker.tokens.mint("mallory", "jupyter",
                                            "researcher", ttl=3600)
        dri.geo_router.pin("client-us", "us")
        req = lambda: HttpRequest("POST", "/introspect",
                                  body={"token": token}, source="client-us")
        assert dri.geo_router.handle(req()).body["active"] is True

        dri.faults.region_partition("eu", "us")
        t_contained = dri.clock.now()
        record = dri.killswitch.contain_user("mallory")
        assert str(record.details.get("pipeline", "")).startswith("rev-")
        reg = dri.authz.registry
        assert reg.live_grants(reg.graph.identity_of("mallory")) == []

        # the deaf region may serve stale only inside the bound...
        dri.clock.advance(bound + 0.1)
        assert dri.geo_router.handle(req()).body["active"] is False
        assert dri.clock.now() - t_contained > bound

        # ...and the heal flushes the parked revocations
        dri.region_directory.heal("eu", "us")
        us = dri.region_directory.region("us")
        assert us.revocations.is_revoked(rec.jti)
        assert dri.geo_router.handle(req()).body["active"] is False


# ---------------------------------------------------------------------------
# satellite: the tracewatch silent skip is now counted and audited
# ---------------------------------------------------------------------------
class TestTracewatchSkipVisibility:
    def test_topology_changed_span_is_counted_not_dropped(self):
        from repro.siem import TraceAnomalyScanner

        dri = build_isambard(seed=95)
        assert dri.workflows.story1_pi_onboarding("alice").ok
        scanner = TraceAnomalyScanner(
            dri.network, dri.telemetry.store,
            telemetry=dri.telemetry, audit=dri.logs["sec"])
        assert scanner.scan() == []

        # a boundary-crossing span whose source endpoint has vanished
        # (failover/teardown): un-evaluable against current policy
        now = dri.clock.now()
        dri.telemetry.tracer.record(
            "GET soc/alerts", start=now - 0.01, end=now, service="soc",
            kind="server", src="ghost-laptop", port=443,
            src_zone="external/internet", dst_zone="sec/security")
        assert scanner.scan() == []          # still no alert...
        assert scanner.skipped_spans == 1    # ...but no silent skip either
        skips = dri.logs["sec"].query(action="tracewatch.skip")
        assert len(skips) == 1
        assert skips[0].attrs["reason"] == "topology-changed"
        assert dri.telemetry.tracewatch_skips.total() == 1.0

        # re-scan does not double-count the same span
        assert scanner.scan() == []
        assert scanner.skipped_spans == 1
