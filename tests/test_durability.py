"""Crash-fault tolerance: journaling, recovery, fencing and failover.

Tier-1 coverage for PR 3 (`repro.resilience.durability` + the deployment
wiring).  The invariants asserted here are the acceptance criteria of
the crash/recovery ablation (ABL8):

* replay is deterministic and idempotent — recovering twice from the
  same journal yields bit-identical state hashes;
* the audit hash chain verifies across a crash boundary;
* CA serials stay strictly monotonic through crash/restart;
* a revoked credential is never resurrected by a recovery — and with
  journaling *off*, it demonstrably is (the negative control);
* a deposed primary is fenced at the journal (EpochFenced) and its
  unregistered certificates are refused at the sshd;
* failover promotes the standby within the controller's budget.
"""

import pytest

from repro.audit import Outcome
from repro.core import build_isambard
from repro.errors import ConfigurationError, EpochFenced, ServiceUnavailable
from repro.net.http import HttpRequest
from repro.siem import SHIPPED_ATTRS
from repro.sshca.certificate import SshKeyPair, issue_certificate
from repro.tunnels.zenith import TOKEN_HEADER
from tests.conftest import capture_ingest, wire_record

pytestmark = pytest.mark.durability

SERVICES = ("broker", "portal", "ssh-ca", "idp-lastresort")


def onboarded(dri):
    """Standard pre-crash population: a project, a PI, a researcher with
    an SSH session and a notebook, an admin, and an external user."""
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi", project_name="crash-proj")
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    assert wf.story2_admin_registration("ops1").ok
    wf.create_external_user("vendor", "vendor@supplier.example")
    assert wf.story3_researcher_setup(project_id, "pi", "res1").ok
    assert wf.story4_ssh_session("res1").ok
    assert wf.story6_jupyter("res1").ok
    assert wf.story5_privileged_operation("ops1").ok
    return project_id


def run_all_stories(dri, project_id, suffix):
    """All six user stories, with fresh personas where the story creates
    one; returns the list of StoryResults."""
    wf = dri.workflows
    return [
        wf.story1_pi_onboarding(f"pi{suffix}", project_name=f"proj{suffix}"),
        wf.story2_admin_registration(f"ops{suffix}"),
        wf.story3_researcher_setup(project_id, "pi", f"res{suffix}"),
        wf.story4_ssh_session(f"res{suffix}"),
        wf.story5_privileged_operation(f"ops{suffix}"),
        wf.story6_jupyter(f"res{suffix}"),
    ]


# ======================================================================
# journaling + recovery
# ======================================================================
def test_replay_is_deterministic_and_idempotent():
    """Property: recover() is a pure function of the journal — the
    state hash equals the pre-crash hash, and replaying again (double
    recovery) reproduces it bit-for-bit."""
    dri = build_isambard(seed=81, durability=True)
    project_id = onboarded(dri)
    assert project_id
    targets = {
        "broker": dri.broker,
        "portal": dri.portal,
        "ssh-ca": dri.ssh_ca,
        "idp-lastresort": dri.lastresort,
        "audit-fds": dri.logs["fds"],
    }
    for name, svc in targets.items():
        before = svc.state_hash()
        dri.crash(name)
        report = dri.restart(name)
        assert report is not None, name
        assert report.state_hash == before, f"{name}: replay diverged"
        again = svc.recover()
        assert again.state_hash == before, f"{name}: replay not idempotent"
        assert again.entries_replayed == report.entries_replayed


def test_crash_recover_every_service_preserves_invariants():
    """Crash + restart each stateful service in turn, then run all six
    user stories: nothing the control plane promised is lost."""
    dri = build_isambard(seed=82, durability=True)
    wf = dri.workflows
    project_id = onboarded(dri)

    # a revoked token must stay dead across every recovery
    minted = wf.mint(wf.personas["pi"], "jupyter", "pi").body
    revoked_jti = str(minted["jti"])
    assert dri.broker.tokens.revoke_jti(revoked_jti)
    serial_before = dri.ssh_ca._serial
    assert serial_before > 0

    for name in SERVICES:
        dri.crash(name)
        # while down, traffic fails loudly (no silent stale answers)
        if name == "broker":
            with pytest.raises(ServiceUnavailable):
                wf.mint(wf.personas["pi"], "jupyter", "pi")
        report = dri.restart(name)
        assert report is not None
        assert report.entries_replayed >= 0

    # the six stories all pass on the recovered control plane
    results = run_all_stories(dri, project_id, "2")
    assert all(r.ok for r in results), [
        (r.story, r.steps) for r in results if not r.ok]

    # security invariants held through every crash
    assert dri.broker.tokens.is_invalid(revoked_jti)
    assert dri.ssh_ca._serial > serial_before       # strictly monotonic
    for log in dri.logs.values():
        ok, bad = log.verify_chain()
        assert ok, f"audit chain broke at event {bad} in {log.name}"


def test_broker_session_survives_crash():
    """Sessions are journaled: a logged-in persona keeps working after a
    broker crash/restart without re-authenticating."""
    dri = build_isambard(seed=83, durability=True)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("olu").ok
    dri.crash("broker")
    report = dri.restart("broker")
    assert report is not None and report.entries_replayed >= 0
    # same cookies, no fresh login — the recovered broker honours them
    resp = wf.mint(wf.personas["olu"], "jupyter", "pi")
    assert resp.ok, resp.body


def test_mid_request_crash_fails_inflight_then_recovers():
    """A crash scheduled to land while a request is in flight drops the
    connection (audited), and the restarted service serves again."""
    dri = build_isambard(seed=84, durability=True)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    dri.faults.crash("broker", at=dri.clock.now() + dri.network.hop_latency / 2)
    with pytest.raises(ServiceUnavailable):
        wf.mint(wf.personas["pi"], "jupyter", "pi")
    assert dri.logs["network"].count(action="endpoint.crashed_inflight") >= 1
    assert dri.restart("broker") is not None
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok


def test_cold_restart_without_journaling_loses_state():
    """Negative control: durability off means a crash resurrects revoked
    tokens and forgets sessions — exactly what ABL8 demonstrates."""
    dri = build_isambard(seed=85)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    minted = wf.mint(wf.personas["pi"], "jupyter", "pi").body
    token, jti = str(minted["token"]), str(minted["jti"])
    assert dri.broker.tokens.revoke_jti(jti)
    denied = dri.jupyter.handle(
        HttpRequest("GET", "/", headers={TOKEN_HEADER: token}))
    assert not denied.ok

    dri.crash("broker")
    assert dri.restart("broker") is None        # nothing to replay
    # the revocation list died with the process: signature-based local
    # validation accepts the revoked token again — the resurrection
    # journaling exists to prevent
    assert not dri.broker.tokens.is_revoked(jti)
    claims = dri.validator_for("jupyter").validate(token)
    assert str(claims["jti"]) == jti
    # and the persona's session is gone: the same cookies now bounce
    assert not wf.mint(wf.personas["pi"], "jupyter", "pi").ok


def test_audit_log_crash_preserves_hash_chain():
    """The audit chain verifies across a crash boundary and keeps
    extending from the recovered head."""
    dri = build_isambard(seed=86, durability=True)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    log = dri.logs["fds"]
    n_before = len(log)
    assert n_before > 0
    dri.crash("audit-fds")
    assert len(log) == 0
    report = dri.restart("audit-fds")
    assert report is not None
    assert len(log) == n_before
    ok, bad = log.verify_chain()
    assert ok, f"chain broke at {bad}"
    # events recorded after recovery chain onto the recovered head
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok
    assert len(log) > n_before
    assert log.verify_chain()[0]


def _ship_once(scenario):
    """Run ``scenario`` on a seed-87 build and check that the SOC received
    every log's accepted records once each, in emission order — except a
    run a cold log restart wiped before it shipped, which its forwarder
    counts as ``lost``.  Returns the forwarders by name."""
    dri = build_isambard(seed=87, durability=scenario != "cold-log")
    wf = dri.workflows
    received = capture_ingest(dri.soc)
    fws = {fw.name: fw for fw in dri.forwarders}
    emitted, starts = {}, {}
    for name, fw in fws.items():
        log = dri.logs[name[len("fw-"):]]
        starts[name] = fw.position
        emitted[name] = log.read(fw.position, fw.actions_filter,
                                 SHIPPED_ATTRS)

        def collect(event, name=name, prefixes=fw.actions_filter):
            if event.action.startswith(prefixes):
                emitted[name].append(wire_record(event))
        log.subscribe(collect)

    assert wf.story1_pi_onboarding("pi").ok
    fw, log = fws["fw-fds"], dri.logs["fds"]
    wiped = slice(0, 0)
    if scenario == "fw-crash":
        dri.crash("fw-fds")
        assert fw.buffered() == 0               # the crash really bit
        assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok
        assert dri.restart("fw-fds") is not None
    elif scenario == "log-crash":
        dri.crash("audit-fds")
        dri.clock.advance(3 * fw.interval)      # flushes while it is down
        assert dri.restart("audit-fds") is not None
    elif scenario == "soc-outage":
        dri.ship_logs()
        dri.faults.outage("soc", duration=3 * fw.interval)
        assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok
        dri.ship_logs()
        dri.clock.advance(4 * fw.interval)      # timer flushes fail, then pass
        assert fw.sink_failures > 0
    else:                                       # a cold restart of the log
        wiped = slice(fw.position - starts["fw-fds"],
                      log.position - starts["fw-fds"])
        assert wiped.stop > wiped.start         # unshipped records to wipe
        dri.crash("audit-fds")
        assert dri.restart("audit-fds") is None
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok
    dri.ship_logs()

    # a received record is told to its log by its source: no two share one
    sources = {name: {r["source"] for r in emitted[name]} for name in fws}
    assert sum(map(len, sources.values())) == len(set().union(*sources.values()))
    for name, fw in fws.items():
        want = emitted[name]
        if name == "fw-fds":
            want = want[:wiped.start] + want[wiped.stop:]
        got = [r for r in received if r["source"] in sources[name]]
        assert got == want, name
        assert fw.buffered() == 0, name
        lost = wiped.stop - wiped.start if name == "fw-fds" else 0
        assert fw.lost == lost, name
    return fws


def test_forwarder_restart_keeps_pre_crash_events():
    """A forwarder crash loses nothing it had not shipped: the restarted
    forwarder resumes from its journaled position and ships what was
    logged before the crash and while it was down, once each."""
    assert _ship_once("fw-crash")["fw-fds"].shipped > 0


@pytest.mark.parametrize("scenario", ["log-crash", "soc-outage", "cold-log"])
def test_every_accepted_record_reaches_the_soc_once(scenario):
    """Whatever goes down — the log store (journaled or cold) or the SOC —
    each accepted record is shipped exactly once, in emission order; only
    what a cold restart wiped unshipped is lost, and it is counted."""
    _ship_once(scenario)


def test_a_batch_the_soc_refuses_stays_in_the_log():
    """A refusal is not a shipment: a batch the SOC answers with a 403
    stays in the log and counts as a sink failure, and it ships once
    when the SOC accepts again."""
    dri = build_isambard(seed=7)
    fw = next(f for f in dri.forwarders if f.name == "fw-fds")
    received = capture_ingest(dri.soc)
    allowed = dri.soc.allowed_svid_prefixes
    dri.soc.allowed_svid_prefixes = ("spiffe://isambard.example/nobody",)
    shipped, ingested = fw.shipped, dri.soc.records_ingested
    dri.logs["fds"].record(dri.clock.now(), "test", "system", "test.note",
                           "-", Outcome.INFO)
    dri.clock.advance(30.0)
    assert (fw.shipped, dri.soc.records_ingested) == (shipped, ingested)
    assert fw.sink_failures > 0 and "403" in fw.last_sink_error
    waiting = fw.buffered()
    assert waiting > 0 and fw.lost == 0
    dri.soc.allowed_svid_prefixes = allowed
    dri.clock.advance(30.0)
    assert (fw.shipped, fw.buffered()) == (shipped + waiting, 0)
    assert [r["action"] for r in received if r["source"] == "test"] == [
        "test.note"]


@pytest.mark.parametrize("retain", [True, False], ids=["retained", "dropped"])
def test_a_failed_flush_recovers_to_its_live_state(retain):
    """A flush the SOC refuses either keeps its batch in the log or —
    legacy mode — gives it up; either way a restart from the journal
    reproduces the forwarder the flush left (``sink_failures`` is a
    statistic, and a drop commits its position and ``lost``)."""
    dri = build_isambard(seed=87, durability=True)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    dri.ship_logs()
    dri.faults.outage("soc")
    fw = next(f for f in dri.forwarders if f.name == "fw-fds")
    fw.retain_on_failure = retain
    wf.mint(wf.personas["pi"], "jupyter", "pi")
    assert fw.flush() == 0 and fw.sink_failures == 1
    live = (fw.state_hash(), fw.lost, fw.buffered())
    assert live[1:] == ((0, 1) if retain else (1, 0))
    dri.crash("fw-fds")
    assert dri.restart("fw-fds").state_hash == live[0]
    assert (fw.state_hash(), fw.lost, fw.buffered()) == live


def test_filtering_forwarder_recovers_to_its_live_state_hash():
    """``dropped`` counts events the agreed-actions filter kept out of
    the pipeline; nothing journals a drop, so it is a statistic and no
    part of the durable state a recovery must reproduce."""
    dri = build_isambard(seed=89, durability=True)
    assert dri.workflows.story1_pi_onboarding("pi").ok
    dri.ship_logs()                             # a flush counts what it filters
    fw = next(f for f in dri.forwarders if f.name == "fw-network")
    assert fw.dropped > 0                       # it has filtered events
    before = fw.state_hash()
    dri.crash("fw-network")
    assert dri.restart("fw-network").state_hash == before
    assert fw.state_hash() == before
    assert fw.dropped == 0                      # the statistic restarts


def test_portal_restart_loads_a_populated_snapshot():
    """Every other portal restart replays from the empty baseline taken
    at attach; after a checkpoint the snapshot itself holds projects,
    users and UNIX accounts, and the journal tail replays on top."""
    dri = build_isambard(seed=90, durability=True)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi")
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    assert wf.story3_researcher_setup(project_id, "pi", "res1").ok
    dri.portal.checkpoint()
    assert wf.story3_researcher_setup(project_id, "pi", "res2").ok
    before = dri.portal.state_hash()
    dri.crash("portal")
    report = dri.restart("portal")
    assert report.state_hash == before
    assert report.entries_replayed > 0          # res2, past the snapshot
    assert wf.relogin(wf.personas["res2"]).ok


def test_unknown_crash_target_is_rejected():
    dri = build_isambard(seed=88, durability=True)
    with pytest.raises(ConfigurationError):
        dri.crash("no-such-service")
    with pytest.raises(ConfigurationError):
        dri.restart("no-such-service")


# ======================================================================
# fencing + failover
# ======================================================================
def test_failover_promotes_within_budget_and_fences_deposed_broker():
    dri = build_isambard(seed=89, failover=True)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi", project_name="ha-proj")
    assert s1.ok
    project_id = str(s1.data["project_id"])
    old_broker = dri.broker

    t_crash = dri.clock.now()
    dri.crash("broker")
    dri.clock.advance(dri.failover.budget + 0.5)

    pair = dri.failover.pairs["broker"]
    assert pair.promoted
    assert dri.broker is not old_broker
    assert pair.promoted_at - t_crash <= dri.failover.budget

    # the journal fences the deposed primary: its mint aborts with
    # nothing written (WAL-before-mutation), so no zombie tokens exist
    with pytest.raises(EpochFenced):
        old_broker.tokens.mint("zombie", "jupyter", "pi")
    assert len(old_broker.tokens._issued) == 0  # WAL aborted pre-mutation
    assert dri.durability.stream("broker").fenced_appends >= 1

    # the promoted standby serves the full workload: existing sessions
    # (replayed from the journal) and brand-new onboarding both work
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok
    assert wf.story3_researcher_setup(project_id, "pi", "res-ha").ok
    assert wf.story6_jupyter("res-ha").ok


def test_fenced_ex_primary_certificates_rejected_everywhere():
    """Regression: even a zombie CA that bypasses the journal entirely
    (signs locally with the vaulted key) produces certificates the sshd
    refuses — their serials were never durably registered."""
    dri = build_isambard(seed=90, failover=True)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi", project_name="fence-proj")
    assert s1.ok
    assert wf.story3_researcher_setup(str(s1.data["project_id"]), "pi", "res1").ok
    s4 = wf.story4_ssh_session("res1")
    assert s4.ok
    principal = str(s4.data["principal"])
    old_ca = dri.ssh_ca

    dri.crash("ssh-ca")
    dri.clock.advance(dri.failover.budget + 0.5)
    assert dri.failover.pairs["ssh-ca"].promoted
    assert dri.ssh_ca is not old_ca

    # layer 1 — the journal: the deposed CA cannot commit a signature
    with pytest.raises(EpochFenced):
        old_ca.provision_host_certificate(
            "evil-host", SshKeyPair.generate().public_jwk())

    # layer 2 — verification: a cert the zombie signs *off the books*
    # (journal unplugged, real CA key, valid signature) is still refused
    old_ca.journal = None
    mallory = SshKeyPair.generate()
    now = dri.clock.now()
    forged = issue_certificate(
        old_ca.ca_key, serial=old_ca._serial + 1000, key_id="mallory",
        public_key_jwk=mallory.public_jwk(), principals=[principal],
        valid_after=now, valid_before=now + 3600.0,
    )
    sshd = dri.login_sshd
    challenge = f"{sshd.name}|{principal}".encode()
    refused = sshd.handle(HttpRequest("POST", "/session", body={
        "principal": principal, "certificate": forged,
        "proof": mallory.prove_possession(challenge).hex(),
    }))
    assert not refused.ok
    assert "issuance registry" in str(refused.body)

    # while certificates the *legitimate* lineage signed keep working:
    # the promoted CA issues, registers, and the sshd admits
    persona = wf.personas["res1"]
    assert persona.ssh_client.request_certificate().ok
    assert wf.story4_ssh_session("res1").ok


def test_restart_of_promoted_pair_rejoins_as_fenced_standby():
    """dri.restart() on a failed-over service brings the ex-primary back
    as the standby — caught up, parked, and still fenced."""
    dri = build_isambard(seed=91, failover=True)
    wf = dri.workflows
    assert wf.story1_pi_onboarding("pi").ok
    old_broker = dri.broker
    dri.crash("broker")
    dri.clock.advance(dri.failover.budget + 0.5)
    assert dri.failover.pairs["broker"].promoted

    report = dri.restart("broker")
    assert report is not None
    pair = dri.failover.pairs["broker"]
    assert not pair.promoted                # supervision resumed
    assert pair.standby is old_broker       # parked as the new standby
    assert pair.primary is dri.broker
    assert dri.network.has_endpoint("broker-standby")
    # caught up on the journal, but still not a legitimate writer
    with pytest.raises(EpochFenced):
        old_broker.tokens.mint("zombie", "jupyter", "pi")
    # and the active broker keeps serving through all of it
    assert wf.mint(wf.personas["pi"], "jupyter", "pi").ok


def test_promotion_keeps_the_admission_and_retry_wiring():
    """A promoted standby sheds and retries as its primary did: the
    overload tier's admission controllers and the broker's retry kit
    move across with the bus and the session registry."""
    dri = build_isambard(seed=12, overload=True, failover=True)
    broker, ca = dri.broker, dri.ssh_ca
    assert broker.admission and broker.resilience and ca.admission
    dri.crash("broker")
    dri.crash("ssh-ca")
    dri.clock.advance(30.0)
    assert dri.broker is not broker and dri.ssh_ca is not ca
    assert dri.broker.admission is broker.admission
    assert dri.broker.resilience is broker.resilience
    assert dri.ssh_ca.admission is ca.admission


# ======================================================================
# checkpoint cadence and write-ahead ordering
# ======================================================================
def _crash_and_compare(svc):
    before = svc.state_hash()
    svc.wipe_state()
    assert svc.recover().state_hash == before


@pytest.mark.parametrize("kind", ["ca.sign", "rbac.mint", "oidc.session"])
def test_mutation_at_the_snapshot_cadence_survives_a_crash(kind):
    """The periodic checkpoint is taken *before* the entry that trips the
    cadence is appended.  Taken after it, the snapshot lacked the
    mutation (an entry is applied once ``_jpublish`` returns) whose entry it
    had just truncated: every 256th certificate, token or session was
    lost on crash, and the CA reused the lost serial."""
    dri = build_isambard(seed=1, durability=True)
    ca, broker = dri.ssh_ca, dri.broker
    jwk = SshKeyPair.generate().public_jwk()

    def sign(i):
        ca.provision_host_certificate(f"host-{i}", jwk)
        serial = ca._serial
        return lambda: ca._serial >= serial and serial in ca._issued_certs

    def mint(i):
        jti = broker.tokens.mint(f"user-{i}", "jupyter", "researcher")[1].jti
        return lambda: jti in broker.tokens._issued

    def session(i):
        sid = broker.create_session(f"user-{i}", {}, amr=["pwd"]).sid
        return lambda: broker.sessions.get(sid) is not None

    svc, mutate = {"ca.sign": (ca, sign), "rbac.mint": (broker, mint),
                   "oidc.session": (broker, session)}[kind]
    checkpoints = svc.journal.snapshots
    made = []
    while svc.journal.snapshots == checkpoints:
        made.append(mutate(len(made)))
    # on the boundary, then one and two mutations past it
    for _ in range(3):
        _crash_and_compare(svc)
        assert all(still_there() for still_there in made[-4:])
        made.append(mutate(len(made)))
    if kind == "ca.sign":
        assert ca._serial == len(made) + 2    # two host certs at build time
        assert sorted(ca._issued_certs) == list(range(1, ca._serial + 1))


def test_fenced_writer_neither_appends_nor_checkpoints():
    """A deposed writer whose journal is due a checkpoint must not take
    one: its stale state would truncate the new writer's entries."""
    dri = build_isambard(seed=2, durability=True)
    ca = dri.ssh_ca
    jwk = SshKeyPair.generate().public_jwk()
    for _ in range(ca.snapshot_every - ca.journal.pending_entries()):
        ca.provision_host_certificate("host", jwk)
    assert ca.journal.pending_entries() == ca.snapshot_every
    ca.journal.acquire_epoch()                  # someone else was promoted
    snapshots, serial = ca.journal.snapshots, ca._serial
    with pytest.raises(EpochFenced):
        ca.provision_host_certificate("late", jwk)
    assert ca.journal.snapshots == snapshots
    assert ca.journal.pending_entries() == ca.snapshot_every
    assert ca._serial == serial


def test_fenced_audit_emit_changes_nothing():
    """``AuditLog.emit`` is write-ahead like every other Durable: with a
    stale epoch it raises before the chain, the trail or any subscriber
    has seen the event — so log and journal cannot disagree."""
    dri = build_isambard(seed=3, durability=True)
    log = dri.logs["fds"]
    log.record(0.0, "test", "alice", "probe", "r", "info")
    head, length, appends = log._head, len(log), log.journal.appends
    seen = []
    log.subscribe(seen.append)
    log.journal.acquire_epoch()
    with pytest.raises(EpochFenced):
        log.record(1.0, "test", "alice", "probe", "r", "info")
    assert (log._head, len(log), log.journal.appends) == (head, length, appends)
    assert seen == []
    report = log.recover()                      # re-acquires the epoch
    assert report.state_hash == log.state_hash()
    assert len(log) == length and log.verify_chain()[0]
    log.record(2.0, "test", "alice", "probe", "r", "info")
    assert len(log) == length + 1 and len(seen) == 1


def _fenced_session(dri):
    return dri.broker, lambda: dri.broker.create_session(
        "zombie", {}, amr=["pwd"])


def _fenced_code(dri):
    broker = dri.broker
    broker.register_client("fenced-rp", ["https://fenced-rp/cb"])
    sid = broker.create_session("zombie", {}, amr=["pwd"]).sid
    request = HttpRequest("GET", "/authorize", headers={"Cookie": f"sid={sid}"},
                          query={"client_id": "fenced-rp",
                                 "redirect_uri": "https://fenced-rp/cb",
                                 "response_type": "code",
                                 "code_challenge": "c"})
    return broker, lambda: broker.authorize(request)


def _fenced_mint(dri):
    return dri.broker, lambda: dri.broker.tokens.mint(
        "zombie", "jupyter", "researcher")


def _fenced_ca_sign(dri):
    token, _ = dri.broker.tokens.mint("broker-service", "ssh-ca", "service")
    request = HttpRequest("POST", "/sign",
                          headers={"Authorization": f"Bearer {token}"},
                          body={"key_id": "zombie", "principals": ["zombie"],
                                "public_key_jwk": SshKeyPair.generate().public_jwk()})
    return dri.ssh_ca, lambda: dri.ssh_ca.sign(request)


def _fenced_portal_accept(dri):
    from repro.broker.rbac import Role

    project_id = str(dri.workflows.story1_pi_onboarding("pi").data["project_id"])
    code = dri.portal._make_invitation(project_id, Role.RESEARCHER,
                                       "zombie@uni.example", invited_by="pi")
    token, _ = dri.broker.tokens.mint(
        "zombie", "portal", "invitee", extra_claims={"email": "zombie@uni.example"})
    request = HttpRequest("POST", "/invitations/accept",
                          headers={"Authorization": f"Bearer {token}"},
                          body={"code": code, "preferred_username": "zombie"})
    return dri.portal, lambda: dri.portal.accept_invitation(request)


def _fenced_intent(dri):
    pipeline = dri.authz.pipeline
    return pipeline, lambda: pipeline.revoke(uid="zombie", reason="test")


@pytest.mark.parametrize("mutation", [
    _fenced_session, _fenced_code, _fenced_mint, _fenced_ca_sign,
    _fenced_portal_accept, _fenced_intent], ids=lambda f: f.__name__[8:])
def test_a_fenced_writer_changes_nothing(mutation):
    """Every journaled mutation is committed — appended, then applied —
    so a deposed writer raises at the append with its state untouched.
    ``create_session`` once stored the session, ``portal.accept``
    allocated the UNIX account and the pipeline drew its intent number
    before the refused append."""
    dri = build_isambard(seed=5, durability=True, authz=True)
    svc, mutate = mutation(dri)
    svc.journal.acquire_epoch()                 # someone else was promoted
    before, appends = svc.state_hash(), svc.journal.appends
    with pytest.raises(EpochFenced):
        mutate()
    assert svc.state_hash() == before
    assert svc.journal.appends == appends


def test_a_refused_registration_keeps_its_invitation():
    """``LastResortIdP.register`` popped the invitation before checking
    the username and password: a refusal burned the code in the live
    state only, and a crash and restart brought it back."""
    from repro.errors import RegistrationError

    dri = build_isambard(seed=1, durability=True)
    idp = dri.lastresort
    code = idp.invite("vendor@supplier.example")
    register = {"invite_code": code, "username": "vendor",
                "password": "short"}
    with pytest.raises(RegistrationError):
        idp.register(HttpRequest("POST", "/register", body=register))
    live = idp.state_hash()
    dri.crash("idp-lastresort")
    assert dri.restart("idp-lastresort").state_hash == live
    resp = idp.register(HttpRequest("POST", "/register", body={
        **register, "password": "long-enough-password"}))
    assert resp.body["registered"] == "vendor"
    assert code not in idp._invitations


def test_dict_attr_key_order_survives_the_journal():
    """The journal stores sorted-key JSON, so ``emit`` normalises dict
    attrs to that order before it digests them: what recovery reads back
    is what was chained."""
    dri = build_isambard(seed=4, durability=True)
    log = dri.logs["fds"]
    event = log.record(0.0, "test", "alice", "probe", "r", "info",
                       detail={"b": 1, "a": {"z": 2, "y": 3}})
    dri.crash("audit-fds")
    assert dri.restart("audit-fds") is not None
    assert log.verify_chain() == (True, None)
    assert log.events()[-1].digest == event.digest == log._head


# ======================================================================
# replay branches: mutate past the last checkpoint, crash, restart
# ======================================================================
def _restart_matches_live(dri, name, svc):
    """Crash ``name`` and restart it: the recovered state hash is the
    live one, and the journal tail past the checkpoint was replayed."""
    before = svc.state_hash()
    dri.crash(name)
    report = dri.restart(name)
    assert report.state_hash == before
    assert report.entries_replayed > 0


def test_oidc_client_logout_and_code_replay_survive_a_restart():
    """``OidcProvider.apply_entry`` for ``oidc.client``,
    ``oidc.session_revoked`` and ``oidc.code_replayed``: a client
    registered, a session logged out and a replayed code's tokens
    revoked after the checkpoint all come back from the journal tail."""
    dri = build_isambard(seed=94, durability=True)
    broker = dri.broker
    session = broker.create_session("replay-sub", {"name": "R"}, amr=["pwd"])
    cookie = {"Cookie": f"sid={session.sid}"}
    broker.checkpoint()

    client = broker.register_client("replay-rp", ["https://replay-rp/cb"],
                                    confidential=True)
    authorized = broker.handle(HttpRequest("GET", "/authorize", headers=cookie,
                                           query={"client_id": "replay-rp",
                                                  "redirect_uri": "https://replay-rp/cb",
                                                  "response_type": "code"}))
    code = authorized.headers["Location"].split("code=")[1]
    redeem = {"grant_type": "authorization_code", "code": code,
              "client_id": "replay-rp", "client_secret": client.client_secret,
              "redirect_uri": "https://replay-rp/cb"}
    token = broker.handle(HttpRequest("POST", "/token", body=redeem))
    access = token.body["access_token"]
    replayed = broker.handle(HttpRequest("POST", "/token", body=redeem))
    assert replayed.status == 400 and "revoked" in replayed.body["error"]
    assert broker.handle(HttpRequest("POST", "/logout", headers=cookie)).ok

    live = broker.state_hash()
    _restart_matches_live(dri, "broker", broker)
    assert broker.state_hash() == live
    # the client is known: a bad code, not an unknown client
    bad = broker.handle(HttpRequest("POST", "/token",
                                    body={**redeem, "code": "nope"}))
    assert (bad.status, bad.body["error"]) == (400, "invalid code")
    # the logged-out session stays logged out
    again = broker.handle(HttpRequest("GET", "/authorize", headers=cookie,
                                      query={"client_id": "replay-rp",
                                             "redirect_uri": "https://replay-rp/cb",
                                             "response_type": "code"}))
    assert again.status == 401 and again.body["login_required"]
    # the replayed code's tokens stay revoked
    introspected = broker.handle(HttpRequest("POST", "/introspect",
                                             body={"token": access}))
    assert introspected.body == {"active": False}


def test_admin_revoke_and_access_revoke_survive_a_broker_restart():
    """``IdentityBroker.apply_entry`` for ``broker.admin_revoke`` and
    ``broker.revoke_access``: an admin role withdrawn and a user's OIDC
    access tokens revoked after the checkpoint stay so."""
    from repro.broker.rbac import Role

    dri = build_isambard(seed=95, durability=True)
    wf = dri.workflows
    assert onboarded(dri)
    broker = dri.broker
    res1 = wf.personas["res1"].broker_sub
    minted = [jti for jti, rec in broker._issued.items()
              if rec["subject"] == res1]
    assert minted, "precondition: the notebook login minted OIDC tokens"
    admin = wf.personas["ops1"].broker_sub
    broker.grant_admin_role(admin, Role.ADMIN_SECURITY)
    broker.checkpoint()

    broker.revoke_admin_role(admin, Role.ADMIN_SECURITY)   # one role ...
    assert broker._admin_roles[admin] == {Role.ADMIN_INFRA}
    broker.revoke_admin_role(admin)                        # ... then all
    broker.sever(res1, "killswitch")
    kinds = [e.kind for e in broker.journal.load()[1]]
    assert kinds.count("broker.admin_revoke") == 2
    assert "broker.revoke_access" in kinds

    live = broker.state_hash()
    _restart_matches_live(dri, "broker", broker)
    assert broker.state_hash() == live
    assert broker._admin_roles[admin] == set()
    assert all(jti in broker._revoked_jtis for jti in minted)
    # the admin authenticates upstream but holds no role any more
    s5 = wf.story5_privileged_operation("ops1")
    assert not s5.ok and "no administrative role" in str(s5.steps[-1])
    # the revoked researcher's broker session is gone with its tokens
    assert not wf.mint(wf.personas["res1"], "jupyter", "researcher").ok


@pytest.mark.authz
def test_revocation_intent_in_the_snapshot_resumes_after_a_restart():
    """``RevocationPipeline.load_state`` with an in-flight intent: the
    checkpoint holds a half-driven revocation, one more surface confirms
    after it, and the restarted pipeline finishes the rest."""
    from repro.authz.config import SURFACES

    dri = build_isambard(seed=96, authz=True, durability=True)
    s1 = dri.workflows.story1_pi_onboarding("alice")
    assert dri.workflows.story3_researcher_setup(
        s1.data["project_id"], "alice", "bob").ok
    assert dri.workflows.story6_jupyter("bob").ok
    bob = dri.workflows.personas["bob"].broker_sub
    pipeline, reg = dri.authz.pipeline, dri.authz.registry
    for surface in SURFACES:
        pipeline.stick(surface)
    intent = pipeline.revoke(uid=bob, reason="incident")
    pipeline.checkpoint()                       # the intent is in the snapshot
    pipeline.unstick(SURFACES[0])               # and one surface after it
    assert intent.pending == list(SURFACES[1:])

    before = pipeline.state_hash()
    dri.crash("authz")
    for surface in SURFACES[1:]:
        pipeline.unstick(surface)               # the new process is not wedged
    report = dri.restart("authz")
    # recovered exactly as it stood; then verify_recovery resumed it
    assert report.state_hash == before
    assert report.entries_replayed > 0
    assert pipeline.resumed == 1
    [resumed] = pipeline._iter_intents()
    assert resumed.intent_id == intent.intent_id and resumed.complete
    assert resumed.done[SURFACES[0]] == intent.done[SURFACES[0]]
    assert reg.live_grants(reg.graph.identity_of(bob)) == []
    assert not [s for s in dri.jupyter.sessions() if s.subject == bob]


# ======================================================================
# the broker's memory of the tokens it minted is volatile
# ======================================================================
def _token_story(dri):
    """Onboard, use SSH and a notebook, mint one token; returns it."""
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi", project_name="mem-proj")
    project_id = str(s1.data["project_id"])
    assert wf.story3_researcher_setup(project_id, "pi", "res1").ok
    assert wf.story4_ssh_session("res1").ok
    assert wf.story6_jupyter("res1").ok
    minted = wf.mint(wf.personas["res1"], "jupyter", "researcher",
                     project=project_id)
    assert minted.ok, minted.body
    return str(minted.body["token"])


def _introspect(dri, token):
    agent = dri.workflows.personas["res1"].agent
    return agent.call(
        "broker", HttpRequest("POST", "/introspect", body={"token": token}))


def _journaled_bytes(dri):
    return {
        name: (journal._snapshot, tuple(map(journal.text, journal._sealed)),
               tuple((e.seq, e.time, e.epoch, e.kind, journal.text(e.body))
                     for e in journal._entries))
        for name, journal in sorted(dri.durability._streams.items())}


def test_recognition_changes_no_journaled_byte(monkeypatch):
    """Differential: the same story on a broker that recognises its
    tokens and on one that checks every signature (the parent's
    behaviour) leaves identical journals, snapshots, state hashes and
    audit heads."""
    from repro.broker import IdentityBroker

    def run():
        dri = build_isambard(seed=97, durability=True)
        token = _token_story(dri)
        assert _introspect(dri, token).body["active"] is True
        return dri

    recognising = run()
    assert recognising.broker.tokens._minted and recognising.broker._minted
    monkeypatch.setattr(IdentityBroker, "_recognises",
                        lambda self, token: False)
    checking = run()
    assert _journaled_bytes(recognising) == _journaled_bytes(checking)
    assert recognising.broker.state_hash() == checking.broker.state_hash()
    assert ({n: log._head for n, log in recognising.logs.items()}
            == {n: log._head for n, log in checking.logs.items()})
    assert "_minted" not in str(recognising.broker.durable_state())


def test_restarted_broker_verifies_pre_crash_tokens_for_real():
    from tests.test_hot_path_bookkeeping import count_real_verifications

    dri = build_isambard(seed=98, durability=True)
    before = _token_story(dri)
    live_hash = dri.broker.state_hash()
    dri.crash("broker")
    assert not dri.broker._minted and not dri.broker.tokens._minted
    report = dri.restart("broker")
    assert report.state_hash == live_hash == dri.broker.state_hash()

    real = count_real_verifications(dri.broker.jwks)
    assert not dri.broker._recognises(before)
    assert _introspect(dri, before).body["active"] is True
    assert real() == 1  # the record was replayed, the bytes were not
    wf = dri.workflows
    after = wf.mint(wf.personas["res1"], "jupyter", "researcher")
    assert after.ok, after.body
    # (the mint itself had the portal verify a new service token: a
    # relying party's first sight, counted on the key object they share)
    real = count_real_verifications(dri.broker.jwks)
    assert _introspect(dri, str(after.body["token"])).body["active"] is True
    assert real() == 0  # its own again
