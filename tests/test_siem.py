"""Unit tests for forwarders, detections, inventory, assessment, kill switch."""

import pytest

from repro.audit import AuditEvent, AuditLog, Outcome
from repro.broker import RbacTokenValidator, Role, TokenService
from repro.clock import SimClock
from repro.crypto import JwkSet
from repro.crypto.keys import generate_signing_key
from repro.ids import IdFactory
from repro.net import HttpRequest
from repro.siem import (
    Advisory,
    AssetInventory,
    ConfigAssessment,
    KillSwitchController,
    LogForwarder,
    SecurityOperationsCentre,
    ThresholdRule,
    standard_rules,
)
from tests.conftest import Wiring

ISS = "https://broker"


def ev(t, action, actor="mallory", outcome=Outcome.DENIED, **attrs):
    return AuditEvent(time=t, source="svc", actor=actor, action=action,
                      resource="r", outcome=outcome, attrs=attrs)


# ---------------------------------------------------------------------------
# forwarder
# ---------------------------------------------------------------------------
def test_forwarder_batches_and_flushes_on_timer():
    clock = SimClock()
    shipped = []
    fw = LogForwarder("fw", clock, shipped.extend, interval=5)
    log = AuditLog("svc")
    fw.watch(log)
    fw.start()
    log.emit(ev(0.0, "idp.login"))
    log.emit(ev(1.0, "idp.login"))
    assert shipped == []
    clock.advance(5.1)
    assert len(shipped) == 2
    assert fw.shipped == 2


def test_forwarder_filter_limits_data():
    clock = SimClock()
    shipped = []
    fw = LogForwarder("fw", clock, shipped.extend, actions_filter=["ssh."])
    log = AuditLog("svc")
    fw.watch(log)
    log.emit(ev(0.0, "ssh.connect"))
    log.emit(ev(0.0, "jupyter.spawn"))
    fw.flush()
    assert len(shipped) == 1 and fw.dropped == 1


def test_forwarder_record_redacts_unagreed_attrs():
    clock = SimClock()
    shipped = []
    fw = LogForwarder("fw", clock, shipped.extend)
    log = AuditLog("svc")
    fw.watch(log)
    log.emit(ev(0.0, "ssh.connect", reason="x", password="secret!"))
    fw.flush()
    assert shipped[0]["attrs"] == {"reason": "x"}


def test_forwarder_stop():
    clock = SimClock()
    shipped = []
    fw = LogForwarder("fw", clock, shipped.extend, interval=5)
    log = AuditLog("svc")
    fw.watch(log)
    fw.start()
    fw.stop()
    log.emit(ev(0.0, "ssh.connect"))
    clock.advance(20)
    assert shipped == []


# ---------------------------------------------------------------------------
# detections
# ---------------------------------------------------------------------------
def record(t, action, actor="mallory", outcome="denied"):
    return {"time": t, "action": action, "actor": actor, "outcome": outcome}


def test_bruteforce_rule_fires_at_threshold():
    rule = [r for r in standard_rules() if r.name == "auth-bruteforce"][0]
    alerts = [rule.observe(record(float(i), "idp.login")) for i in range(6)]
    fired = [a for a in alerts if a]
    assert len(fired) == 1
    assert fired[0].severity == "high" and fired[0].actor == "mallory"


def test_bruteforce_window_expires():
    rule = [r for r in standard_rules() if r.name == "auth-bruteforce"][0]
    for i in range(4):
        assert rule.observe(record(i * 30.0, "idp.login")) is None  # spread out


def test_rule_no_alert_storm():
    rule = ThresholdRule(
        name="t", severity="high", window=60, count=2,
        summary="{actor}", predicate=lambda action, outcome: True,
    )
    fired = [rule.observe(record(float(i), "x")) for i in range(10)]
    assert sum(1 for a in fired if a) == 1  # suppressed within the window


def test_successful_logins_never_alert():
    rule = [r for r in standard_rules() if r.name == "auth-bruteforce"][0]
    for i in range(20):
        assert rule.observe(record(float(i), "idp.login", outcome="success")) is None


def test_code_replay_is_critical_single_shot():
    rule = [r for r in standard_rules() if r.name == "token-abuse"][0]
    alert = rule.observe(record(5.0, "token.code_replayed", outcome="denied"))
    assert alert and alert.severity == "critical"


# ---------------------------------------------------------------------------
# inventory
# ---------------------------------------------------------------------------
def test_inventory_scan_matches_advisories():
    inv = AssetInventory()
    inv.register("bastion-vm0", "bastion-vm", "v1", "sws")
    inv.register("bastion-vm1", "bastion-vm", "v2", "sws")
    inv.publish_advisory(Advisory(
        "CVE-2024-0001", "bastion-vm", ("v1",), "critical", "ssh bug"))
    findings = inv.scan()
    assert [f.asset for f in findings] == ["bastion-vm0"]
    inv.update_version("bastion-vm0", "v2")
    assert inv.scan() == []


def test_inventory_domain_filter():
    inv = AssetInventory()
    inv.register("a", "vm", "1", "sws")
    inv.register("b", "vm", "1", "fds")
    assert len(inv.assets(domain="sws")) == 1


# ---------------------------------------------------------------------------
# config assessment
# ---------------------------------------------------------------------------
def test_assessment_scores():
    a = ConfigAssessment()
    a.add("c1", "passes", lambda: (True, "ok"))
    a.add("c2", "fails", lambda: (False, "bad"))
    assert a.score() == 0.5
    assert [r.check_id for r in a.run() if not r.passed] == ["c2"]


def test_assessment_broken_probe_fails_closed():
    a = ConfigAssessment()
    a.add("c1", "explodes", lambda: 1 / 0)
    result = a.run()[0]
    assert not result.passed and "probe error" in result.evidence


# ---------------------------------------------------------------------------
# kill switch
# ---------------------------------------------------------------------------
def test_killswitch_contain_user_runs_all_levers():
    """Containment flags the principal at the bastion, then runs the
    one sever it was handed, and records both."""
    clock = SimClock(start=100.0)
    hits = []
    ks = KillSwitchController(
        clock, flag=lambda p: hits.append(("flag", p)) or [p],
        sever=lambda p: hits.append(("sever", p)) or {"tokens": 2, "ssh": 1},
        **Wiring())
    record = ks.contain_user("mallory.proj1")
    assert hits == [("flag", "mallory.proj1"), ("sever", "mallory.proj1")]
    assert record.details == {"bastion-flag": ["mallory.proj1"],
                              "tokens": 2, "ssh": 1}
    assert record.actions_run == 3
    assert record.time == 100.0


def test_killswitch_emergency_stop_and_restore():
    clock = SimClock()
    ks = KillSwitchController(clock, flag=lambda p: [p],
                              sever=lambda p: {}, **Wiring())
    state = {"up": True}
    ks.register_stop_action(
        "bastion",
        lambda: state.update(up=False),
        lambda: state.update(up=True),
    )
    ks.emergency_stop()
    assert not state["up"] and ks.engaged
    ks.restore()
    assert state["up"] and not ks.engaged


# ---------------------------------------------------------------------------
# SOC
# ---------------------------------------------------------------------------
@pytest.fixture()
def soc_world():
    clock = SimClock()
    ids = IdFactory(9)
    key = generate_signing_key("EdDSA", kid="bk")
    tokens = TokenService(clock, ids, key, ISS, **Wiring())
    validator = RbacTokenValidator(
        clock, ISS, "soc", JwkSet([key.public()]), tokens.is_revoked
    )
    contained = []
    ks = KillSwitchController(
        clock, flag=lambda p: [p],
        sever=lambda p: contained.append(p) or {}, **Wiring())
    escalations = []
    soc = SecurityOperationsCentre(
        "soc", clock, validator,
        escalate=escalations.append, killswitch=ks, auto_contain=True,
        **Wiring(),
    )
    return clock, tokens, soc, escalations, contained


def test_soc_ingest_detect_escalate(soc_world):
    clock, tokens, soc, escalations, contained = soc_world
    batch = [record(float(i), "idp.login") for i in range(6)]
    alerts = soc.ingest_batch(batch)
    assert len(alerts) == 1
    assert escalations and escalations[0].rule == "auth-bruteforce"
    assert soc.records_ingested == 6


def test_soc_auto_contains_critical(soc_world):
    clock, tokens, soc, escalations, contained = soc_world
    soc.ingest_batch([record(1.0, "token.code_replayed")])
    assert contained == ["mallory"]
    # repeated critical alerts for the same actor don't re-contain
    soc.ingest_batch([record(500.0, "token.code_replayed")])
    assert contained == ["mallory"]


def test_soc_ingest_endpoint_requires_service_token(soc_world):
    clock, tokens, soc, *_ = soc_world
    resp = soc.handle(HttpRequest("POST", "/ingest", body={"records": []}))
    assert resp.status == 403
    token, _ = tokens.mint("fw", "soc", Role.SERVICE)
    ok = soc.handle(HttpRequest(
        "POST", "/ingest",
        headers={"Authorization": f"Bearer {token}"},
        body={"records": [record(1.0, "x", outcome="success")]},
    ))
    assert ok.ok and ok.body["ingested"] == 1


def test_soc_alert_view_requires_security_role(soc_world):
    clock, tokens, soc, *_ = soc_world
    researcher, _ = tokens.mint("alice", "soc", Role.RESEARCHER)
    resp = soc.handle(HttpRequest("GET", "/alerts",
                                  headers={"Authorization": f"Bearer {researcher}"}))
    assert resp.status == 403
    sec, _ = tokens.mint("idp-admin:sec1", "soc", Role.ADMIN_SECURITY)
    resp2 = soc.handle(HttpRequest("GET", "/alerts",
                                   headers={"Authorization": f"Bearer {sec}"}))
    assert resp2.ok


def test_soc_posture_view(soc_world):
    clock, tokens, soc, *_ = soc_world
    soc.inventory.register("vm1", "bastion-vm", "v1", "sws")
    soc.inventory.publish_advisory(Advisory(
        "CVE-1", "bastion-vm", ("v1",), "high", "bug"))
    soc.assessment.add("c1", "always", lambda: (True, "ok"))
    sec, _ = tokens.mint("idp-admin:sec1", "soc", Role.ADMIN_SECURITY)
    resp = soc.handle(HttpRequest("GET", "/posture",
                                  headers={"Authorization": f"Bearer {sec}"}))
    assert resp.ok
    assert resp.body["assets"] == 1
    assert len(resp.body["vulnerability_findings"]) == 1
    assert resp.body["config_score"] == 1.0


def test_soc_broken_escalation_hook_does_not_break_ingest():
    clock = SimClock()
    ids = IdFactory(10)
    key = generate_signing_key("EdDSA", kid="bk")
    tokens = TokenService(clock, ids, key, ISS, **Wiring())
    validator = RbacTokenValidator(
        clock, ISS, "soc", JwkSet([key.public()]), tokens.is_revoked)

    def broken(alert):
        raise RuntimeError("NCC endpoint down")

    soc = SecurityOperationsCentre("soc", clock, validator, escalate=broken,
                                   **Wiring())
    alerts = soc.ingest_batch([record(float(i), "idp.login") for i in range(6)])
    assert len(alerts) == 1  # alert still recorded locally
