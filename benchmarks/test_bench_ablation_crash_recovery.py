"""ABL8 — crash-fault tolerance: what journaling and failover buy.

The paper's IAM services run as replicated managed services: §IV.B's
workshop assumes the broker, portal and SSH CA survive pod kills without
losing sessions, serials or the audit chain.  This ablation crashes each
stateful service in the middle of an RSECon-style login storm and
measures, with the write-ahead journal on vs. off:

* whether the six user stories pass on the recovered control plane;
* recovery time (deterministic: restart charge + per-entry replay cost);
* the security invariants — audit hash-chain continuity across the
  crash, strictly monotonic CA serials, and *no revoked credential
  resurrected* by a restart;
* the failover arm: the standby is promoted inside the controller's
  health-check budget and the deposed primary is fenced at the journal
  (its mint attempts raise ``EpochFenced`` and commit nothing).

Everything runs on the simulated clock, so both arms are bit-for-bit
reproducible; the determinism assertion re-runs one arm and compares
fingerprints.  ``BENCH_QUICK=1`` shrinks the fleet for CI smoke runs.
"""

import os

from repro.core import build_isambard
from repro.core.metrics import format_table
from repro.errors import EpochFenced, ServiceUnavailable
from repro.resilience.durability import REPLAY_COST_PER_ENTRY, RESTART_COST

QUICK = os.environ.get("BENCH_QUICK") == "1"
N_USERS = 4 if QUICK else 10

SERVICES = ("broker", "portal", "ssh-ca", "idp-lastresort")


def _six_stories(wf, project_id, suffix):
    return [
        wf.story1_pi_onboarding(f"pi{suffix}", project_name=f"proj{suffix}"),
        wf.story2_admin_registration(f"ops{suffix}"),
        wf.story3_researcher_setup(project_id, "trainer", f"res{suffix}"),
        wf.story4_ssh_session(f"res{suffix}"),
        wf.story5_privileged_operation(f"ops{suffix}"),
        wf.story6_jupyter(f"res{suffix}"),
    ]


def crash_arm(durable: bool, seed: int, target: str):
    """Onboard a fleet, crash ``target`` (and its domain's audit log)
    mid-storm, restart, and take the post-mortem measurements."""
    dri = build_isambard(seed=seed, durability=durable)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("trainer", project_name="abl8",
                                 gpu_hours=100_000.0)
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    users = [f"trainee{i:02d}" for i in range(N_USERS)]
    for name in users:
        assert wf.story3_researcher_setup(project_id, "trainer", name).ok

    # a revocation that must survive the crash (the resurrection check)
    minted = wf.mint(wf.personas["trainer"], "jupyter", "pi").body
    revoked_jti = str(minted["jti"])
    assert dri.broker.tokens.revoke_jti(revoked_jti)
    serial_before = dri.ssh_ca._serial

    # --- the storm: half the fleet is in when the crash lands ---------
    pre_ok = sum(wf.story6_jupyter(n).ok for n in users[: N_USERS // 2])
    fds_before = len(dri.logs["fds"])
    dri.crash(target)
    dri.crash("audit-fds")          # the same node hosted the audit log
    down_failures = 0
    for name in users[N_USERS // 2:]:       # traffic during the outage
        try:
            if not wf.story6_jupyter(name).ok:
                down_failures += 1
        except ServiceUnavailable:
            down_failures += 1

    reports = [dri.restart(target), dri.restart("audit-fds")]
    entries = sum(r.entries_replayed for r in reports if r is not None)
    recovery = sum(r.duration for r in reports if r is not None)
    # pre-crash audit history that survived the restart (the journaled
    # arm replays all of it; a cold restart comes back empty)
    audit_lost = fds_before - len(dri.logs["fds"])

    # --- post-mortem --------------------------------------------------
    post_ok = sum(wf.story6_jupyter(n).ok for n in users[N_USERS // 2:])
    stories = _six_stories(wf, project_id, "9")
    stories_ok = sum(r.ok for r in stories)
    chains_ok = all(log.verify_chain()[0] for log in dri.logs.values())
    if durable:
        resurrected = not dri.broker.tokens.is_invalid(revoked_jti)
    else:
        # cold restart: the revocation list died with the process
        resurrected = not dri.broker.tokens.is_revoked(revoked_jti)
    serial_after = dri.ssh_ca._serial

    fingerprint = (
        pre_ok, post_ok, stories_ok, entries, round(recovery, 9),
        round(dri.clock.now(), 9), audit_lost,
        dri.broker.state_hash(), dri.portal.state_hash(),
        dri.ssh_ca.state_hash(),
    )
    return {
        "dri": dri,
        "pre_ok": pre_ok, "post_ok": post_ok, "down_failures": down_failures,
        "stories_ok": stories_ok, "n_stories": len(stories),
        "entries": entries, "recovery": recovery,
        "chains_ok": chains_ok,
        "audit_lost": audit_lost,
        "resurrected": resurrected,
        "serial_monotonic": serial_after > serial_before,
        "fingerprint": fingerprint,
    }


def failover_arm(seed: int):
    """Crash the broker *primary* and let the health-checked standby
    take over: no manual restart, promotion inside the budget, deposed
    primary fenced at the journal."""
    dri = build_isambard(seed=seed, failover=True)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("trainer", project_name="abl8-ha",
                                 gpu_hours=100_000.0)
    assert s1.ok
    project_id = str(s1.data["project_id"])
    users = [f"trainee{i:02d}" for i in range(N_USERS)]
    for name in users:
        assert wf.story3_researcher_setup(project_id, "trainer", name).ok
    pre_ok = sum(wf.story6_jupyter(n).ok for n in users[: N_USERS // 2])

    old_broker = dri.broker
    t_crash = dri.clock.now()
    dri.crash("broker")
    dri.clock.advance(dri.failover.budget + 0.5)    # health checks fire
    pair = dri.failover.pairs["broker"]
    assert pair.promoted and dri.broker is not old_broker
    promotion_time = pair.promoted_at - t_crash

    # the zombie ex-primary tries to keep minting — and commits nothing
    fenced = False
    try:
        old_broker.tokens.mint("zombie", "jupyter", "pi")
    except EpochFenced:
        fenced = True
    post_ok = sum(wf.story6_jupyter(n).ok for n in users[N_USERS // 2:])
    stories = _six_stories(wf, project_id, "9")
    return {
        "dri": dri, "pre_ok": pre_ok, "post_ok": post_ok,
        "stories_ok": sum(r.ok for r in stories), "n_stories": len(stories),
        "promotion_time": promotion_time, "budget": dri.failover.budget,
        "fenced": fenced,
        "zombie_tokens": len(old_broker.tokens._issued),
        "entries": pair.report.entries_replayed,
        "chains_ok": all(log.verify_chain()[0] for log in dri.logs.values()),
    }


def test_ablation_crash_recovery(report):
    journaled = {}
    for i, target in enumerate(SERVICES):
        journaled[target] = crash_arm(True, 101 + i, target)
    cold = crash_arm(False, 100, "broker")
    ha = failover_arm(110)

    # (a) with the journal, every service recovers losslessly: the whole
    #     fleet finishes, all six stories pass, and recovery is exactly
    #     the deterministic restart + per-entry replay charge
    for target, arm in journaled.items():
        assert arm["post_ok"] == N_USERS - N_USERS // 2, target
        assert arm["stories_ok"] == arm["n_stories"], target
        assert arm["chains_ok"] and arm["audit_lost"] == 0, target
        assert not arm["resurrected"] and arm["serial_monotonic"], target
        bound = 2 * RESTART_COST + REPLAY_COST_PER_ENTRY * arm["entries"]
        assert arm["recovery"] <= bound + 1e-9, target

    # (b) journaling off: the crash demonstrably violates the invariants
    #     — the revoked token rises from the dead and audit history is
    #     simply gone (the chain "verifies" only because it is empty)
    assert cold["resurrected"]
    assert cold["audit_lost"] > 0
    assert cold["stories_ok"] < cold["n_stories"]

    # (c) failover: promotion lands inside the health-check budget, the
    #     fleet finishes against the standby with zero manual recovery,
    #     and the deposed primary is fenced with nothing committed
    assert ha["promotion_time"] <= ha["budget"]
    assert ha["post_ok"] == N_USERS - N_USERS // 2
    assert ha["stories_ok"] == ha["n_stories"]
    assert ha["fenced"] and ha["zombie_tokens"] == 0
    assert ha["chains_ok"]

    # (d) crash + recovery is bit-for-bit reproducible from its seed
    assert crash_arm(True, 101, "broker")["fingerprint"] == \
        journaled["broker"]["fingerprint"]

    rows = []
    for target, arm in journaled.items():
        rows.append([
            f"journal on, crash {target}",
            f"{arm['post_ok']}/{N_USERS - N_USERS // 2}",
            f"{arm['stories_ok']}/{arm['n_stories']}",
            arm["entries"], f"{arm['recovery'] * 1000:.2f}",
            "intact" if arm["chains_ok"] else "BROKEN",
            "no" if not arm["resurrected"] else "YES (wrong)",
            "full recovery; serials monotonic",
        ])
    rows.append([
        "journal off, crash broker",
        f"{cold['post_ok']}/{N_USERS - N_USERS // 2}",
        f"{cold['stories_ok']}/{cold['n_stories']}",
        0, "—", f"{cold['audit_lost']} events lost",
        "YES" if cold["resurrected"] else "no",
        "revoked token resurrected; sessions gone",
    ])
    rows.append([
        "failover, crash broker primary",
        f"{ha['post_ok']}/{N_USERS - N_USERS // 2}",
        f"{ha['stories_ok']}/{ha['n_stories']}",
        ha["entries"],
        f"promoted in {ha['promotion_time']:.2f}s (budget {ha['budget']:.0f}s)",
        "intact" if ha["chains_ok"] else "BROKEN",
        "no",
        "deposed primary fenced (EpochFenced), 0 zombie tokens",
    ])
    report("ablation_crash_recovery", format_table(
        ["arm", "post-crash logins", "user stories", "entries replayed",
         "recovery (sim ms)", "audit chain", "revoked resurrected", "note"],
        rows,
        title=(f"ABL8: crash each stateful service mid-storm "
               f"({N_USERS}-user fleet), journaling on vs off vs failover"),
    ))
