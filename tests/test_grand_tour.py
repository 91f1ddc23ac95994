"""The grand tour: one deployment, every capability exercised, global
invariants checked at the end.  This is the closest thing to running the
real system for a day."""

import pytest

from repro.broker import Role
from repro.core import ThreatModel, build_isambard
from repro.core.reporting import operations_report
from repro.policy import assess_caf, check_tenets
from repro.siem import build_timeline


def test_grand_tour():
    dri = build_isambard(seed=2024, forward_interval=2.0)
    wf = dri.workflows

    # --- every user story --------------------------------------------------
    s1 = wf.story1_pi_onboarding("alice")
    assert s1.ok
    assert wf.story2_admin_registration("ops1").ok
    s3 = wf.story3_researcher_setup(s1.data["project_id"], "alice", "bob")
    assert s3.ok
    assert wf.story4_ssh_session("bob").ok
    assert wf.story5_privileged_operation("ops1").ok
    assert wf.story6_jupyter("bob").ok

    # --- a second cohort at scale -------------------------------------------
    workshop = wf.rsecon_workshop(20, project_name="tour-workshop")
    assert workshop.ok and workshop.data["failures"] == 0

    # --- cluster work on both machines ---------------------------------------
    dri.filesystem.provision(s1.data["project_id"])
    dri.filesystem.write(s3.data["unix_account"], s1.data["project_id"],
                         "/scratch/x", 1024)
    job_ai = dri.slurm.submit(s3.data["unix_account"], s1.data["project_id"],
                              nodes=4, walltime=600)
    job_i3 = dri.slurm_i3.submit(s3.data["unix_account"],
                                 s1.data["project_id"], nodes=8, walltime=600)
    dri.clock.advance(700)
    assert dri.slurm.job(job_ai.job_id).state.value == "completed"
    assert dri.slurm_i3.job(job_i3.job_id).state.value == "completed"

    # --- an incident, detected and contained ----------------------------------
    tm = ThreatModel(dri)
    containment = tm.containment_time(attack_rate=2.0)
    assert containment is not None
    timeline = build_timeline(dri, "mallory")
    assert timeline.denials() and timeline.containment() is not None

    # --- rotation mid-flight ----------------------------------------------------
    dri.broker.rotate_key()
    wf.relogin(wf.personas["alice"])
    assert wf.mint(wf.personas["alice"], "portal", "pi",
                   project=s1.data["project_id"]).ok

    # --- global invariants --------------------------------------------------
    dri.ship_logs()
    tenets = check_tenets(dri)
    assert all(t.passed for t in tenets), [
        (t.tenet, t.evidence) for t in tenets if not t.passed]
    caf = assess_caf(dri)
    assert sum(1 for r in caf if r.grade == "achieved") >= 5
    for name, log in dri.logs.items():
        intact, bad = log.verify_chain()
        assert intact, (name, bad)
    # housekeeping leaves live state consistent
    purged = dri.broker.tokens.purge_expired(grace=0)
    assert purged >= 0
    report = operations_report(dri)
    assert "OPERATIONS AND COMPLIANCE REPORT" in report
    # the audit volume is substantial and fully chained
    assert len(dri.audit) > 500
