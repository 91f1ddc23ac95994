"""ZTA — §II.C: the seven NIST SP 800-207 zero-trust tenets.

The paper claims its design adopts the NIST tenets.  The bench exercises
the deployment (stories 1-6), ships the logs, and runs the tenet checker
over the *observed* behaviour — each tenet must hold with concrete
evidence, not by configuration assertion alone.
"""

import pytest

from repro.core import build_isambard
from repro.core.metrics import format_table
from repro.policy import assess_caf, check_tenets
from repro.policy.caf import caf_summary


def exercised_deployment(seed: int):
    dri = build_isambard(seed=seed)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("zoe")
    wf.story2_admin_registration("ops1")
    wf.story3_researcher_setup(s1.data["project_id"], "zoe", "yan")
    wf.story4_ssh_session("yan")
    wf.story5_privileged_operation("ops1")
    wf.story6_jupyter("yan")
    # one denied attempt so 'strictly enforced' has evidence
    stranger = wf.create_researcher("stranger")
    wf.login(stranger)
    dri.ship_logs()
    return dri


def test_zta_tenets(report):
    dri = exercised_deployment(21)
    reports = check_tenets(dri)
    assert len(reports) == 7
    failing = [r for r in reports if not r.passed]
    assert not failing, [(r.tenet, r.evidence) for r in failing]

    tenet_rows = [
        [f"T{r.tenet}", r.title[:52], "PASS" if r.passed else "FAIL",
         r.evidence[:70]]
        for r in reports
    ]

    caf = assess_caf(dri)
    summary = caf_summary(caf)
    caf_rows = [
        [r.outcome_id, r.title, r.grade, r.evidence[:60]] for r in caf
    ]
    objective_rows = [
        [obj, counts["achieved"], counts["partially-achieved"],
         counts["not-achieved"]]
        for obj, counts in sorted(summary.items())
    ]

    report("zta_tenets", "\n\n".join([
        format_table(["tenet", "statement", "verdict", "evidence"],
                     tenet_rows,
                     title="ZTA: NIST SP 800-207 tenets on the exercised system"),
        format_table(["outcome", "title", "grade", "evidence"], caf_rows,
                     title="CAF: baseline-profile self-assessment (paper §V roadmap)"),
        format_table(["objective", "achieved", "partial", "not"],
                     objective_rows, title="CAF: per-objective summary"),
    ]))
