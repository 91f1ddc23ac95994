"""Operations report: one text artefact summarising a live deployment.

Pulls together what a service owner (or a CAF assessor) would ask for:
the architecture inventory, usage across projects, security posture
(inventory scan + configuration assessment), SOC activity, tenet
compliance and kill-switch readiness.  Used by ``python -m repro report``
and by tests that want a whole-system smoke artefact.
"""

from __future__ import annotations

from typing import List

from repro.core.metrics import format_table
from repro.policy import CAF_OBJECTIVES, assess_caf, check_tenets
from repro.policy.caf import caf_summary

__all__ = ["operations_report"]


def _section(title: str) -> str:
    bar = "=" * len(title)
    return f"\n{title}\n{bar}\n"


def operations_report(dri) -> str:
    """Render the full report for a (preferably exercised) deployment."""
    parts: List[str] = []
    parts.append("ISAMBARD DRI — OPERATIONS AND COMPLIANCE REPORT")
    parts.append(f"simulated time: t={dri.clock.now():.1f}s; "
                 f"seed-deterministic deployment")

    # --- architecture ------------------------------------------------------
    parts.append(_section("Architecture"))
    summary = dri.inventory_summary()
    parts.append(format_table(
        ["metric", "value"], sorted(summary.items())))

    # --- projects / usage --------------------------------------------------
    parts.append(_section("Projects and usage"))
    rows = []
    for p in dri.portal.projects():
        rows.append([
            p.project_id, p.name[:24], p.status.value,
            f"{p.allocation.gpu_hours_used:.0f}/{p.allocation.gpu_hours:.0f}",
            len(p.active_members()),
        ])
    parts.append(format_table(
        ["project", "name", "status", "hours used/allocated", "members"],
        rows or [["-", "none yet", "-", "-", "-"]]))

    # --- cluster -----------------------------------------------------------
    parts.append(_section("Clusters"))
    cluster_rows = [[
        "isambard-ai", len(dri.pool.nodes()),
        f"{dri.pool.utilisation():.1%}",
        len(dri.login_sshd.sessions()), len(dri.jupyter.sessions()),
        len(dri.slurm.jobs()),
    ], [
        "isambard-3", len(dri.pool_i3.nodes()),
        f"{dri.pool_i3.utilisation():.1%}",
        len(dri.login_sshd_i3.sessions()), "-",
        len(dri.slurm_i3.jobs()),
    ]]
    parts.append(format_table(
        ["cluster", "nodes", "utilisation", "ssh sessions",
         "notebooks", "jobs"], cluster_rows))

    # --- security posture ---------------------------------------------------
    parts.append(_section("Security posture"))
    findings = dri.soc.inventory.scan()
    checks = dri.soc.assessment.run()
    parts.append(format_table(
        ["metric", "value"],
        [
            ["assets inventoried", len(dri.soc.inventory.assets())],
            ["open vulnerability findings", len(findings)],
            ["configuration checks passing",
             f"{sum(1 for c in checks if c.passed)}/{len(checks)} "
             f"({dri.soc.assessment.score():.0%})"],
            ["SOC records ingested", dri.soc.records_ingested],
            ["alerts raised", len(dri.soc.alerts)],
            ["principals contained", len(dri.soc.contained)],
            ["kill-switch levers",
             f"{len(dri.surfaces())} per-user, "
             f"{len(dri.killswitch.stop_levers())} whole-service"],
        ]))
    failing = [c for c in checks if not c.passed]
    if failing:
        parts.append("\nfailing checks (accepted roadmap items):")
        for c in failing:
            parts.append(f"  - {c.check_id}: {c.title} — {c.evidence}")

    # --- zero trust tenets ---------------------------------------------------
    parts.append(_section("NIST SP 800-207 tenets"))
    tenets = check_tenets(dri)
    parts.append(format_table(
        ["tenet", "verdict", "evidence"],
        [[f"T{t.tenet}", "PASS" if t.passed else "FAIL", t.evidence[:74]]
         for t in tenets]))

    # --- CAF -----------------------------------------------------------------
    parts.append(_section("NCSC CAF baseline self-assessment"))
    caf = assess_caf(dri)
    parts.append(format_table(
        ["objective", "achieved", "partial", "not achieved"],
        [[f"{obj} — {CAF_OBJECTIVES[obj]}",
          c["achieved"], c["partially-achieved"], c["not-achieved"]]
         for obj, c in sorted(caf_summary(caf).items())]))

    return "\n".join(parts)
