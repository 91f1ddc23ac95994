"""ABL1 — what zoning/segmentation buys: blast radius, segmented vs flat.

§III claims "segmentation of network domains allowed us to isolate and
contain different threats".  The ablation compares the Fig. 1 firewall
against a flat network (every flow allowed) from three footholds: an
internet host, a compromised user laptop, and a compromised bastion.
Expected shape: segmentation shrinks the directly-reachable protected
surface to zero from the internet and forces multi-hop pivots to reach
the management plane; the flat baseline exposes everything in one hop.
"""

import pytest

from repro.core import ThreatModel, build_isambard
from repro.core.metrics import format_table

PROTECTED = {"login-node", "mgmt-node", "jupyter", "zenith-client", "soc"}


def build(segmented: bool, seed: int):
    dri = build_isambard(seed=seed, segmented=segmented)
    dri.workflows.story1_pi_onboarding("user")
    return dri, ThreatModel(dri)


def exposure_rows(label, tm):
    rows = []
    for foothold in ("user-laptop", "bastion"):
        direct = tm.reachable_from(foothold)
        exposed = sorted(PROTECTED & set(direct.reachable))
        rows.append([
            label, foothold,
            f"{len(direct.reachable)}/{direct.total_endpoints}",
            f"{len(exposed)}/{len(PROTECTED)}",
            ", ".join(exposed) or "-",
        ])
    return rows


def test_ablation_segmentation(report):
    seg, seg_tm = build(True, 31)
    flat, flat_tm = build(False, 32)

    rows = exposure_rows("segmented (Fig.1)", seg_tm) + \
        exposure_rows("flat baseline", flat_tm)

    # headline assertions: who wins and by how much
    seg_direct = set(seg_tm.reachable_from("user-laptop").reachable)
    flat_direct = set(flat_tm.reachable_from("user-laptop").reachable)
    assert not (PROTECTED & seg_direct)          # zero protected exposure
    assert PROTECTED <= flat_direct              # total protected exposure

    # pivots needed to touch the management plane
    seg_hops = seg_tm.hops_to("user-laptop", "mgmt-node")
    flat_hops = flat_tm.hops_to("user-laptop", "mgmt-node")
    assert flat_hops == 1 and (seg_hops is None or seg_hops >= 2)

    hops_rows = [
        ["segmented (Fig.1)", "user-laptop -> mgmt-node",
         str(seg_hops) if seg_hops else ">= no path in budget"],
        ["flat baseline", "user-laptop -> mgmt-node", str(flat_hops)],
    ]

    # attempted intrusions die differently
    seg_outcomes = seg_tm.unauthorised_access_attempts()
    flat_outcomes = flat_tm.unauthorised_access_attempts()
    outcome_rows = [
        [target, seg_outcomes[target], flat_outcomes[target]]
        for target in sorted(seg_outcomes)
    ]
    assert all("ConnectionBlocked" in seg_outcomes[t]
               for t in ("login-node", "mgmt-node", "jupyter", "soc"))

    report("ablation_segmentation", "\n\n".join([
        format_table(
            ["network", "foothold", "endpoints reachable",
             "protected exposed", "which"],
            rows, title="ABL1a: direct blast radius by foothold"),
        format_table(["network", "path", "pivots needed"], hops_rows,
                     title="ABL1b: pivots to the management plane"),
        format_table(["target", "segmented outcome", "flat outcome"],
                     outcome_rows,
                     title="ABL1c: how unauthorised attempts die"),
    ]))
