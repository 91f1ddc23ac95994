"""Final coverage wave: admin role validation, CLI report command,
combined-audit accessors, DCIM helpers, tailnet accessors."""

import subprocess
import sys

import pytest

from repro.broker import Role
from repro.clock import SimClock
from repro.cluster import DcimMonitor, NodePool
from repro.core import build_isambard
from repro.errors import AuthorizationError


# ---------------------------------------------------------------------------
# administrative roles (the ACL side of user story 2)
# ---------------------------------------------------------------------------
def test_grant_admin_role_validates_role():
    dri = build_isambard(seed=133)
    with pytest.raises(AuthorizationError):
        dri.broker.grant_admin_role("idp-admin:x", Role.RESEARCHER)


# ---------------------------------------------------------------------------
# CLI report command
# ---------------------------------------------------------------------------
def test_cli_report_command():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--seed", "9", "report"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-1500:]
    assert "OPERATIONS AND COMPLIANCE REPORT" in proc.stdout
    assert "NIST SP 800-207 tenets" in proc.stdout


# ---------------------------------------------------------------------------
# combined audit view accessors
# ---------------------------------------------------------------------------
def test_combined_audit_accessors():
    dri = build_isambard(seed=134)
    dri.workflows.story1_pi_onboarding("kit")
    merged = dri.audit.events()
    assert merged == sorted(merged, key=lambda e: e.time)
    assert len(dri.audit) == sum(len(v) for v in dri.logs.values())


# ---------------------------------------------------------------------------
# DCIM helpers
# ---------------------------------------------------------------------------
def test_dcim_peak_and_fault_recovery():
    clock = SimClock()
    pool = NodePool("gh", "grace-hopper", 50)
    dcim = DcimMonitor("dcim", clock, pool)
    assert dcim.peak_power_mw() == 0.0
    dcim.sample()
    pool.allocate(50, "burn")
    dcim.sample()
    peak = dcim.peak_power_mw()
    assert peak == max(s.power_mw for s in dcim.samples)
    dcim.inject_flow_fault()
    dcim.sample()
    n_breaches = len(dcim.breaches)
    assert n_breaches > 0
    dcim.clear_flow_fault()
    dcim.sample()
    assert len(dcim.breaches) == n_breaches  # no new breach after recovery


# ---------------------------------------------------------------------------
# tailnet accessors + story5 resume path
# ---------------------------------------------------------------------------
def test_tailnet_accessors_and_resume_operation():
    dri = build_isambard(seed=135)
    result = dri.workflows.story5_privileged_operation(
        "ops1", operation="drain_node", target="gh-0005")
    assert result.ok
    assert not dri.pool.node("gh-0005").up
    node = dri.tailnet.node(str(result.data["node_id"]))
    assert node is not None and node.hostname == "ops1-laptop"
    assert len(dri.tailnet.acl.rules()) >= 2

    resumed = dri.workflows.story5_privileged_operation(
        "ops1", operation="resume_node", target="gh-0005")
    assert resumed.ok
    assert dri.pool.node("gh-0005").up
