"""US2 — user story 2: a BriCS admin registers an administrators-only account.

Reproduces §IV.A.2: invitation restricted to the institution, hardware-
key MFA enrolment, the human check before activation, per-service RBAC
("admin access does not provide global access to all Isambard services"),
the ~20-member cap, and revocation on leaving the group.
"""

import pytest

from repro.broker import Role
from repro.core import build_isambard
from repro.core.metrics import format_table
from repro.errors import RegistrationError


def run_story(seed: int):
    dri = build_isambard(seed=seed)
    result = dri.workflows.story2_admin_registration("ops1")
    return dri, result


def test_story2_admin_registration(report):
    dri, result = run_story(6)
    assert result.ok, result.steps

    rows = [["full onboarding + hardware-key login", "ok"]]

    # institutional email enforced
    try:
        dri.admin_idp.invite_admin("mallory@gmail.com", invited_by="x")
        rows.append(["invite outside the institution", "ALLOWED (wrong)"])
    except RegistrationError:
        rows.append(["invite outside the institution", "refused"])

    # per-service RBAC: infra admin cannot take the security role
    admin = dri.workflows.personas["ops1"]
    denied = dri.workflows.mint(admin, "soc", Role.ADMIN_SECURITY.value)
    rows.append(["infra admin requests security-role token",
                 "denied" if denied.status == 403 else "ALLOWED (wrong)"])

    # removal severs live sessions and future logins
    severed = dri.admin_idp.remove_admin("ops1", removed_by="lead")
    relogin = dri.workflows.relogin(admin)
    rows.append([f"admin removed from group ({severed} session(s) severed)",
                 "login denied" if relogin.status == 403 else "still works (wrong)"])
    assert relogin.status == 403

    # group size cap
    capped = build_isambard(seed=7)
    for i in range(capped.admin_idp.max_admins):
        capped.workflows.create_admin(f"adm{i}", Role.ADMIN_INFRA)
    try:
        capped.admin_idp.invite_admin(
            "one-too-many@bristol.ac.uk", invited_by="x")
        rows.append([f"member #{capped.admin_idp.max_admins + 1}", "ALLOWED (wrong)"])
    except RegistrationError:
        rows.append([f"member #{capped.admin_idp.max_admins + 1} invitation",
                     "refused (group capped)"])

    steps = "\n".join(f"  {i+1}. {s}" for i, s in enumerate(result.steps))
    report("story2_admin_registration",
           format_table(["scenario", "outcome"], rows,
                        title="US2: administrators-only account (§IV.A.2)")
           + "\n\nsteps:\n" + steps)
