"""US1 — user story 1: allocator creates a project; PI is invited and joins.

Reproduces §IV.A.1 including both its branches (PI via the MyAccessID
federation, and via the identity of last resort when the institution is
outside it), the authorisation-led-registration denial, and time-limited
revocation.
"""

import pytest

from repro.core import build_isambard
from repro.core.metrics import format_table


def run_story(via: str, seed: int):
    dri = build_isambard(seed=seed)
    result = dri.workflows.story1_pi_onboarding(
        "pi-user", via=via, project_name=f"proj-{via}"
    )
    return dri, result


def test_story1_pi_onboarding(report):
    dri, federated = run_story("myaccessid", 3)
    assert federated.ok, federated.steps

    # branch 2: the PI's institution is not in the federation
    dri2, lastresort = run_story("lastresort", 4)
    assert lastresort.ok, lastresort.steps

    # negative control: authorisation leads registration
    stranger = dri.workflows.create_researcher("stranger")
    denied = dri.workflows.login(stranger)
    assert denied.status == 403

    # expiry: access revoked, information removed from the authz list
    dri3 = build_isambard(seed=5)
    short = dri3.workflows.story1_pi_onboarding("brief", duration=3600.0)
    assert short.ok
    dri3.clock.advance(3700)
    relogin = dri3.workflows.relogin(dri3.workflows.personas["brief"])
    assert relogin.status == 403

    rows = [
        ["PI via MyAccessID federation", "joined", federated.data["unix_account"]],
        ["PI via identity of last resort", "joined", lastresort.data["unix_account"]],
        ["identity with no role/invitation", "DENIED at registration", "-"],
        ["PI after project expiry", "DENIED (authz removed)", "-"],
    ]
    steps = "\n".join(f"  {i+1}. {s}" for i, s in enumerate(federated.steps))
    report("story1_pi_onboarding",
           format_table(["scenario", "outcome", "unix account"], rows,
                        title="US1: project owner / PI onboarding (§IV.A.1)")
           + "\n\nfederated-branch steps:\n" + steps)
