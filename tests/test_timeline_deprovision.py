"""Tests for incident-timeline reconstruction and account deprovisioning."""

import pytest

from repro.core import build_isambard
from repro.errors import IdentityNotRegistered
from repro.federation.myaccessid import LinkedIdentity
from repro.siem import build_timeline


# ---------------------------------------------------------------------------
# incident timeline
# ---------------------------------------------------------------------------
@pytest.fixture()
def incident_dri():
    """A deployment with a small incident baked in: bob works normally,
    then gets flagged and contained."""
    dri = build_isambard(seed=121)
    s1 = dri.workflows.story1_pi_onboarding("ana")
    s3 = dri.workflows.story3_researcher_setup(s1.data["project_id"],
                                               "ana", "bob")
    dri.workflows.story4_ssh_session("bob")
    account = s3.data["unix_account"]
    dri.killswitch.contain_user(account)
    # a post-containment attempt is denied at the bastion
    dri.workflows.personas["bob"].ssh_client.ssh_direct(account)
    return dri, account, dri.workflows.personas["bob"].broker_sub


def test_timeline_correlates_across_domains(incident_dri):
    dri, account, sub = incident_dri
    timeline = build_timeline(dri, account)
    domains = {e.domain for e in timeline.entries} - {""}
    assert len(domains) >= 2  # sws (bastion) + mdc (sshd) at minimum
    actions = {e.action for e in timeline.entries}
    assert "ssh.session" in actions
    assert "bastion.flag" in actions


def test_timeline_orders_and_flags_denials(incident_dri):
    dri, account, sub = incident_dri
    timeline = build_timeline(dri, account)
    times = [e.time for e in timeline.entries]
    assert times == sorted(times)
    assert timeline.denials()  # the post-containment attempt
    # containment is visible and precedes the final denial
    containment = timeline.containment()
    assert containment is not None
    assert containment.time <= timeline.denials()[-1].time


def test_timeline_render_readable(incident_dri):
    dri, account, sub = incident_dri
    text = build_timeline(dri, account).render()
    assert f"INCIDENT TIMELINE for {account}" in text
    assert "[!]" in text  # denial marker


def test_timeline_for_unknown_subject_is_empty():
    dri = build_isambard(seed=122)
    timeline = build_timeline(dri, "nobody-ever")
    assert timeline.entries == []


# ---------------------------------------------------------------------------
# deprovisioning
# ---------------------------------------------------------------------------
def test_deprovision_removes_account_and_links():
    dri = build_isambard(seed=123)
    s1 = dri.workflows.story1_pi_onboarding("gia")
    gia = dri.workflows.personas["gia"]
    uid = gia.broker_sub
    revoked = []
    removed = dri.myaccessid.deprovision_account(
        uid, on_deprovision=lambda u: revoked.append(
            dri.broker.revoke_user_access(u, None)))
    assert removed == 1
    assert revoked and revoked[0]["sessions"] >= 0
    assert dri.myaccessid.registry.account(uid) is None


def test_deprovision_unknown_uid_raises():
    dri = build_isambard(seed=124)
    with pytest.raises(IdentityNotRegistered):
        dri.myaccessid.registry.deprovision("ma-9999@myaccessid")


def test_fresh_account_after_deprovision_gets_new_uid():
    """Erasure is not resurrection: logging in again creates a NEW
    persistent identifier — the old uid is never reassigned."""
    dri = build_isambard(seed=125)
    s1 = dri.workflows.story1_pi_onboarding("hal")
    hal = dri.workflows.personas["hal"]
    old_uid = hal.broker_sub
    dri.myaccessid.deprovision_account(
        old_uid,
        on_deprovision=lambda u: dri.broker.revoke_user_access(u, None))
    hal.agent.clear_cookies("myaccessid")
    hal.agent.clear_cookies("broker")
    resp = dri.workflows.login(hal)
    # hal's portal role was bound to the old uid -> registration now
    # fails (no role for the NEW identity): exactly the correct outcome
    assert resp.status == 403
    # and the registry shows a different uid for the same IdP identity
    identity = LinkedIdentity(
        entity_id=dri.idps["idp-bristol"].entity_id,
        sub=dri.idps["idp-bristol"].user("hal").sub,
    )
    account = dri.myaccessid.registry.find(identity)
    assert account is not None and account.uid != old_uid