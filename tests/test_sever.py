"""One identity, one sever: every revocation leaves no live grant.

The kill switch (§III.B) and a PI's revocation of a member each sever
one principal.  These oracles read every enforcement surface's live
grants afterwards, under the principal's uid and its UNIX account, so a
surface or a subject form that a revocation misses shows up as a
grant still live.
"""

import pytest

from repro.core import build_isambard
from repro.oidc import make_url

BUILDS = {"default": {}, "authz": {"authz": True}}


def holders(dri):
    """Every enforcement surface that holds a user's grant, listed by
    hand so the oracle does not trust the deployment's own list."""
    return (dri.broker, dri.ssh_ca, *dri.login_nodes, dri.zenith,
            dri.jupyter, *dri.schedulers)


def live(dri, subjects):
    """``(kind, resource, subject)`` of every live grant held under one
    of ``subjects``, on any surface."""
    now = dri.clock.now()
    return sorted((kind, resource, subject)
                  for holder in holders(dri)
                  for kind, resource, subject, _, _ in holder.grants(now)
                  if subject in subjects)


def world(flags):
    """mallory (stories 1, 4, 6) holds a grant of every user kind: RBAC
    tokens, an SSO session and OIDC access tokens at the broker, an SSH
    certificate, a login-node session, a Zenith web session, a notebook
    and a job on each cluster."""
    dri = build_isambard(seed=31, **flags)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("mallory")
    assert s1.ok, s1.steps
    assert wf.story4_ssh_session("mallory").ok
    assert wf.story6_jupyter("mallory").ok
    account, project = s1.data["unix_account"], s1.data["project_id"]
    for slurm in dri.schedulers:
        slurm.submit(account, project, nodes=1, walltime=3600)
    sub = wf.personas["mallory"].broker_sub
    kinds = {kind for kind, _, _ in live(dri, {sub, account})}
    assert kinds == {"rbac-token", "sso-session", "access-token", "ssh-cert",
                     "ssh-session", "web-session", "jupyter",
                     "slurm-job"}, kinds
    return dri, sub, account


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_contain_user_leaves_no_live_grant(build):
    """Containment severs the same grants whichever subject form the SOC
    names: the broker sub or the UNIX account."""
    for form in ("sub", "account"):
        dri, sub, account = world(BUILDS[build])
        record = dri.killswitch.contain_user(sub if form == "sub" else account)
        assert live(dri, {sub, account}) == [], form
        assert account in dri.bastion.flagged_principals, form
        # the flag and one entry per surface: nothing else is an action
        assert record.actions_run == 5 == len(record.details), form
        # the broker records the sever of the uid it issued to, and none
        # for the account the walk also hands it
        revoked = dri.broker.audit.query(action="access.revoked")
        assert [e.resource for e in revoked] == [sub], form


@pytest.mark.parametrize("outage", ["portal-down", "portal-cold-restart"])
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_containment_reaches_the_accounts_while_the_portal_is_empty(
        build, outage):
    """A crashed portal, and one restarted without a journal, hold no
    UNIX account; containment by uid still ends the login-node session,
    which its sshd holds under the uid it was issued to.  With authz the
    identity graph's aliases reach the account's jobs and bastion flag
    too; a default build knows no account then, and a job holds only its
    account, so the jobs outlive the containment."""
    dri, sub, account = world(BUILDS[build])
    dri.crash("portal")
    if outage == "portal-cold-restart":
        dri.restart("portal")
    assert dri.portal.unix_accounts.resolve(sub) == (sub, [])
    record = dri.killswitch.contain_user(sub)
    left = {kind for kind, _, _ in live(dri, {sub, account})}
    assert left == ({"slurm-job"} if build == "default" else set())
    assert (account in dri.bastion.flagged_principals) == (build == "authz")
    assert record.details["ssh"] >= 2
    assert record.details["compute"] >= (1 if build == "default" else 3)


def test_portal_revocation_severs_the_members_certificate_and_web_session():
    """A PI's /revoke_member ends every grant the member holds through
    the project, and the grants keyed by uid whole; only the member's
    broker login (SSO session and OIDC access tokens) and RBAC tokens of
    another project (or of none) may outlive it."""
    dri = build_isambard(seed=31)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("mallory")
    project = s1.data["project_id"]
    s3 = wf.story3_researcher_setup(project, "mallory", "bob")
    assert wf.story4_ssh_session("bob").ok
    assert wf.story6_jupyter("bob").ok
    bob, account = wf.personas["bob"].broker_sub, s3.data["unix_account"]
    for slurm in dri.schedulers:
        slurm.submit(account, project, nodes=1, walltime=3600)
    held = {kind for kind, _, _ in live(dri, {bob, account})}
    assert {"ssh-cert", "ssh-session", "web-session", "jupyter",
            "slurm-job"} <= held, held
    pi = wf.personas["mallory"]
    token = wf.mint(pi, "portal", "pi", project=project).body["token"]
    resp, _ = pi.agent.post(
        make_url("portal", "/revoke_member"),
        {"project_id": project, "uid": bob},
        headers={"Authorization": f"Bearer {token}"},
    )
    assert resp.ok, resp.body
    left = [g for g in live(dri, {bob, account})
            if g[0] not in ("sso-session", "access-token")]
    assert [g for g in left if g[0] != "rbac-token"] == []
    for _, jti, _ in left:
        assert dri.broker.tokens.issued(jti).project != project


def test_revocation_sweeps_both_clusters():
    """Closing a project severs its member's sessions on Isambard-AI and
    on Isambard 3 alike: one certificate opened both."""
    dri = build_isambard(seed=23)
    s1 = dri.workflows.story1_pi_onboarding("iris")
    project_id, account = s1.data["project_id"], s1.data["unix_account"]
    client = dri.workflows.personas["iris"].ssh_client
    assert client.request_certificate(login_nodes={
        "ai.isambard": "login-node", "3.isambard": "login-node-i3"}).ok
    for alias in sorted(client.ssh_config):
        assert client.ssh(alias).ok
    assert all(sshd.sessions() for sshd in dri.login_nodes)
    # the allocator closes the project
    alloc = dri.workflows.personas["allocator"]
    dri.workflows.login(alloc)
    token = dri.workflows.mint(alloc, "portal", "allocator").body["token"]
    resp, _ = alloc.agent.post(
        make_url("portal", "/close_project"), {"project_id": project_id},
        headers={"Authorization": f"Bearer {token}"},
    )
    assert resp.ok
    for sshd in dri.login_nodes:
        assert not [s for s in sshd.sessions() if s.principal == account]


@pytest.mark.parametrize("expired", [False, True], ids=["live", "expired"])
@pytest.mark.parametrize("at", range(len(build_isambard(seed=31).surfaces())))
def test_a_sever_counts_and_audits_only_what_was_live(at, expired):
    """Each holder's ``sever`` returns how many of the subject's grants
    its ``grants(now)`` listed just before, and one that counts none
    writes no audit record."""
    dri, sub, account = world({})
    if expired:
        dri.clock.advance(dri.jupyter.session_ttl + 10)
    holder = dri.surfaces()[at][1]
    for subject in (sub, account):
        now = dri.clock.now()
        listed = sum(grant[2] == subject for grant in holder.grants(now))
        records = len(dri.audit)
        assert holder.sever(subject, "test") == listed
        assert listed or len(dri.audit) == records


@pytest.mark.durability
def test_a_sever_after_expiry_journals_nothing():
    """Once every grant has expired, a whole-user sever of each persona
    ends nothing, so the broker journals nothing: no session revocation
    and no access-token revocation for grants no decision would honour."""
    dri = build_isambard(seed=7, durability=True)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi")
    assert s1.ok, s1.steps
    assert wf.story3_researcher_setup(s1.data["project_id"], "pi", "res1").ok
    assert wf.story6_jupyter("res1").ok
    broker = dri.broker
    dri.clock.advance(max(broker.sessions.ttl, broker.access_ttl,
                          dri.jupyter.session_ttl) + 10)
    appends = broker.journal.appends
    for persona in ("allocator", "pi", "res1"):
        severed = dri.sever(wf.personas[persona].broker_sub, by="x")
        assert set(severed.values()) == {0}, (persona, severed)
    assert broker.journal.appends == appends
