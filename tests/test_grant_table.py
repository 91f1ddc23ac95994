"""What a holder lists is what it severs, in any order of events.

Every enforcement surface keeps its live grants in a ``GrantTable``:
``grants(now)`` reads it and ``sever(subject, ...)`` ends what it holds
for that subject.  This property drives one holder of a real deployment
at a time through open, end, expire, sever and read steps in any order.
After every step each of the holder's tables equals a brute-force walk
of the holder's history (the reference model, written here only), and a
sever step ends exactly as many grants as ``grants(now)`` listed for its
subject, leaving none listed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.slurm import JobState
from repro.core import build_isambard
from repro.errors import ReproError

PERSONAS = ("mallory", "bob")
# seconds: inside every lifetime, past the OIDC access token (300 s),
# the RBAC token (900 s), the SSO session and a job (3,600 s), and the
# notebook and certificate (4 h)
DTS = (1.0, 400.0, 1000.0, 3700.0, 15_000.0)
STEP = st.tuples(st.sampled_from(("open", "end", "expire", "sever", "read")),
                 st.integers(0, 3), st.sampled_from(DTS))


def _tokens(dri, now):
    tokens = dri.broker.tokens
    return tokens._granted, {
        jti for jti, rec in tokens._issued.items()
        if rec.expires_at > now and not rec.infra
        and jti not in tokens._revoked}


def _sso_sessions(dri, now):
    store = dri.broker.sessions
    return store._granted, {s.sid for s in store.export_sessions()
                            if not s.revoked and now < s.expires_at}


def _access_tokens(dri, now):
    broker = dri.broker
    return broker._granted, {
        jti for jti, rec in broker._issued.items()
        if rec["exp"] > now and jti not in broker._revoked_jtis}


def _certificates(dri, now):
    ca = dri.ssh_ca
    return ca._granted, {
        str(serial) for serial, rec in ca._issued_certs.items()
        if rec["kind"] == "user" and rec["valid_before"] > now
        and serial not in ca._revoked_serials}


def _login_sessions(dri, now):
    sshd = dri.login_sshd
    return sshd._granted, {s.session_id
                           for s in sshd.sessions(active_only=False)
                           if not s.closed and now < s.expires_at}


def _web_sessions(dri, now):
    zenith = dri.zenith
    return zenith._granted, {sid for sid, s in zenith._web_sessions.items()
                             if now < s["expires_at"]}


def _notebooks(dri, now):
    jupyter = dri.jupyter
    return jupyter._granted, {s.session_id
                              for s in jupyter.sessions(active_only=False)
                              if not s.closed and now < s.expires_at}


def _jobs(dri, now):
    slurm = dri.schedulers[0]
    return slurm._granted, {
        job.job_id for job in slurm.jobs()
        if job.state in (JobState.PENDING, JobState.RUNNING)}


def _open_session(dri, name, _):
    dri.workflows.relogin(dri.workflows.personas[name])


def _open_token(dri, name, _):
    wf = dri.workflows
    wf.mint(wf.personas[name], "jupyter", "researcher")


def _open_ssh(dri, name, _):
    dri.workflows.story4_ssh_session(name)


def _open_notebook(dri, name, _):
    dri.workflows.story6_jupyter(name)


def _open_job(dri, _, subjects):
    account, project = subjects
    dri.schedulers[0].submit(account, project, nodes=1, walltime=3600.0)


def _end_token(dri, jti):
    dri.broker.tokens.revoke_jti(jti)


def _end_sso_session(dri, sid):
    dri.broker.sessions.revoke(sid)


def _end_access_token(dri, jti):
    dri.broker.revoke_jti(jti)


def _end_notebook(dri, session_id):
    assert dri.jupyter.close_session(session_id)


def _end_job(dri, job_id):
    assert dri.schedulers[0].cancel(job_id, by="test")


# holder -> (the holder, its opens, its (table, reference walk, end)s);
# a grant with no end of its own ends only at expiry or on a sever
HOLDERS = {
    "broker": (lambda dri: dri.broker, (_open_session, _open_token),
               ((_tokens, _end_token), (_sso_sessions, _end_sso_session),
                (_access_tokens, _end_access_token))),
    "ssh-ca": (lambda dri: dri.ssh_ca, (_open_ssh,),
               ((_certificates, None),)),
    "sshd": (lambda dri: dri.login_sshd, (_open_ssh,),
             ((_login_sessions, None),)),
    "zenith": (lambda dri: dri.zenith, (_open_notebook,),
               ((_web_sessions, None),)),
    "jupyter": (lambda dri: dri.jupyter, (_open_notebook,),
                ((_notebooks, _end_notebook),)),
    "slurm": (lambda dri: dri.schedulers[0], (_open_job,),
              ((_jobs, _end_job),)),
}


def world():
    """mallory, a PI, and bob, a researcher in her project, each with a
    broker sub and a UNIX account."""
    dri = build_isambard(seed=31)
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("mallory")
    assert s1.ok, s1.steps
    project = s1.data["project_id"]
    s3 = wf.story3_researcher_setup(project, "mallory", "bob")
    assert s3.ok, s3.steps
    accounts = {"mallory": (s1.data["unix_account"], project),
                "bob": (s3.data["unix_account"], project)}
    subjects = [form for name in PERSONAS
                for form in (wf.personas[name].broker_sub,
                             accounts[name][0])]
    return dri, accounts, subjects


def listed(holder, subject, now):
    return sum(grant[2] == subject for grant in holder.grants(now))


@pytest.mark.parametrize("name", sorted(HOLDERS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(steps=st.lists(STEP, min_size=1, max_size=10))
def test_a_holder_severs_what_it_lists(name, steps):
    dri, accounts, subjects = world()
    of, opens, tables = HOLDERS[name]
    holder = of(dri)
    for op, who, dt in steps:
        persona = PERSONAS[who % 2]
        subject = subjects[who]
        now = dri.clock.now()
        if op == "open":
            for open_ in opens:
                try:
                    open_(dri, persona, accounts[persona])
                except ReproError:
                    pass  # refused after a sever: a step like any other
        elif op == "end":
            for walk, end in tables:
                table = walk(dri, now)[0]
                mine = sorted(gid for gid, held, _, _ in table.live(now)
                              if held == subject)
                if end is not None and mine:
                    end(dri, mine[0])
        elif op == "expire":
            dri.clock.advance(dt)
        elif op == "sever":
            count = listed(holder, subject, now)
            assert holder.sever(subject, "test") == count, (op, subject)
            assert listed(holder, subject, dri.clock.now()) == 0
        else:
            assert sorted(grant[1] for grant in holder.grants(now)
                          if grant[0] != "tunnel") == sorted(
                gid for walk, _ in tables for gid in walk(dri, now)[1])
        now = dri.clock.now()
        for walk, _ in tables:
            table, live = walk(dri, now)
            assert {gid for gid, _, _, _ in table.live(now)} == live, (op, walk)
