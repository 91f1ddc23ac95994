#!/usr/bin/env python3
"""An LLM-training research campaign on Isambard-AI, cradle to grave.

The scenario the paper's introduction motivates: an AI research group
gets a national allocation, onboards through federated SSO, works on the
cluster (SSH + Slurm jobs + project storage), exhausts part of its
GPU-hour budget, loses a member mid-campaign (revocation), and finally
the project expires and every credential and account dies with it.

Run:  python examples/llm_training_campaign.py
"""

from repro import build_isambard
from repro.cluster import JobState
from repro.errors import QuotaExceeded


def main() -> None:
    dri = build_isambard(seed=2024)
    wf = dri.workflows

    print("=== Phase 1: allocation and onboarding ===")
    s1 = wf.story1_pi_onboarding(
        "priya", project_name="proj-llm70b", gpu_hours=2_000,
        duration=2 * 24 * 3600.0,
    )
    project_id = s1.data["project_id"]
    print(f"  project {project_id} allocated: 2000 GPU-hours, 2 days")
    team = []
    for name in ("raj", "mei", "tomas"):
        s3 = wf.story3_researcher_setup(project_id, "priya", name)
        team.append(s3.data["unix_account"])
        print(f"  onboarded {name} -> {s3.data['unix_account']}")

    print("\n=== Phase 2: cluster work ===")
    # everyone SSHes in via short-lived certs
    for name in ("priya", "raj", "mei", "tomas"):
        s4 = wf.story4_ssh_session(name)
        print(f"  {name}: {s4.data['session_id']} as {s4.data['principal']}")

    # project storage
    dri.filesystem.provision(project_id)
    dri.filesystem.write(team[0], project_id, "/datasets/pile.tokenized", 2**40)
    print(f"  dataset staged: "
          f"{dri.filesystem.usage(project_id).used_bytes / 2**40:.1f} TiB")

    # training jobs through the scheduler, charged to the allocation
    job = dri.slurm.submit(team[0], project_id, nodes=64, walltime=3600)
    print(f"  {job.job_id}: 64 nodes x 1h = {job.gpu_hours():.0f} GPU-hours "
          f"({job.state.value})")
    dri.clock.advance(3700)
    print(f"  {job.job_id} -> {dri.slurm.job(job.job_id).state.value}")
    project = dri.portal.project(project_id)
    print(f"  allocation used: {project.allocation.gpu_hours_used:.0f} / "
          f"{project.allocation.gpu_hours:.0f} GPU-hours")

    # the allocation is a hard limit
    try:
        dri.slurm.submit(team[1], project_id, nodes=168, walltime=12 * 3600)
    except QuotaExceeded as exc:
        print(f"  oversized job refused: {exc}")

    print("\n=== Phase 3: a member leaves (on-demand revocation) ===")
    priya = wf.personas["priya"]
    # an hour of simulated time passed: the PI's broker session has
    # expired, so she re-authenticates (time-limited sessions, §III)
    wf.relogin(priya)
    tomas_sub = wf.personas["tomas"].broker_sub
    from repro.oidc import make_url

    pi_token = wf.mint(priya, "portal", "pi", project=project_id).body["token"]
    priya.agent.post(
        make_url("portal", "/revoke_member"),
        {"project_id": project_id, "uid": tomas_sub},
        headers={"Authorization": f"Bearer {pi_token}"},
    )
    retry = wf.personas["tomas"].ssh_client.ssh_direct("tomas." + project_id)
    print(f"  tomas removed by the PI; his next SSH attempt -> "
          f"HTTP {retry.status} ({retry.body.get('error', '')[:60]}...)")

    print("\n=== Phase 4: project expiry ===")
    dri.clock.advance(3 * 24 * 3600)  # past the 2-day allocation
    dri.refresh_tunnels()
    project = dri.portal.project(project_id)
    print(f"  project status: {project.status.value}; "
          f"active members: {len(project.active_members())}")
    relogin = wf.relogin(wf.personas["raj"])
    print(f"  raj tries to log in after expiry -> HTTP {relogin.status} "
          f"(authorisation removed with the project)")

    print(f"\nTotal audit events: {len(dri.audit)}; "
          f"jobs completed: {len(dri.slurm.jobs(JobState.COMPLETED))}")


if __name__ == "__main__":
    main()
