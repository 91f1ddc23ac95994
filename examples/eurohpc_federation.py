#!/usr/bin/env python3
"""EuroHPC-style federation: central allocations, local zero trust.

The paper's lineage (§II.B) is the LUMI/Puhuri model: identity federates
through MyAccessID, allocations federate through a central marketplace,
and each centre enforces its own zero-trust rules.  This example runs
the full loop:

1. a national allocator places an order at the Puhuri-style core;
2. the Isambard agent syncs it into the local portal (normal API, local
   rules enforced);
3. the PI onboards through federated SSO with the relayed invitation;
4. the PI's *headless lab workstation* obtains an SSH certificate via
   the OAuth device-authorization grant (no browser on the box);
5. usage flows back to the core for the national report.

Run:  python examples/eurohpc_federation.py
"""

from repro import build_isambard
from repro.net import HttpRequest, OperatingDomain, Service, Zone
from repro.oidc import make_url
from repro.portal import PuhuriAgent, PuhuriCore
from repro.sshca import SshKeyPair


def main() -> None:
    dri = build_isambard(seed=2026)

    print("=== 1. The central allocation order ===")
    # the core sits outside Isambard: its records land in the external
    # domain's log, which the SOC's forwarders already collect
    core = PuhuriCore("puhuri", dri.clock, dri.ids,
                      audit=dri.logs["external"])
    dri.network.attach(core, OperatingDomain.EXTERNAL, Zone.INTERNET)
    operator_key = core.register_operator("ukri-allocations")
    agent_key = core.register_offering("isambard-ai")
    order = dri.network.request(
        "broker", "puhuri",
        HttpRequest("POST", "/orders", headers={"X-Api-Key": operator_key},
                    body={"offering": "isambard-ai",
                          "project_name": "eurohpc-fusion-digital-twin",
                          "pi_email": "alice@idp.bristol.ac.uk",
                          "gpu_hours": 25_000.0}),
    )
    print(f"  order {order.body['order_id']} placed "
          f"(25k GPU-hours on isambard-ai)")

    print("\n=== 2. The local sync agent provisions it ===")
    agent = PuhuriAgent("isambard-ai", agent_key,
                        dri.network.endpoint("broker").service, dri.broker)
    project_id = agent.sync_orders()[0]
    project = dri.portal.project(project_id)
    print(f"  local project {project_id}: '{project.name}', "
          f"{project.allocation.gpu_hours:.0f} GPU-hours")

    print("\n=== 3. The PI onboards (federated SSO + relayed invitation) ===")
    status = dri.network.request(
        "broker", "puhuri",
        HttpRequest("GET", "/orders/status",
                    headers={"X-Api-Key": operator_key},
                    query={"order_id": order.body["order_id"]}))
    alice = dri.workflows.create_researcher("alice")
    dri.workflows.login(alice)
    invitee = dri.workflows.mint(alice, "portal", "invitee").body["token"]
    accepted, _ = alice.agent.post(
        make_url("portal", "/invitations/accept"),
        {"code": status.body["invite_code"], "preferred_username": "alice"},
        headers={"Authorization": f"Bearer {invitee}"},
    )
    dri.workflows.relogin(alice)
    print(f"  alice joined as {accepted.body['unix_account']} "
          f"(role {accepted.body['role']})")

    print("\n=== 4. Her headless workstation: device-authorization grant ===")
    workstation = Service("lab-workstation")
    dri.network.attach(workstation, OperatingDomain.EXTERNAL, Zone.INTERNET)
    dri.broker.register_client("ssh-cert-cli", ["https://unused/cb"],
                               require_pkce=False)
    start = workstation.call("broker", HttpRequest(
        "POST", "/device_authorization",
        body={"client_id": "ssh-cert-cli", "scope": "openid profile"}))
    print(f"  workstation says: visit {start.body['verification_uri']} "
          f"and enter code {start.body['user_code']}")
    approve, _ = alice.agent.post(make_url("broker", "/device"),
                                  {"user_code": start.body["user_code"]})
    print(f"  alice approved from her laptop: {approve.body}")
    dri.clock.advance(6)
    tokens = workstation.call("broker", HttpRequest(
        "POST", "/token",
        body={"grant_type": "urn:ietf:params:oauth:grant-type:device_code",
              "device_code": start.body["device_code"],
              "client_id": "ssh-cert-cli"}))
    kp = SshKeyPair.generate()
    cert = workstation.call("broker", HttpRequest(
        "POST", "/ssh/certificate",
        headers={"Authorization": f"Bearer {tokens.body['access_token']}"},
        body={"public_key_jwk": kp.public_jwk()}))
    print(f"  SSH certificate on the workstation: serial "
          f"{cert.body['serial']}, principals {cert.body['principals']}")

    print("\n=== 5. Work happens; usage reports flow back ===")
    account = accepted.body["unix_account"]
    job = dri.slurm.submit(account, project_id, nodes=32, walltime=3600)
    dri.clock.advance(3700)
    agent.report_usage(dri.portal)
    status = dri.network.request(
        "broker", "puhuri",
        HttpRequest("GET", "/orders/status",
                    headers={"X-Api-Key": operator_key},
                    query={"order_id": order.body["order_id"]}))
    print(f"  national view: state={status.body['state']}, "
          f"used {status.body['usage_reports'][-1]['gpu_hours_used']:.0f} "
          f"of 25000 GPU-hours")


if __name__ == "__main__":
    main()
