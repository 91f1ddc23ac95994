"""The SSH certificate client application.

User story 4: the researcher "downloads and runs the SSH certificate
client application on a local device".  The app:

1. generates/holds the user's SSH keypair;
2. runs the broker login flow (the user authenticates in their browser);
3. submits the public key to the broker's ``/ssh/certificate`` route and
   stores the returned short-lived certificate;
4. (optionally) rewrites the user's SSH configuration with one alias per
   project, each routing through the bastion with a ``ProxyJump`` rule —
   "details of the user's Linux account and use of the jump host is
   transparent".

The client then opens SSH connections: laptop → bastion (port 22) →
login node, presenting the certificate and a proof-of-possession
signature that the login-node sshd verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.jwk import verifying_key
from repro.errors import CertificateError
from repro.net.http import HttpRequest, HttpResponse
from repro.oidc.client import UserAgent
from repro.oidc.messages import make_url
from repro.sshca.certificate import SshKeyPair, validate_host_certificate

__all__ = ["SshConfigEntry", "SshCertClient"]


@dataclass
class SshConfigEntry:
    """One Host block in the rewritten ssh config."""

    alias: str            # e.g. "proj-0001.ai.isambard"
    hostname: str         # login node endpoint
    user: str             # project unix account
    proxy_jump: str       # bastion endpoint

    def render(self) -> str:
        return (
            f"Host {self.alias}\n"
            f"    HostName {self.hostname}\n"
            f"    User {self.user}\n"
            f"    ProxyJump {self.proxy_jump}\n"
            f"    CertificateFile ~/.ssh/id_isambard-cert.pub\n"
        )


class SshCertClient:
    """Runs on the user's device alongside their :class:`UserAgent`.

    Parameters
    ----------
    agent:
        The user's browser/device agent (used both for the login flow and
        as the network origin of SSH connections).
    broker_endpoint, bastion_endpoint:
        Network endpoint names.
    """

    def __init__(
        self,
        agent: UserAgent,
        *,
        broker_endpoint: str = "broker",
        bastion_endpoint: str = "bastion",
    ) -> None:
        self.agent = agent
        self.broker = broker_endpoint
        self.bastion = bastion_endpoint
        self.keypair = SshKeyPair.generate()
        self.certificate: Optional[str] = None
        self.valid_before: Optional[float] = None
        self.ssh_config: Dict[str, SshConfigEntry] = {}
        # the CA public key pinned from the certificate response: with it
        # the client verifies host certificates (no trust-on-first-use).
        # The verifier is built when the pin changes, not per connection,
        # so it remembers the host certificate it has verified; the
        # host's proof of possession is still checked on every connection
        self.ca_public_jwk: Optional[Dict[str, str]] = None
        self._ca_verifier = None
        self.clock = None  # injected by the deployment for host-cert checks

    # ------------------------------------------------------------------
    def request_certificate(
        self,
        *,
        login_node: str = "login-node",
        login_nodes: Optional[Dict[str, str]] = None,
        update_config: bool = True,
    ) -> HttpResponse:
        """Submit the public key through the established broker session.

        The user must already hold a broker session (the login flow is
        the browser's job); without one the broker denies with 403.

        ``login_nodes`` maps a cluster label to its login endpoint (e.g.
        ``{"ai": "login-node", "3": "login-node-i3"}``); one alias per
        (project, cluster) is written.  The default is the single
        Isambard-AI login node.
        """
        resp, _ = self.agent.post(
            make_url(self.broker, "/ssh/certificate"),
            {"public_key_jwk": self.keypair.public_jwk()},
        )
        if resp.ok:
            self.certificate = str(resp.body["certificate"])
            self.valid_before = float(resp.body["valid_before"])
            ca_jwk = resp.body.get("ca_public_key_jwk")
            # by content — the dict is a new one on every response; a
            # different CA key gets a new verifier that remembers nothing
            if isinstance(ca_jwk, dict) and ca_jwk != self.ca_public_jwk:
                self.ca_public_jwk = ca_jwk
                self._ca_verifier = verifying_key(ca_jwk)
            if update_config:
                nodes = login_nodes or {"isambard": login_node}
                self._rewrite_ssh_config(resp.body, nodes)
        return resp

    def _rewrite_ssh_config(self, body: Dict[str, object],
                            login_nodes: Dict[str, str]) -> None:
        projects = body.get("projects", {})
        if isinstance(projects, dict):
            for project_id, account in projects.items():
                for label, hostname in login_nodes.items():
                    alias = f"{project_id}.{label}"
                    self.ssh_config[alias] = SshConfigEntry(
                        alias=alias,
                        hostname=hostname,
                        user=str(account),
                        proxy_jump=self.bastion,
                    )

    def rendered_config(self) -> str:
        """The ssh_config text a user would see on disk."""
        return "\n".join(e.render() for e in sorted(
            self.ssh_config.values(), key=lambda e: e.alias
        ))

    # ------------------------------------------------------------------
    def ssh(self, alias: str) -> HttpResponse:
        """``ssh <alias>`` — connect via the transparent jump host.

        Returns the login node's response (a session grant or denial).
        """
        entry = self.ssh_config.get(alias)
        if entry is None:
            raise CertificateError(f"no ssh-config alias {alias!r}; run the cert client")
        return self.ssh_direct(entry.user, hostname=entry.hostname)

    def ssh_direct(self, principal: str, *, hostname: str = "login-node") -> HttpResponse:
        """Open an SSH connection as ``principal`` through the bastion.

        When the CA key is pinned and the host presented a certificate,
        the host's identity is verified too (mutual authentication) —
        a response from a host that cannot prove itself is rejected.
        """
        if self.certificate is None:
            raise CertificateError("no certificate; run request_certificate() first")
        challenge = f"{hostname}|{principal}".encode()
        proof = self.keypair.prove_possession(challenge)
        request = HttpRequest(
            "POST",
            "/connect",
            body={
                "target": hostname,
                "principal": principal,
                "certificate": self.certificate,
                "proof": proof.hex(),
            },
        )
        resp = self.agent.call(self.bastion, request, port=22)
        if resp.ok and self._ca_verifier is not None and self.clock is not None:
            host_cert = resp.body.get("host_certificate")
            if not host_cert:
                raise CertificateError(
                    f"{hostname} presented no host certificate; refusing"
                )
            validate_host_certificate(
                str(host_cert), self._ca_verifier, self.clock,
                hostname=hostname,
                challenge=challenge,
                proof=bytes.fromhex(str(resp.body.get("host_proof", ""))),
            )
        return resp
