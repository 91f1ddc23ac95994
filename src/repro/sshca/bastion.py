"""The high-availability transparent SSH bastion set in Sitewide Services.

§III.B: a "redundant set of bastion jump hosts, configured as a
high-availability set of VMs that are fully locked down", the only
internet-accessible service in SWS (port 22 only).  Behaviours modelled:

* **transparent jump**: the bastion forwards the SSH connection to the
  target login node without terminating authentication — certificate
  validation happens at the login-node sshd;
* **HA / rolling patch**: members can be drained and patched one at a
  time; the set keeps serving while at least one member is up;
* **kill switch**: "SSH access to flagged users can be terminated and
  blocked ... or the entire bastion service could be shut down" — both
  per-principal flags and a whole-service switch, operable externally;
* **log forwarding**: every connection attempt is audited (ingested by
  the SOC via the SIEM forwarders).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.errors import ConfigurationError, KillSwitchActive, ServiceUnavailable
from repro.net.http import HttpRequest, HttpResponse, Service, route

__all__ = ["BastionVm", "BastionSet"]


@dataclass
class BastionVm:
    """One locked-down, read-only-image jump host VM."""

    vm_id: str
    image_version: str
    up: bool = True
    connections_handled: int = 0


class BastionSet(Service):
    """The HA bastion service (one network endpoint, several VMs behind it)."""

    def __init__(
        self,
        name: str,
        clock: SimClock,
        *,
        audit: AuditLog,
        vm_count: int = 2,
        image_version: str = "v1",
    ) -> None:
        super().__init__(name)
        if vm_count < 1:
            raise ConfigurationError("a bastion set needs at least one VM")
        self.clock = clock
        self.audit = audit
        self.vms: List[BastionVm] = [
            BastionVm(vm_id=f"{name}-vm{i}", image_version=image_version)
            for i in range(vm_count)
        ]
        self._rr = 0
        self.flagged_principals: Set[str] = set()
        self.service_killed = False

    # ------------------------------------------------------------------
    # HA operations
    # ------------------------------------------------------------------
    def up_vms(self) -> List[BastionVm]:
        return [vm for vm in self.vms if vm.up]

    def drain(self, vm_id: str, *, force: bool = False) -> None:
        """Take one VM out of rotation (start of a rolling patch).

        Refuses to drain the last VM still up — that would silently turn
        a rolling patch into a full outage of the only internet door into
        SWS.  Deliberate shutdowns pass ``force=True`` (or use the kill
        switch, which is the honest tool for that).
        """
        vm = self._vm(vm_id)
        if not force and vm.up and len(self.up_vms()) == 1:
            self.log_event("ops", "bastion.drain", vm_id, Outcome.DENIED,
                reason="last-up-vm",
            )
            raise ConfigurationError(
                f"refusing to drain {vm_id}: it is the last bastion VM up "
                "(pass force=True to take the service down deliberately)"
            )
        vm.up = False
        self.log_event("ops", "bastion.drain", vm_id, Outcome.INFO,
            forced=force,
        )

    def patch_and_restore(self, vm_id: str, image_version: str) -> None:
        """Finish patching: new read-only image, back into rotation."""
        vm = self._vm(vm_id)
        vm.image_version = image_version
        vm.up = True
        self.log_event("ops", "bastion.patched", vm_id,
            Outcome.INFO, image=image_version,
        )

    def _vm(self, vm_id: str) -> BastionVm:
        for vm in self.vms:
            if vm.vm_id == vm_id:
                return vm
        raise ConfigurationError(f"no bastion VM {vm_id!r}")

    def _pick_vm(self) -> BastionVm:
        live = self.up_vms()
        if not live:
            raise ServiceUnavailable("no bastion VM is up")
        vm = live[self._rr % len(live)]
        self._rr += 1
        return vm

    # ------------------------------------------------------------------
    # kill switch (externally managed — §III.B)
    # ------------------------------------------------------------------
    def flag_principal(self, principal: str) -> None:
        """Block a specific user immediately."""
        self.flagged_principals.add(principal)
        self.log_event("killswitch", "bastion.flag", principal,
            Outcome.INFO,
        )

    def unflag_principal(self, principal: str) -> None:
        self.flagged_principals.discard(principal)

    def kill_service(self) -> None:
        """Shut down the whole bastion service (extreme containment)."""
        self.service_killed = True
        self.log_event("killswitch", "bastion.kill", "*",
            Outcome.INFO,
        )

    def restore_service(self) -> None:
        self.service_killed = False

    # ------------------------------------------------------------------
    # the jump itself
    # ------------------------------------------------------------------
    @route("POST", "/connect")
    def connect(self, request: HttpRequest) -> HttpResponse:
        """Forward an SSH connection to the target login node.

        The bastion is deliberately dumb about certificates (it is a
        transparent ProxyJump) but it is the enforcement point for the
        kill switch, and it logs everything.
        """
        principal = str(request.body.get("principal", ""))
        target = str(request.body.get("target", ""))
        now = self.clock.now()
        if self.service_killed:
            self.log_event(principal, "ssh.connect", target, Outcome.DENIED,
                reason="service-killed",
            )
            raise KillSwitchActive("bastion service is shut down")
        if principal in self.flagged_principals:
            self.log_event(principal, "ssh.connect", target, Outcome.DENIED,
                reason="principal-flagged",
            )
            raise KillSwitchActive(f"SSH access for {principal!r} is blocked")
        vm = self._pick_vm()
        vm.connections_handled += 1
        self.log_event(principal, "ssh.connect", target, Outcome.INFO,
            via=vm.vm_id, origin=request.source,
        )
        inner = HttpRequest(
            "POST", "/session",
            body=dict(request.body),
            headers={"X-Jump-Host": vm.vm_id, "X-Origin": request.source},
        )
        return self.call(target, inner, port=22)
