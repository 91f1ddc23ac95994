"""ABL4 — the HA bastion set: availability under rolling patching.

§III.B: the bastions are "operated as a high-availability VM set so that
they can be patched and updated quickly ... live updates to be
undertaken without risk of disruption".  The ablation patches every VM
in sets of size 1, 2 and 3 while a user keeps logging in; expected
shape: any multi-VM set sustains 100% availability through the rolling
patch, the single-VM baseline drops to zero during its patch window.
"""

import pytest

from repro.core import build_isambard
from repro.core.metrics import format_table


def rolling_patch_availability(vm_count: int, seed: int, *, attempts_per_vm: int = 4):
    dri = build_isambard(seed=seed, bastion_vms=vm_count)
    dri.workflows.story1_pi_onboarding("uma")
    uma = dri.workflows.personas["uma"]
    client = uma.ssh_client
    client.request_certificate()
    alias = sorted(client.ssh_config)[0]

    ok = total = 0
    for vm in list(dri.bastion.vms):
        # the single-VM baseline must force the drain: the guard refuses
        # to take down the last live bastion during a rolling patch
        dri.bastion.drain(vm.vm_id, force=(vm_count == 1))
        for _ in range(attempts_per_vm):
            total += 1
            if client.ssh(alias).ok:
                ok += 1
        dri.bastion.patch_and_restore(vm.vm_id, "v2")
    patched = all(vm.image_version == "v2" for vm in dri.bastion.vms)
    return dri, ok / total, patched


def test_ablation_bastion_ha(report):
    rows = []
    availability = {}
    for count in (1, 2, 3):
        if count == 2:
            dri, avail, patched = rolling_patch_availability(2, 81)
        else:
            dri, avail, patched = rolling_patch_availability(count, seed=80 + count)
        availability[count] = avail
        rows.append([count, f"{avail:.0%}", "yes" if patched else "no"])

    # shape: single bastion loses all logins during its own patch; any
    # HA set sustains full availability
    assert availability[1] == 0.0
    assert availability[2] == 1.0 and availability[3] == 1.0

    # load balancing spreads connections across the live set
    dri2 = build_isambard(seed=85, bastion_vms=3)
    dri2.workflows.story1_pi_onboarding("vik")
    client = dri2.workflows.personas["vik"].ssh_client
    client.request_certificate()
    alias = sorted(client.ssh_config)[0]
    for _ in range(9):
        assert client.ssh(alias).ok
    counts = [vm.connections_handled for vm in dri2.bastion.vms]
    lb_rows = [[vm.vm_id, vm.connections_handled] for vm in dri2.bastion.vms]
    assert max(counts) - min(counts) <= 1

    # the drain guard: an unforced drain of the last live VM is refused,
    # so a rolling patch cannot silently zero availability
    from repro.errors import ConfigurationError
    dri3, _, _ = rolling_patch_availability(2, seed=86)
    dri3.bastion.drain("bastion-vm0")
    with pytest.raises(ConfigurationError):
        dri3.bastion.drain("bastion-vm1")
    assert len(dri3.bastion.up_vms()) == 1

    report("ablation_bastion_ha", "\n\n".join([
        format_table(["bastion VMs", "login availability during rolling patch",
                      "fully patched"], rows,
                     title="ABL4a: availability under rolling patching"),
        format_table(["vm", "connections"], lb_rows,
                     title="ABL4b: load balancing across the HA set"),
    ]))
