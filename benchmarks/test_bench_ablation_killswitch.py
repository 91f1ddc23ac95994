"""ABL3 — the externally managed kill switch: time to containment.

§III.B motivates the kill switch with speed: intervention "without
waiting for a direct intervention from the Isambard team".  The ablation
measures time-to-containment for a brute-force attacker as a function of
the log-forwarding interval, compares auto-containment against a
human-in-the-loop baseline (no auto-contain), and times the emergency
stop.  Expected shape: containment time is dominated by the forwarding
interval; without the kill switch the attacker runs for the whole
observation window.
"""

import pytest

from repro.authz import SURFACES
from repro.core import ThreatModel, build_isambard
from repro.core.metrics import format_table

INTERVALS = (1.0, 5.0, 30.0)
OBSERVATION = 600.0


def containment_for_interval(interval: float, seed: int, *, auto: bool = True):
    dri = build_isambard(seed=seed, forward_interval=interval,
                         auto_contain=auto)
    tm = ThreatModel(dri)
    t = tm.containment_time(attack_rate=1.0, max_time=OBSERVATION)
    return dri, t


def test_ablation_killswitch(report):
    rows = []
    times = {}
    for i, interval in enumerate(INTERVALS):
        if interval == 5.0:
            dri, t = containment_for_interval(5.0, 71)
        else:
            dri, t = containment_for_interval(interval, seed=70 + i)
        times[interval] = t
        rows.append([f"{interval:.0f}", "auto (SOC kill switch)",
                     f"{t:.1f}" if t is not None else f">{OBSERVATION:.0f}"])
        assert t is not None

    # no kill switch: the attacker is never contained in the window
    dri_manual, t_manual = containment_for_interval(5.0, seed=75, auto=False)
    rows.append(["5", "none (awaiting human intervention)",
                 f">{OBSERVATION:.0f} (never, in observation window)"])
    assert t_manual is None

    # shape: faster shipping -> faster containment (within one interval)
    assert times[1.0] <= times[5.0] <= times[30.0]
    for interval in INTERVALS:
        assert times[interval] <= interval + 15  # detection adds seconds

    # containment severs *everything* the principal has, whichever form
    # names it: each column contains mallory on a fresh build
    columns = []
    for form in ("account", "sub"):
        dri2 = build_isambard(seed=76)
        s1 = dri2.workflows.story1_pi_onboarding("mallory")
        dri2.workflows.story4_ssh_session("mallory")
        dri2.workflows.story6_jupyter("mallory")
        account = s1.data["unix_account"]
        sub = dri2.workflows.personas["mallory"].broker_sub
        record = dri2.killswitch.contain_user(
            account if form == "account" else sub)
        now = dri2.clock.now()
        assert not [g for _, holder in dri2.surfaces()
                    for g in holder.grants(now) if g[2] in (account, sub)]
        flagged = account in dri2.bastion.flagged_principals
        columns.append({"bastion-flag": "flagged" if flagged else "-",
                        **{s: str(record.details[s]) for s in SURFACES}})
    assert columns[0] == columns[1]
    severed_rows = [[row, *(column[row] for column in columns)]
                    for row in columns[0]]

    # emergency stop is instantaneous and total
    t0 = dri2.clock.now()
    stop = dri2.killswitch.emergency_stop()
    emergency_rows = [[", ".join(stop.details["services"]),
                       f"{stop.time - t0:.3f}"]]
    assert dri2.bastion.service_killed and dri2.tailnet.tailnet_killed
    dri2.killswitch.restore()

    report("ablation_killswitch", "\n\n".join([
        format_table(["log-forwarding interval (s)", "containment mode",
                      "time to containment (s)"], rows,
                     title="ABL3a: brute-force attacker, detection to containment"),
        format_table(["surface", f"contain({account})",
                      f"contain({sub[:20]}...)"],
                     severed_rows,
                     title="ABL3b: what one containment severs"),
        format_table(["services stopped", "elapsed (s)"], emergency_rows,
                     title="ABL3c: emergency stop of the whole front door"),
    ]))
