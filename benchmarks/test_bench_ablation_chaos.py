"""ABL6 — what the resilience layer buys under injected chaos.

The paper's control plane spans four operating domains, and §IV.B's
workshop story assumes the identity broker answers every one of the ~6
broker round-trips a Jupyter login needs.  This ablation drives the US6
fleet through a 30% broker brownout and a SIEM sink outage with the
resilience layer (retry/backoff + circuit breakers + graceful
degradation) on vs. off, and measures:

* login success rate and p50/p95/p99 latency under the brownout;
* audit records lost across the SIEM outage (durable forwarder buffer
  vs. drop-on-failure);
* the degraded-validation security bound: a cached introspection verdict
  may ride at most ``staleness_window`` seconds past a revocation the
  authenticator could not see — never longer.

Everything runs on the simulated clock with seeded RNGs, so both arms
are bit-for-bit reproducible; the determinism assertion below re-runs
the chaos arm and compares fingerprints.

``BENCH_QUICK=1`` shrinks the fleet for CI smoke runs.
"""

import os

from repro.core import build_isambard
from repro.core.metrics import format_table, latency_stats
from repro.errors import ServiceUnavailable
from repro.net.http import HttpRequest
from repro.resilience import RetryPolicy
from repro.tunnels.zenith import TOKEN_HEADER

QUICK = os.environ.get("BENCH_QUICK") == "1"
N_USERS = 6 if QUICK else 18
BROWNOUT_P = 0.30
SIEM_OUTAGE = 120.0


def jupyter_fleet(resilient: bool, seed: int, *, n_users: int = N_USERS):
    """Onboard a fleet cleanly, then log everyone in through a broker
    brownout and ship audit logs across a SIEM sink outage."""
    dri = build_isambard(
        seed=seed,
        resilience=RetryPolicy(max_attempts=8) if resilient else False,
    )
    wf = dri.workflows
    s1 = wf.story1_pi_onboarding("pi", project_name="chaos-proj")
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    users = [f"user{i:02d}" for i in range(n_users)]
    for name in users:
        assert wf.story3_researcher_setup(project_id, "pi", name).ok

    # --- phase 1: the fleet logs in through a broker brownout ---------
    brownout = dri.faults.brownout("broker", BROWNOUT_P)
    successes, latencies = 0, []
    for name in users:
        t0 = dri.clock.now()
        try:
            ok = wf.story6_jupyter(name).ok
        except ServiceUnavailable:
            ok = False  # fail-fast arm: the fault surfaces to the user
        if ok:
            successes += 1
            latencies.append(dri.clock.now() - t0)
    brownout.clear()

    # --- phase 2: the SIEM sink goes dark for a while -----------------
    if not resilient:
        for fw in dri.forwarders:
            fw.retain_on_failure = False  # ablate the durable buffer
    dri.ship_logs()  # drain the backlog so the outage window is clean
    shipped_before = sum(fw.shipped for fw in dri.forwarders)
    dri.faults.outage("soc", duration=SIEM_OUTAGE)
    # traffic keeps generating audit records while the sink is dark; the
    # interval timers flush into the outage, then through and past it
    for name in users[:3]:
        try:
            wf.story6_jupyter(name)
        except ServiceUnavailable:
            pass
    dri.clock.advance(SIEM_OUTAGE + 30.0)
    dri.ship_logs()
    audit_lost = sum(fw.lost for fw in dri.forwarders)
    still_buffered = sum(fw.buffered() for fw in dri.forwarders)
    shipped_through = sum(fw.shipped for fw in dri.forwarders) - shipped_before

    fingerprint = (
        successes, tuple(round(l, 9) for l in latencies),
        round(dri.clock.now(), 9), dri.faults.injected_failures,
        audit_lost, shipped_through, dri.soc.records_ingested,
    )
    return {
        "dri": dri,
        "success_rate": successes / n_users,
        "stats": latency_stats(latencies),
        "audit_lost": audit_lost,
        "still_buffered": still_buffered,
        "shipped_through": shipped_through,
        "sink_failures": sum(fw.sink_failures for fw in dri.forwarders),
        "fingerprint": fingerprint,
    }


def staleness_bound(seed: int, *, window: float = 300.0):
    """The degraded-validation trade-off, measured end to end: a cached
    'active' verdict survives a revocation the dark broker cannot report,
    but only within ``staleness_window``."""
    dri = build_isambard(
        seed=seed, resilience=RetryPolicy(max_attempts=2),
        staleness_window=window,
    )
    wf = dri.workflows
    assert wf.story1_pi_onboarding("olu").ok
    minted = wf.mint(wf.personas["olu"], "jupyter", "pi").body
    token, jti = str(minted["token"]), str(minted["jti"])

    # introspected-active while healthy: the authenticator caches it
    assert dri.jupyter.handle(
        HttpRequest("GET", "/", headers={TOKEN_HEADER: token})).ok
    # revocation lands, then the broker goes dark before any re-check
    dri.broker.tokens.revoke_jti(jti)
    dri.faults.outage("broker")

    dri.clock.advance(window / 5)  # still inside the staleness window
    mid = dri.jupyter.handle(
        HttpRequest("GET", "/", headers={TOKEN_HEADER: token}))
    dri.clock.advance(window)      # now past it
    late = dri.jupyter.handle(
        HttpRequest("GET", "/", headers={TOKEN_HEADER: token}))
    return dri, mid.ok, late.ok


def test_ablation_chaos(report):
    on = jupyter_fleet(True, 61)
    off = jupyter_fleet(False, 62)

    # (a) resilience carries the fleet through the brownout; fail-fast
    #     collapses (≈ 0.7^6 per login: six broker round-trips each)
    assert on["success_rate"] >= 0.99
    assert off["success_rate"] < 0.8

    # (b) the durable forwarder buffer loses nothing across the SIEM
    #     outage — every retained record replays once the sink returns
    assert on["sink_failures"] > 0        # the outage really bit
    assert on["audit_lost"] == 0
    assert on["still_buffered"] == 0
    assert on["shipped_through"] > 0
    assert off["audit_lost"] > 0          # drop-on-failure leaks records

    # (c) degraded validation is bounded: cached verdicts admit inside
    #     the staleness window, never past it
    dri_s, mid_ok, late_ok = staleness_bound(63)
    assert mid_ok and not late_ok
    assert dri_s.jupyter.degraded_validations > 0
    assert dri_s.jupyter.degraded_rejections > 0

    # (d) chaos is bit-for-bit reproducible from its seed
    assert jupyter_fleet(True, 61)["fingerprint"] == on["fingerprint"]

    def row(label, arm, extra):
        s = arm["stats"]
        return [label, f"{arm['success_rate']:.2f}",
                f"{s['p50']:.2f}", f"{s['p95']:.2f}", f"{s['p99']:.2f}",
                arm["audit_lost"], extra]

    report("ablation_chaos", format_table(
        ["control plane", "US6 success", "p50 (s)", "p95 (s)", "p99 (s)",
         "audit records lost", "note"],
        [
            row("resilience layer on", on,
                "retry+breaker absorbs the brownout; buffer replays"),
            row("fail-fast (ablated)", off,
                "six broker hops each at 30% loss; drops audit on outage"),
        ],
        title=(f"ABL6: {N_USERS}-user Jupyter fleet, {BROWNOUT_P:.0%} broker "
               f"brownout + {SIEM_OUTAGE:.0f}s SIEM outage"),
    ))
