"""ABL11 — tail tolerance under gray failure.

The tail-tolerance layer (PR 7) defends the latency tail against
*gray* failure: replicas and regions that are slow-but-alive and
therefore invisible to breakers, health checks and the replication-lag
watchdog.  A 2000-operation introspection+mint surge runs through the
geo-router while one broker replica turns gray (``slow_replica``,
+500 ms) and a whole region browns out (``gray_region``, +120 ms), and
five arms ablate the defences one at a time:

* **baseline** — resilience on, tail layer off: the gray replica and
  the gray region ride straight into the login p99;
* **+deadlines** — adaptive per-attempt timeouts (``clamp(k × p99)``)
  abandon gray attempts pre-delivery and fail over;
* **+hedging** — read-shaped requests speculate to a second replica
  after the p95-derived hedge delay, capped by the hedge budget;
* **+ejection** — per-replica latency EWMAs temporarily eject the gray
  replica, and the geo-router detours the gray *region* — before the
  lag watchdog (structurally blind to gray: replication stays on time)
  ever fires;
* **all on** — the composition the deployment ships.

Correctness oracles ride every arm: hedged introspections never
double-apply (the per-region mint journals contain zero duplicate
jtis), the ABL10 revocation staleness bound still holds, and each arm
is bit-for-bit reproducible from its seed.

Two measurement choices keep the arms comparable in a *serialized*
discrete-event simulation.  Latency is per-operation service time
(dispatch → completion on the sim clock), not time-since-offered-
arrival: the sim runs one operation at a time, so open-loop queueing
delay would measure the serialization artifact, not the system.  And
the fault window opens and closes on *operation index* (25%–75% of the
surge) rather than sim time: a gray arm whose slow calls race the
clock forward would otherwise see the fault expire after a handful of
operations while a defended arm sits in it for thousands.

A separate pair of **retry-storm** arms hammers a browned-out broker
through a resilience kit with the retry budget off vs. on: the budget
caps the retry amplification (attempts per call) and the refusals it
audits drive the SOC's ``retry-storm`` detection.

The surge itself (cohort, op mix, oracles) is ``region_surge.py``,
shared with ABL10; ``BENCH_QUICK=1`` shrinks it for CI smoke runs.
"""

import random

import region_surge as surge
from repro.core import build_isambard
from repro.core.metrics import format_table, latency_stats
from repro.errors import RateLimited, ServiceUnavailable
from repro.net import OperatingDomain, Service, Zone
from repro.net.http import HttpRequest
from repro.resilience import Resilience, RetryPolicy, TailConfig

N_STORM = 80 if surge.QUICK else 200  # probe calls in the retry-storm arms
SLOW_EXTRA = 0.5                # the gray replica's per-message penalty
GRAY_EXTRA = 0.12               # the gray region's per-message penalty

ARMS = {
    "baseline": False,
    "deadlines": TailConfig(hedging=False, ejection=False,
                            retry_budget=False),
    "hedge": TailConfig(adaptive_deadlines=False, ejection=False,
                        retry_budget=False),
    "eject": TailConfig(adaptive_deadlines=False, hedging=False,
                        retry_budget=False),
    "all": TailConfig(),
}


def _lb_totals(dri):
    out = {"hedges": 0, "hedge_wins": 0, "attempt_timeouts": 0,
           "ejections": 0, "budget_ok": True}
    for region in dri.region_directory.regions():
        lb = region.lb
        out["hedges"] += lb.hedges
        out["hedge_wins"] += lb.hedge_wins
        out["attempt_timeouts"] += lb.attempt_timeouts
        if lb.ejector is not None:
            out["ejections"] += lb.ejector.ejections
        if lb.hedge_budget is not None:
            out["budget_ok"] = out["budget_ok"] and (
                lb.hedges <= lb.hedge_budget.ratio
                * lb.hedge_budget.calls + 1)
    return out


def _fingerprint(dri, counts, latencies):
    lbs = tuple(
        (r.name, r.lb.routed, r.lb.failovers, r.lb.hedges,
         r.lb.hedge_wins, r.lb.attempt_timeouts,
         r.lb.ejector.ejections if r.lb.ejector is not None else 0)
        for r in dri.region_directory.regions())
    return (
        tuple(sorted(counts.items())),
        tuple(round(l, 9) for l in latencies),
        round(dri.clock.now(), 9),
        lbs,
        tuple(r.minted for r in dri.region_directory.regions()),
        (dri.geo_router.routed, dri.geo_router.reroutes,
         dri.geo_router.gray_detours, dri.geo_router.exhausted),
    )


def tail_surge(seed: int, arm: str):
    """One arm: the ABL10-shaped surge with a gray replica + gray region
    injected mid-run and one tail defence configuration active."""
    dri = build_isambard(seed=seed, regions=True, resilience=True,
                         tail=ARMS[arm])
    clock = dri.clock

    # --- warmup: the shared cohort, then feed the latency histograms
    # past MIN_SAMPLES so the quantile-derived bounds are armed before
    # the fault lands -----------------------------------------------------
    cohort = surge.onboard(dri, "tail-proj")
    _, _, app_tokens, clients = cohort
    victim = app_tokens[0][1]
    for round_ in range(6):          # 24 successful samples per region LB
        token = app_tokens[round_ % surge.N_APP_TOKENS][0]
        for client in clients:
            surge.introspect(dri, token, client)
    clock.advance(0.5)

    # --- fault schedule: gray replica + gray region mid-surge ------------
    t0 = clock.now()
    fault_op, restore_op = surge.N_OPS // 4, (3 * surge.N_OPS) // 4
    active_faults = []
    revoked_at = None

    counts = {"offered": 0, "ok": 0, "denied": 0, "refused": 0, "fail": 0}
    latencies = []

    for i in range(surge.N_OPS):
        surge.await_arrival(clock, t0, i)

        if i == fault_op:
            # one eu replica turns gray; the whole us region browns out.
            # Nothing hard-fails: breakers, health checks and the lag
            # watchdog all stay green
            active_faults.append(
                dri.faults.slow_replica("broker-eu-r1", SLOW_EXTRA))
            active_faults.extend(
                dri.faults.gray_region("us", GRAY_EXTRA))
            # ABL10 regression oracle: revoke mid-fault, the staleness
            # bound must hold with every tail defence active
            dri.broker.tokens.revoke_jti(victim.jti)
            revoked_at = clock.now()
        elif i == restore_op:
            for fault in active_faults:
                fault.clear()

        counts["offered"] += 1
        op_start = clock.now()
        outcome = surge.op(dri, i, *cohort)
        counts[outcome] += 1
        if outcome in ("ok", "denied"):
            latencies.append(clock.now() - op_start)

    dri.ship_logs()

    return {
        "dri": dri,
        "counts": counts,
        "stats": latency_stats(latencies),
        "lb": _lb_totals(dri),
        "gray_detours": dri.geo_router.gray_detours,
        "reroutes": dri.geo_router.reroutes,
        "lag_breaches": dri.region_directory.lag_breaches,
        "revoked_at": revoked_at,
        "stale_serves": surge.stale_serves(dri, victim.jti, revoked_at),
        "mint_jtis": surge.journaled_mint_jtis(dri),
        "fingerprint": _fingerprint(dri, counts, latencies),
    }


def retry_storm(seed: int, guarded: bool):
    """One storm arm: a *naive* probe client — retries but no circuit
    breaker, the canonical retry-storm source — hammers the browned-out
    broker, with the retry budget off vs. on.  (A breaker would
    short-circuit the storm at the client; the budget is the defence
    for the clients that don't have one.)"""
    cfg = (TailConfig(adaptive_deadlines=False, hedging=False,
                      ejection=False) if guarded else False)
    dri = build_isambard(seed=seed, regions=True, resilience=True,
                         tail=cfg)
    probe = Service("probe")
    dri.network.attach(probe, OperatingDomain.FDS, Zone.ACCESS)
    probe.resilience = Resilience(
        "probe", dri.clock, random.Random(seed + 7),
        policy=RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0))
    # share the deployment's tail controller so budget refusals are
    # audited into the SIEM pipeline (None when the tail layer is off)
    probe.resilience.tail = dri.resilience.tail_controller
    dri.faults.brownout("broker", 0.85)
    outcomes = {"served": 0, "refused": 0}
    for _ in range(N_STORM):
        try:
            probe.call("broker", HttpRequest(
                "POST", "/introspect", body={"token": "junk"}))
        except (ServiceUnavailable, RateLimited):
            outcomes["refused"] += 1
        else:
            outcomes["served"] += 1
    m = probe.resilience.metrics
    dri.ship_logs()
    return {
        "outcomes": outcomes,
        "calls": m.calls,
        "attempts": m.attempts,
        "amplification": m.attempts / m.calls,
        "budget_refusals": m.budget_exhausted,
        "alerts": {a.rule for a in dri.soc.alerts},
    }


def test_ablation_tail(report):
    baseline = tail_surge(1100, "baseline")
    deadlines = tail_surge(1101, "deadlines")
    hedge = tail_surge(1102, "hedge")
    eject = tail_surge(1103, "eject")
    allon = tail_surge(1104, "all")
    storm_off = retry_storm(1105, guarded=False)
    storm_on = retry_storm(1105, guarded=True)

    # --- sanity: every arm keeps serving through the gray window --------
    for run_ in (baseline, deadlines, hedge, eject, allon):
        c = run_["counts"]
        assert c["fail"] == 0
        assert c["ok"] + c["denied"] > 0.9 * c["offered"]

    # (a) the headline: with every defence on, the gray replica and the
    #     gray region are cut out of the login path — the p99 collapses
    #     versus the undefended baseline riding the +500 ms replica
    assert baseline["stats"]["p99"] >= SLOW_EXTRA  # the gray tail is real
    assert allon["stats"]["p99"] < baseline["stats"]["p99"]
    assert allon["stats"]["p99"] < 0.5 * baseline["stats"]["p99"]

    # (b) each ablated defence leaves its signature
    assert deadlines["lb"]["attempt_timeouts"] > 0
    assert hedge["lb"]["hedges"] > 0
    assert hedge["lb"]["hedge_wins"] > 0
    assert eject["lb"]["ejections"] > 0
    assert allon["lb"]["hedges"] > 0
    assert allon["lb"]["ejections"] > 0
    assert baseline["lb"]["hedges"] == 0
    assert baseline["lb"]["ejections"] == 0
    # hedges never exceed the configured budget fraction (+1 grace)
    assert hedge["lb"]["budget_ok"] and allon["lb"]["budget_ok"]

    # (c) the gray REGION is detoured by latency scoring, not by the lag
    #     watchdog — a browning-out region replicates on time, so the
    #     watchdog is structurally blind to it and must never fire
    for run_ in (eject, allon):
        assert run_["gray_detours"] > 0
        assert run_["reroutes"] > 0
    for run_ in (baseline, deadlines, hedge, eject, allon):
        assert run_["lag_breaches"] == 0

    # (d) correctness under speculation: hedged introspections never
    #     double-apply — zero duplicate jtis in the region mint journals
    #     — and the ABL10 revocation staleness bound holds with every
    #     defence active
    for run_ in (baseline, deadlines, hedge, eject, allon):
        assert len(run_["mint_jtis"]) == len(set(run_["mint_jtis"]))
        if run_["stale_serves"]:
            assert max(run_["stale_serves"]) <= \
                run_["revoked_at"] + surge.BOUND

    # (e) retry storm: the budget caps amplification (attempts per call)
    #     and the audited refusals drive the SOC detection
    assert storm_off["amplification"] > 2.0      # unguarded retries amplify
    assert storm_on["amplification"] < 1.5       # the budget caps the storm
    assert storm_on["amplification"] < 0.6 * storm_off["amplification"]
    assert storm_on["budget_refusals"] > 0
    assert "retry-storm" in storm_on["alerts"]
    assert "retry-storm" not in storm_off["alerts"]

    # (f) bit-for-bit reproducible from the seed
    assert tail_surge(1104, "all")["fingerprint"] == allon["fingerprint"]

    def row(label, run_):
        c, s, lb = run_["counts"], run_["stats"], run_["lb"]
        return [
            label, c["offered"], c["ok"], c["refused"] + c["fail"],
            f"{s['p50'] * 1000:.1f}" if s["n"] else "-",
            f"{s['p99'] * 1000:.1f}" if s["n"] else "-",
            lb["hedges"], lb["hedge_wins"], lb["attempt_timeouts"],
            lb["ejections"], run_["gray_detours"], run_["lag_breaches"],
            len(run_["mint_jtis"]),
            len(run_["mint_jtis"]) - len(set(run_["mint_jtis"])),
        ]

    storm_rows = [
        ["storm unguarded", storm_off["calls"], storm_off["attempts"],
         f"{storm_off['amplification']:.2f}",
         storm_off["budget_refusals"],
         "yes" if "retry-storm" in storm_off["alerts"] else "no"],
        ["storm + budget", storm_on["calls"], storm_on["attempts"],
         f"{storm_on['amplification']:.2f}",
         storm_on["budget_refusals"],
         "yes" if "retry-storm" in storm_on["alerts"] else "no"],
    ]

    report("ablation_tail", format_table(
        ["arm", "offered", "served", "lost", "p50 (sim ms)", "p99 (sim ms)",
         "hedges", "hedge wins", "attempt timeouts", "ejections",
         "gray detours", "lag breaches", "mints journaled",
         "double-issued"],
        [
            row("baseline", baseline),
            row("+adaptive deadlines", deadlines),
            row("+hedging", hedge),
            row("+ejection", eject),
            row("all on", allon),
        ],
        title=(f"ABL11: {surge.N_OPS}-op surge ({surge.ARRIVAL_RATE:.0f}/s) "
               f"with a +{SLOW_EXTRA * 1000:.0f}ms gray replica and a "
               f"+{GRAY_EXTRA * 1000:.0f}ms gray region mid-run"),
    ) + "\n" + format_table(
        ["arm", "calls", "attempts", "amplification", "budget refusals",
         "SOC retry-storm alert"],
        storm_rows,
        title=(f"ABL11 storm: {N_STORM} probe calls against a browned-out "
               f"broker (p=0.85)"),
    ))
