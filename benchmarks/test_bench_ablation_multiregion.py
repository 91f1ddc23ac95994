"""ABL10 — multi-region active-active under region loss and partition.

The multi-region tier (PR 6) weakens exactly one guarantee of the
single-region deployment and the bench measures the weakened contract's
edges during a 2000-operation introspection+mint surge through the
geo-router:

(a) **region loss mid-surge**: the geo-router re-routes the lost
    region's callers to the survivor with a bounded p99 — the detour
    costs ``INTER_REGION_LATENCY``, not availability;

(b) **bounded revocation staleness under partition**: a region deaf to
    the bus may serve a revoked token from cache, but never past the
    advertised ``staleness_bound`` (the region cache TTL is clamped to
    it).  Oracles: the ``region.introspect`` audit timeline (last
    cached ALLOW of the revoked jti vs the revocation instant), the
    SOC's ``CacheStalenessRule`` (tolerates in-window serves, stays
    silent) and ``RegionLagRule`` (pages when the partition outlives
    the bound);

(c) **no split-brain issuance after heal**: a region bounced during the
    partition comes back under a fresh journal epoch; the deposed
    generation's appends raise EpochFenced and the union of every
    region journal's committed mints contains zero duplicate jtis.

The surge itself (cohort, op mix, oracles) is ``region_surge.py``,
shared with ABL11; ``BENCH_QUICK=1`` shrinks it for CI smoke runs.
"""

import region_surge as surge
from repro.core import build_isambard
from repro.core.metrics import format_table, latency_stats
from repro.errors import EpochFenced
from repro.region import ACTIVE
from repro.region.directory import LAG_CHECK_INTERVAL
from repro.region.router import INTER_REGION_LATENCY
from repro.siem import CacheStalenessRule, RegionLagRule


def _fingerprint(dri, counts, latencies):
    rbus = dri.region_bus
    return (
        tuple(sorted(counts.items())),
        tuple(round(l, 9) for l in latencies),
        round(dri.clock.now(), 9),
        (rbus.replicated, rbus.parked, rbus.flushed, rbus.fenced),
        tuple(r.minted for r in dri.region_directory.regions()),
        (dri.geo_router.routed, dri.geo_router.reroutes,
         dri.geo_router.exhausted),
    )


def multiregion_surge(seed: int, fault: str = "none"):
    """One arm: a mixed introspection (90%) + mint (10%) surge with the
    callers split across both regions, and ``fault`` injected mid-run."""
    dri = build_isambard(seed=seed, regions=True)
    clock = dri.clock

    cohort = surge.onboard(dri, "geo-proj")
    _, _, app_tokens, clients = cohort
    # warm the remote region's cache with the token the partition arm
    # will revoke — the stale serve needs a pre-revocation entry to serve
    victim_token, victim = app_tokens[0]
    for client in clients:
        surge.introspect(dri, victim_token, client)
    clock.advance(0.5)

    # --- fault schedule -------------------------------------------------
    surge_span = surge.N_OPS / surge.ARRIVAL_RATE
    t0 = clock.now()
    fault_at = t0 + 0.25 * surge_span
    restore_at = t0 + 0.75 * surge_span
    fault_fired = False
    revoked_at = None
    zombie_epoch = None
    zombie_fenced = False

    counts = {"offered": 0, "ok": 0, "denied": 0, "refused": 0, "fail": 0}
    latencies = []

    for i in range(surge.N_OPS):
        arrival = surge.await_arrival(clock, t0, i)

        if not fault_fired and clock.now() >= fault_at:
            fault_fired = True
            if fault == "region_loss":
                dri.faults.region_down(
                    "us", restore_after=restore_at - clock.now())
            elif fault in ("partition", "bounce"):
                dri.faults.region_partition("eu", "us")
                # the home region revokes while the peer is deaf
                dri.broker.tokens.revoke_jti(victim.jti)
                revoked_at = clock.now()
                if fault == "bounce":
                    # a region bounce mid-partition deposes the serving
                    # generation; its epoch must never issue again
                    us = dri.region_directory.region("us")
                    zombie_epoch = us.epoch
                    dri.region_directory.region_down("us")
                    dri.region_directory.region_up("us")

        counts["offered"] += 1
        outcome = surge.op(dri, i, *cohort)
        counts[outcome] += 1
        if outcome == "ok":
            latencies.append(clock.now() - arrival)

    # --- post-surge: let the partition outlive the bound, then heal ----
    if fault in ("partition", "bounce"):
        clock.advance(max(0.0, (fault_at + surge.BOUND + 2.0) - clock.now()))
        if zombie_epoch is not None:
            us = dri.region_directory.region("us")
            try:
                us.journal.append("region.mint.intent",
                                  {"region": "us"}, epoch=zombie_epoch)
            except EpochFenced:
                zombie_fenced = True
        dri.region_directory.heal("eu", "us")
        clock.advance(3.0 * LAG_CHECK_INTERVAL)  # watchdog recovery
    dri.ship_logs()

    return {
        "dri": dri,
        "counts": counts,
        "stats": latency_stats(latencies),
        "reroutes": dri.geo_router.reroutes,
        "revoked_at": revoked_at,
        "stale_serves": surge.stale_serves(dri, victim.jti, revoked_at),
        "mint_jtis": surge.journaled_mint_jtis(dri),
        "zombie_fenced": zombie_fenced,
        "victim_jti": victim.jti,
        "lag_breaches": dri.region_directory.lag_breaches,
        "fingerprint": _fingerprint(dri, counts, latencies),
    }


def test_ablation_multiregion(report):
    baseline = multiregion_surge(1000)
    loss = multiregion_surge(1001, "region_loss")
    part = multiregion_surge(1002, "partition")
    bounce = multiregion_surge(1003, "bounce")

    # --- sanity: the healthy arm serves everything locally -------------
    assert baseline["counts"]["refused"] == 0
    assert baseline["counts"]["fail"] == 0
    assert baseline["reroutes"] == 0

    # (a) region loss mid-surge: callers re-route to the survivor with a
    #     bounded p99 — availability holds, latency pays one detour
    assert loss["reroutes"] > 0
    assert loss["counts"]["fail"] == 0
    assert loss["counts"]["ok"] > 0.95 * loss["counts"]["offered"]
    # p99 is bounded by the analytic worst case: the queue a detour
    # storm builds can never exceed the summed detour cost, so latency
    # degrades proportionally to the fault, it does not run away
    assert loss["stats"]["p99"] <= (
        baseline["stats"]["p99"]
        + loss["reroutes"] * INTER_REGION_LATENCY + 0.05)
    # the lost region recovered and serves again after restore
    assert loss["dri"].region_directory.region("us").state == ACTIVE

    # (b) bounded staleness under partition: the deaf region served the
    #     revoked token from cache — but never past the advertised bound
    assert part["revoked_at"] is not None
    assert part["stale_serves"], "the partition arm must exercise a stale serve"
    last_stale = max(part["stale_serves"])
    assert last_stale <= part["revoked_at"] + surge.BOUND
    # SOC oracles: the in-window serves are tolerated (no critical
    # staleness alert), and the lag breach paged
    alerts = {a.rule for a in part["dri"].soc.alerts}
    assert "region-lag" in alerts
    assert "cache-staleness" not in alerts
    staleness_rules = [r for r in part["dri"].soc.rules
                       if isinstance(r, CacheStalenessRule)]
    assert sum(r.tolerated for r in staleness_rules) >= 1
    assert any(isinstance(r, RegionLagRule) for r in part["dri"].soc.rules)
    assert part["lag_breaches"] > 0
    # after heal + watchdog recovery, both regions serve again and the
    # deaf region finally heard the revocation
    directory = part["dri"].region_directory
    assert all(r.state == ACTIVE for r in directory.regions())
    assert directory.region("us").revocations.is_revoked(part["victim_jti"])

    # (c) split-brain: the bounced region's deposed epoch is fenced and
    #     no jti was ever committed by two region generations
    assert bounce["zombie_fenced"]
    assert len(bounce["mint_jtis"]) == len(set(bounce["mint_jtis"]))
    assert len(baseline["mint_jtis"]) == len(set(baseline["mint_jtis"]))

    # (d) bit-for-bit reproducible from the seed
    assert multiregion_surge(1001, "region_loss")["fingerprint"] == \
        loss["fingerprint"]

    def row(label, run_):
        c = run_["counts"]
        s = run_["stats"]
        return [
            label, c["offered"], c["ok"], c["refused"] + c["fail"],
            f"{s['p50'] * 1000:.1f}" if s["n"] else "-",
            f"{s['p99'] * 1000:.1f}" if s["n"] else "-",
            run_["reroutes"],
            len(run_["stale_serves"]),
            (f"{max(run_['stale_serves']) - run_['revoked_at']:.2f}"
             if run_["stale_serves"] else "-"),
            run_["lag_breaches"],
            len(run_["mint_jtis"]),
            len(run_["mint_jtis"]) - len(set(run_["mint_jtis"])),
        ]

    report("ablation_multiregion", format_table(
        ["arm", "offered", "served", "lost", "p50 (sim ms)", "p99 (sim ms)",
         "reroutes", "stale serves", "worst staleness (s)", "lag breaches",
         "mints journaled", "double-issued"],
        [
            row("baseline", baseline),
            row("region loss", loss),
            row("partition + revoke", part),
            row("partition + bounce", bounce),
        ],
        title=(f"ABL10: {surge.N_OPS}-op surge ({surge.ARRIVAL_RATE:.0f}/s; "
               f"90% introspections / 10% mints) across 2 regions; advertised "
               f"staleness bound {surge.BOUND:.0f}s"),
    ))

