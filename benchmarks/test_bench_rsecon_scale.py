"""SCALE — §IV.B: the RSECon24 workshop, 45 simultaneous Jupyter users.

The paper's single quantitative datapoint: "45 trainees logging in and
running notebooks simultaneously".  By default this now runs as a
*smoke test* — just the paper's N=45 cohort — because the scale
headline moved to ABL14 (``test_bench_ablation_federation.py``: 1M+
users, 10k IdPs on the sharded federation directory).  Set
``RSECON_FULL=1`` to sweep the historical cohort sizes (1, 15, 45, 90)
with the full success-rate/latency table.

ABL9 (second bench in this file) takes the same control plane past the
workshop scale: a 2000-user login+app surge at ~10× one broker's
admitted capacity, swept over replica count (1/2/4/8 workers behind the
deterministic load balancer) × distributed caching on/off.  It measures
what the scale-out subsystem buys (monotonically falling loss and p99
as replicas grow; a ≥10× cut in upstream introspection round-trips from
caching + single-flight coalescing) and demos the metric-driven
autoscaler growing the pool mid-surge.  ``BENCH_QUICK=1`` shrinks the
sweep for CI smoke runs.
"""

import dataclasses
import os

import pytest

from repro.broker.rbac import Role
from repro.core import build_isambard
from repro.core.metrics import format_table, latency_stats
from repro.errors import DeadlineExceeded, NetworkError, RateLimited
from repro.net.http import HttpRequest
from repro.resilience import OverloadConfig
from repro.scale import ScaleConfig
from repro.telemetry import critical_path_breakdown
from repro.tunnels.zenith import TOKEN_HEADER

# demoted to a smoke test: only the paper's 45-user cohort by default
# (ABL14's national-federation bench is the scale headline now);
# RSECON_FULL=1 restores the historical sweep
RSECON_FULL = os.environ.get("RSECON_FULL") == "1"
COHORTS = (1, 15, 45, 90) if RSECON_FULL else (45,)


def slowest_login_breakdown(dri, result) -> str:
    """Critical-path table for the slowest login of the cohort.

    The p99 cell in the scale table says *how slow*; this says *where
    the time went* — per-hop self time down the longest span chain of
    the worst trace, straight from the telemetry store.
    """
    latencies = result.data["latencies"]
    trace_ids = result.data.get("trace_ids") or []
    if not latencies or dri.telemetry is None:
        return ""
    slowest = max(range(len(latencies)), key=lambda i: latencies[i])
    trace_id = trace_ids[slowest] if slowest < len(trace_ids) else None
    if not trace_id:
        return ""
    steps = critical_path_breakdown(dri.telemetry.store, trace_id)
    rows = [
        [s.name, s.service, s.kind, s.status,
         f"{s.duration * 1000:.1f}", f"{s.self_time * 1000:.1f}",
         f"{s.share:.1%}"]
        for s in steps
    ]
    return format_table(
        ["span", "service", "kind", "status",
         "total (sim ms)", "self (sim ms)", "share"],
        rows,
        title=(f"CRITICAL PATH: slowest login "
               f"({latencies[slowest] * 1000:.1f} sim ms, "
               f"trace {trace_id})"),
    )


def run_workshop(n: int, seed: int):
    dri = build_isambard(seed=seed)
    return dri, dri.workflows.rsecon_workshop(n)


def test_rsecon_scale(report):
    rows = []
    paper_row = None
    breakdown = ""
    for n in COHORTS:
        if n == 45:
            dri, result = run_workshop(45, 45)
            paper_row = result
            breakdown = slowest_login_breakdown(dri, result)
        else:
            dri, result = run_workshop(n, seed=100 + n)
        stats = latency_stats(result.data["latencies"],
                              result.data.get("trace_ids"))
        rows.append([
            n,
            f"{n - result.data['failures']}/{n}",
            result.data["live_sessions"],
            f"{stats['p50'] * 1000:.1f}",
            f"{stats['p95'] * 1000:.1f}",
            f"{stats['p99'] * 1000:.1f}",
            f"{dri.pool.utilisation():.1%}",
        ])
        if n <= 45:
            assert result.ok, result.steps

    assert paper_row is not None and paper_row.ok
    assert paper_row.data["live_sessions"] >= 45
    assert breakdown, "45-login cohort should yield a traced critical path"

    table = format_table(
        ["trainees", "logins ok", "live notebooks",
         "login+spawn p50 (sim ms)", "p95 (sim ms)", "p99 (sim ms)",
         "cluster util"],
        rows,
        title="SCALE: RSECon24 workshop reproduction (§IV.B; paper ran N=45)",
    )
    report("rsecon_scale", table + "\n\n" + breakdown)


# ======================================================================
# ABL9 — replica-count × cache on/off at a 2000-user surge
# ======================================================================
QUICK = os.environ.get("BENCH_QUICK") == "1"
REPLICAS = (1, 4) if QUICK else (1, 2, 4, 8)
N_SURGE = 240 if QUICK else 2000
ARRIVAL_RATE = 1200.0           # offered operations per sim second
LOGIN_BUDGET = 5.0              # interactive patience (sim s)
N_PERSONAS = 12 if QUICK else 24
N_APP_TOKENS = 4 if QUICK else 8  # long-lived tokens driving app traffic

# Each replica carries its own 50 req/s admission bucket, so pool
# capacity is replicas × 50/s against an effective broker demand of
# ~250/s — the sweep crosses from 5× overloaded (1 replica) through
# the break-even point to fully provisioned (8 replicas, 400/s).
BROKER_CONFIG = dataclasses.replace(
    OverloadConfig(),
    broker=dataclasses.replace(OverloadConfig().broker,
                               rate=50.0, burst=10.0),
    aimd_initial_rate=400.0,
    aimd_min_rate=50.0,
)


def scale_surge(replicas: int, caching: bool, seed: int,
                *, autoscale: bool = False):
    """One arm: a mixed login (80%) + authenticated-app (20%) surge.

    App operations present a reused RBAC token at the Jupyter
    authenticator, whose introspection round-trip rides the broker pool
    — the traffic the distributed cache amortises.
    """
    cfg = ScaleConfig(broker_replicas=replicas, caching=caching,
                      autoscale=autoscale,
                      autoscale_interval=N_SURGE / ARRIVAL_RATE / 12.0)
    dri = build_isambard(seed=seed, overload=BROKER_CONFIG, scale=cfg)
    if autoscale:
        dri.autoscaler.loss_up = 0.02
    wf, clock = dri.workflows, dri.clock

    # --- warmup (uncontended): onboard the cohort ----------------------
    s1 = wf.story1_pi_onboarding("trainer", project_name="scale-proj",
                                 gpu_hours=1e6)
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    personas = []
    for i in range(N_PERSONAS):
        name = f"user{i:02d}"
        clock.advance(1.0)  # pace onboarding under the tight buckets
        assert wf.story3_researcher_setup(project_id, "trainer", name).ok
        personas.append(wf.personas[name])
    app_tokens = [
        dri.broker.tokens.mint(f"app{i:02d}", "jupyter", Role.RESEARCHER)[0]
        for i in range(N_APP_TOKENS)
    ]
    clock.advance(1.0)
    introspections0 = dri.broker.introspections
    jwks_serves0 = dri.myaccessid.jwks_serves

    # --- the surge -----------------------------------------------------
    t0 = clock.now()
    counts = {"offered": 0, "ok": 0, "shed": 0, "expired": 0, "fail": 0}
    latencies = []
    for i in range(N_SURGE):
        arrival = t0 + i / ARRIVAL_RATE
        if clock.now() < arrival:
            clock.advance(arrival - clock.now())
        counts["offered"] += 1

        if i % 5 == 4:  # 20%: authenticated app access (introspection path)
            token = app_tokens[(i // 5) % len(app_tokens)]
            try:
                resp = dri.jupyter.handle(
                    HttpRequest("GET", "/", headers={TOKEN_HEADER: token}))
            except RateLimited:
                counts["shed"] += 1
            except DeadlineExceeded:
                counts["expired"] += 1
            except NetworkError:
                counts["fail"] += 1
            else:
                if resp.ok:
                    counts["ok"] += 1
                    latencies.append(clock.now() - arrival)
                elif resp.body.get("error_type") == "RateLimited":
                    counts["shed"] += 1
                elif resp.body.get("error_type") == "DeadlineExceeded":
                    counts["expired"] += 1
                else:
                    counts["fail"] += 1
            continue

        p = personas[i % len(personas)]  # 80%: interactive relogin
        p.agent.deadline = arrival + LOGIN_BUDGET
        try:
            if wf.relogin(p).ok:
                counts["ok"] += 1
                latencies.append(clock.now() - arrival)
            else:
                counts["fail"] += 1
        except DeadlineExceeded:
            counts["expired"] += 1
        except RateLimited:
            counts["shed"] += 1
        except NetworkError:
            counts["fail"] += 1
        finally:
            p.agent.deadline = None

    tc = dri.caches.get("token-decisions")
    fingerprint = (tuple(sorted(counts.items())),
                   tuple(round(l, 9) for l in latencies),
                   round(clock.now(), 9))
    return {
        "dri": dri,
        "counts": counts,
        "stats": latency_stats(latencies),
        "lost": counts["shed"] + counts["expired"] + counts["fail"],
        "introspections": dri.broker.introspections - introspections0,
        "jwks_serves": dri.myaccessid.jwks_serves - jwks_serves0,
        "hit_ratio": tc.stats.hit_ratio() if tc is not None else 0.0,
        "fingerprint": fingerprint,
    }


def test_ablation_scale(report):
    arms = {}  # (replicas, caching) -> run
    for r in REPLICAS:
        for caching in (False, True):
            arms[(r, caching)] = scale_surge(r, caching, 900 + r)
    auto = scale_surge(1, True, 950, autoscale=True)

    # (a) capacity scales: loss falls monotonically with replica count,
    #     and so does the p99 of served operations (cached arms; p99 is
    #     pinned near the interactive deadline while overloaded, so the
    #     comparison tolerates the last-admitted-op quantisation)
    cached = [arms[(r, True)] for r in REPLICAS]
    for a, b in zip(cached, cached[1:]):
        assert b["lost"] <= a["lost"]
        if a["stats"]["n"] and b["stats"]["n"]:
            assert b["stats"]["p99"] <= a["stats"]["p99"] + 0.01
    assert cached[-1]["lost"] < cached[0]["lost"]

    # (b) caching + single-flight coalescing cut the upstream
    #     introspection round-trips ≥10× at every pool size
    for r in REPLICAS:
        off = arms[(r, False)]["introspections"]
        on = arms[(r, True)]["introspections"]
        assert off >= 10 * max(on, 1), (r, off, on)

    # (c) the cache pays for itself in latency at every pool size: the
    #     median served operation is faster with the verdict caches on
    for r in REPLICAS:
        assert (arms[(r, True)]["stats"]["p50"]
                <= arms[(r, False)]["stats"]["p50"]), r

    # (d) the autoscaler grows the pool mid-surge and beats the static
    #     single replica it started from
    assert auto["dri"].broker_pool.size() > 1
    assert any(d.direction == "grow"
               for d in auto["dri"].autoscaler.decisions)
    assert auto["lost"] <= arms[(1, True)]["lost"]

    # (e) bit-for-bit reproducible from the seed
    r0 = REPLICAS[0]
    assert scale_surge(r0, True, 900 + r0)["fingerprint"] == \
        arms[(r0, True)]["fingerprint"]

    def row(label, replicas, run_):
        c = run_["counts"]
        lb = run_["dri"].broker_lb
        return [
            label, replicas,
            c["offered"],
            f"{c['ok'] / max(c['offered'], 1):.0%}",
            run_["lost"],
            f"{run_['stats']['p50']:.2f}" if run_["stats"]["n"] else "-",
            f"{run_['stats']['p99']:.2f}" if run_["stats"]["n"] else "-",
            lb.routed, lb.failovers,
            run_["introspections"],
            f"{run_['hit_ratio']:.0%}",
        ]

    rows = []
    for r in REPLICAS:
        rows.append(row("cache off", r, arms[(r, False)]))
        rows.append(row("cache on", r, arms[(r, True)]))
    rows.append(row("autoscale 1->%d" % auto["dri"].broker_pool.size(),
                    auto["dri"].broker_pool.size(), auto))
    report("ablation_scale", format_table(
        ["arm", "replicas", "offered", "served", "lost",
         "p50 (s)", "p99 (s)", "lb routed", "failovers",
         "introspect calls", "token-cache hits"],
        rows,
        title=(f"ABL9: {N_SURGE}-op surge ({ARRIVAL_RATE:.0f}/s offered; "
               f"80% logins / 20% app accesses) × replica count × "
               f"distributed cache on/off"),
    ))
