"""ABL13 — decision provenance + bounded telemetry under surge.

The telemetry pipeline (PR 9) has two jobs that pull in opposite
directions: keep observability storage *bounded* while a surge is
flooding it, and *never* lose the signals a post-mortem needs — the
error/shed/expired traces, the trace behind a containment revocation,
and the provenance record explaining every live grant and every
refusal.  A 2000-operation traced surge (introspections + mints +
queue submissions) runs while a gray replica (+500 ms), a brownout
(p=0.08) and a shedding queue inject faults mid-window and a SOC
containment revokes a victim token, and two arms compare:

* **unbounded** — the PR-4 telemetry: every span retained forever,
  every label set its own metric series.  Nothing is lost, and nothing
  bounds the growth: span count and series count scale with offered
  load — the cardinality explosion the pipeline exists to prevent;
* **bounded** — tail-based retention: protected statuses (ERROR /
  SHED / EXPIRED) and pinned revocation traces are kept at 100%, the
  slowest-k per window and a 5% hash sample represent the healthy
  traffic, everything else folds into RED rollups; per-family
  cardinality budgets fold runaway label sets into ``__overflow__``.

Both arms carry the provenance ledger, so the bench's core oracle runs
on each: after the surge, ``explain()`` returns the matched rule (or
refusal grounds) and decision inputs for every live grant in the
session registry and for every denial taken.

Latency is not measured here — the arms are compared on *retention*:
what survived, what was dropped, and whether anything that matters was
lost.  ``BENCH_QUICK=1`` shrinks the surge for CI smoke runs.
"""

import os

from repro.core import build_isambard
from repro.core.metrics import format_table
from repro.errors import (
    AttemptTimeout,
    DeadlineExceeded,
    NetworkError,
    RateLimited,
    ReproError,
    ServiceUnavailable,
)
from repro.net import (
    HttpRequest,
    HttpResponse,
    OperatingDomain,
    Service,
    Zone,
    route,
)
from repro.telemetry import PipelineConfig

QUICK = os.environ.get("BENCH_QUICK") == "1"
N_OPS = 240 if QUICK else 2000
ARRIVAL_RATE = 250.0            # offered operations per sim second
MAX_SPANS = 480 if QUICK else 2400
MAX_DECISIONS = 128 if QUICK else 256
MINT_EVERY = 10                 # every Nth op exercises the tokens surface
DENY_EVERY = 50                 # every Nth op is a refused privilege grab
QUEUE_EVERY = 5                 # every Nth op goes to the shedding queue
ARM_EVERY = 7                   # fault-window ops with a per-attempt bound
SLOW_EXTRA = 0.5                # the gray replica's per-message penalty
BROWNOUT_P = 0.08               # per-message connect-failure probability
SERIES_BUDGET = 8               # cardinality budget on the bench family

BOUNDED = PipelineConfig(
    max_spans=MAX_SPANS, window=60.0, max_decisions=MAX_DECISIONS)


class FloodQueue(Service):
    """A work queue that sheds every third submission — the
    deterministic RateLimited source for the SHED retention class."""

    def __init__(self) -> None:
        super().__init__("floodqueue")
        self.submissions = 0

    @route("POST", "/enqueue")
    def enqueue(self, request: HttpRequest) -> HttpResponse:
        self.submissions += 1
        if self.submissions % 3 == 0:
            raise RateLimited("queue full", retry_after=0.5,
                              service="floodqueue", priority="batch")
        return HttpResponse.json({"queued": self.submissions})


def pipeline_surge(seed: int, bounded: bool):
    """One arm: the traced surge with faults and a mid-run containment
    revocation, against the bounded pipeline or the unbounded PR-4
    telemetry."""
    dri = build_isambard(seed=seed, authz=True,
                         pipeline=BOUNDED if bounded else False)
    wf, clock, tele = dri.workflows, dri.clock, dri.telemetry
    store = tele.store

    # --- warmup: grants on every surface, a victim token to contain ----
    s1 = wf.story1_pi_onboarding("trainer", project_name="pipe-proj")
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    personas = []
    for i in range(2 if QUICK else 4):
        name = f"user{i:02d}"
        clock.advance(0.5)
        assert wf.story3_researcher_setup(project_id, "trainer", name).ok
        personas.append(wf.personas[name])
    assert wf.story4_ssh_session(personas[0].name).ok
    app_tokens = []
    for i in range(4 if QUICK else 8):
        token, rec = dri.broker.tokens.mint(
            f"app{i:02d}", "jupyter", "researcher", ttl=3600.0)
        app_tokens.append((token, rec))
    victim_token, victim = app_tokens[0]

    probe = Service("probe")
    dri.network.attach(probe, OperatingDomain.FDS, Zone.ACCESS)
    queue = FloodQueue()
    dri.network.attach(queue, OperatingDomain.FDS, Zone.ACCESS)

    # the high-cardinality family the budget defends against: one label
    # set per operation (a request-id-shaped label, the classic mistake)
    ops_meter = tele.registry.counter(
        "repro_bench_op_total", "Per-operation label pressure",
        max_series=SERIES_BUDGET if bounded else None)

    # --- surge: traced ops with a mid-window fault + containment --------
    t0 = clock.now()
    fault_op, restore_op = N_OPS // 4, (3 * N_OPS) // 4
    active_faults = []
    containment_trace = ""
    counts = {"offered": 0, "ok": 0, "denied": 0, "shed": 0,
              "expired": 0, "fail": 0}
    must_keep = set()       # traces holding ERROR/SHED/EXPIRED spans

    for i in range(N_OPS):
        arrival = t0 + i / ARRIVAL_RATE
        if clock.now() < arrival:
            clock.advance(arrival - clock.now())

        if i == fault_op:
            active_faults.append(
                dri.faults.slow_replica("broker", SLOW_EXTRA))
            active_faults.append(
                dri.faults.brownout("broker", BROWNOUT_P))
            # SOC containment: the revocation is itself a traced action,
            # and its trace must survive retention for the post-mortem
            cont = tele.tracer.start_trace("soc.containment", service="soc")
            assert dri.broker.tokens.revoke_jti(
                victim.jti, trace_id=cont.trace_id)
            tele.tracer.end(cont)
            containment_trace = cont.trace_id
        elif i == restore_op:
            for fault in active_faults:
                fault.clear()

        counts["offered"] += 1
        ops_meter.inc(op=f"op-{i:04d}")

        if i % MINT_EVERY == MINT_EVERY - 1:
            persona = personas[(i // MINT_EVERY) % len(personas)]
            try:
                resp = wf.mint(persona, "jupyter", "researcher",
                               project=project_id)
            except (NetworkError, ReproError):
                counts["fail"] += 1
            else:
                counts["ok" if resp.ok else "denied"] += 1
            continue
        if i % DENY_EVERY == 17:
            persona = personas[i % len(personas)]
            try:
                resp = wf.mint(persona, "portal", "pi")
            except (NetworkError, ReproError):
                counts["fail"] += 1
            else:
                assert not resp.ok      # researchers never hold the PI role
                counts["denied"] += 1
            continue

        # a traced transport op: a root span, a client span per call,
        # a server span per hop
        root = tele.tracer.start_trace(f"op {i:04d}", service="probe")
        if i % QUEUE_EVERY == 3:
            req = HttpRequest("POST", "/enqueue", body={"job": i},
                              source="probe")
            dst = "floodqueue"
        else:
            token = app_tokens[i % len(app_tokens)][0]
            req = HttpRequest("POST", "/introspect", body={"token": token},
                              source="probe")
            dst = "broker"
        root.context().inject(req.headers)
        if fault_op <= i < restore_op and dst == "broker" \
                and i % ARM_EVERY == 0:
            # a per-attempt bound the gray replica cannot meet: the
            # attempt is abandoned pre-delivery (EXPIRED span)
            req.attempt_deadline = clock.now() + 0.05
        try:
            probe.call(dst, req)
        except RateLimited as exc:
            counts["shed"] += 1
            must_keep.add(root.trace_id)
            tele.tracer.end(root, error=exc)
        except (AttemptTimeout, DeadlineExceeded) as exc:
            counts["expired"] += 1
            must_keep.add(root.trace_id)
            tele.tracer.end(root, error=exc)
        except (NetworkError, ReproError) as exc:
            counts["fail"] += 1
            must_keep.add(root.trace_id)
            tele.tracer.end(root, error=exc)
        else:
            counts["ok"] += 1
            tele.tracer.end(root)

    dri.ship_logs()
    led = tele.provenance

    # --- the retention oracle: what survived the surge ------------------
    kept = sum(1 for tid in must_keep if store.trace(tid))
    series = len(ops_meter.series())
    spans_started = len(store)
    if bounded:
        spans_started += store.stats()["evicted_spans"]
    out = {
        "dri": dri,
        "counts": counts,
        "spans_started": spans_started,
        "spans_retained": len(store),
        "must_keep": len(must_keep),
        "must_keep_kept": kept,
        "containment_trace": containment_trace,
        "series": series,
        "dropped_labels": tele.registry.dropped_labels(),
        "ledger": led.stats(),
    }
    if bounded:
        out["store"] = store.stats()
    out["fingerprint"] = (
        tuple(sorted(counts.items())), round(clock.now(), 9),
        out["spans_retained"], tuple(sorted(must_keep)),
        series, out["dropped_labels"],
        out["ledger"]["recorded"], out["ledger"]["retained"],
        tuple(sorted((k, tuple(sorted(v.items())))
                     for k, v in out["ledger"]["decisions"].items())),
    )
    return out


def _assert_explained(dri) -> int:
    """The ledger answers for every live grant and every denial; returns
    the number of live grants it explained."""
    led, reg = dri.telemetry.provenance, dri.authz.registry
    explained = 0
    for grant in reg.live_grants():
        identity = reg.graph.uid_of(grant.spiffe_id) or grant.spiffe_id
        records = led.explain(identity) or led.explain(grant.spiffe_id)
        assert records, f"live grant for {identity} has no provenance"
        explained += 1
    for uid in (p.broker_sub for p in dri.workflows.personas.values()):
        rec = led.grant_record(uid, "tokens")
        if rec is None:
            continue
        # a grant's explanation names the matched rule and its inputs
        assert rec.rule.startswith("role:")
        assert rec.pack_version == dri.policy_engine.pack_version
        assert rec.attrs.get("role")
    for rec in led.denials():
        assert rec.rule or rec.reason, f"unexplained denial: {rec}"
    return explained


def test_ablation_telemetry_pipeline(report):
    unbounded = pipeline_surge(1300, bounded=False)
    bounded = pipeline_surge(1300, bounded=True)

    # --- sanity: the surge actually exercised every retention class ----
    for run_ in (unbounded, bounded):
        c = run_["counts"]
        assert c["shed"] > 0 and c["expired"] > 0 and c["fail"] > 0
        # a few privilege grabs are lost to the brownout, not refused
        assert c["denied"] >= (N_OPS // DENY_EVERY) * 3 // 4
        assert c["ok"] > 0.6 * c["offered"]

    # (a) the headline: bounded retention holds the span budget under a
    #     surge the unbounded store absorbs linearly.  Both arms saw the
    #     same traffic, so they created the same spans — telemetry
    #     observes, it never changes behaviour
    assert bounded["spans_started"] == unbounded["spans_started"]
    assert unbounded["spans_retained"] > 1.5 * MAX_SPANS
    assert bounded["spans_retained"] <= MAX_SPANS
    assert bounded["store"]["compactions"] > 0
    assert bounded["store"]["rolled_up"] == bounded["store"]["evicted_spans"]

    # (b) nothing that matters was lost: 100% of ERROR/SHED/EXPIRED
    #     traces and the containment revocation's trace survive
    assert bounded["must_keep"] > 0
    assert bounded["must_keep_kept"] == bounded["must_keep"]
    store = bounded["dri"].telemetry.store
    assert store.trace(bounded["containment_trace"])
    assert bounded["containment_trace"] in store.protected_ids()

    # (c) cardinality: the per-op label family explodes unbudgeted but
    #     folds into __overflow__ under the budget, and the fold is
    #     metered honestly
    assert unbounded["series"] == N_OPS                 # one per op
    assert bounded["series"] <= SERIES_BUDGET + 1       # +__overflow__
    assert bounded["dropped_labels"] == N_OPS - SERIES_BUDGET

    # (d) provenance: every live grant and every denial is explained —
    #     in BOTH arms (the ledger pins what retention must not lose),
    #     and the ledger held its own budget while doing so
    explained_unbounded = _assert_explained(unbounded["dri"])
    explained = _assert_explained(bounded["dri"])
    assert explained > 0 and explained_unbounded > 0
    led = bounded["ledger"]
    assert led["retained"] <= MAX_DECISIONS + led["over_budget"]
    assert led["decisions"]["tokens"]["deny"] >= \
        (N_OPS // DENY_EVERY) * 3 // 4
    assert led["decisions"]["admission"]["shed"] == \
        bounded["counts"]["shed"]

    # (e) bit-for-bit reproducible from the seed
    assert pipeline_surge(1300, bounded=True)["fingerprint"] == \
        bounded["fingerprint"]

    def row(label, run_):
        c, led_ = run_["counts"], run_["ledger"]
        return [
            label, c["offered"], c["ok"], c["denied"],
            c["shed"], c["expired"], c["fail"],
            run_["spans_started"], run_["spans_retained"],
            f"{run_['must_keep_kept']}/{run_['must_keep']}",
            run_["series"], int(run_["dropped_labels"]),
            led_["recorded"], led_["retained"],
        ]

    report("ablation_telemetry_pipeline", format_table(
        ["arm", "offered", "ok", "denied", "shed", "expired", "failed",
         "spans started", "spans retained", "protected kept",
         "bench series", "labels folded", "decisions", "ledger retained"],
        [
            row("unbounded (PR-4)", unbounded),
            row("bounded pipeline", bounded),
        ],
        title=(f"ABL13: {N_OPS}-op traced surge with gray replica, "
               f"brownout and shedding queue mid-window; span budget "
               f"{MAX_SPANS}, ledger budget {MAX_DECISIONS}, "
               f"series budget {SERIES_BUDGET}"),
    ))
