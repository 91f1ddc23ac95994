"""ABL7 — what overload protection buys under a login surge.

§IV.B's workshop put 45 trainees through the login path at once; the
ROADMAP's ambition is orders of magnitude more.  This ablation scales
the surge cohort 45 → 2000 users arriving at ~10× the control plane's
sustainable login rate, with the overload layer (admission control +
priority shedding + deadline propagation + AIMD pacing) on vs. off,
and measures:

* goodput and the p50/p99 latency of *successful* interactive logins —
  the protected arm's p99 stays bounded by the users' patience budget,
  the unprotected arm's tail grows without bound as the backlog piles up;
* shed rate by traffic class — batch is shed before interactive
  (two-level shedding), and **admin/security traffic is never shed**:
  revocations land during the surge, with bounded latency, in the
  protected arm, while the unprotected arm queues them behind the mob;
* the audit trail: every shed/expired request appears in the network
  log as SHED/EXPIRED — distinct from DENIED — so the SOC can tell a
  capacity incident from an access-control incident.

Surges are modelled on the shared simulated clock: arrivals get
timestamps up front at the offered rate; a login's latency is its
completion time minus its arrival, so queueing delay (the clock running
behind the arrival schedule) is part of the measurement.  Interactive
users abandon after ``LOGIN_BUDGET`` simulated seconds — carried as a
propagated deadline in the protected arm, which is what lets the system
shed doomed work before it burns capacity.

``BENCH_QUICK=1`` shrinks the sweep for CI smoke runs.
"""

import dataclasses
import os

from repro.core import build_isambard
from repro.core.metrics import format_table, latency_stats
from repro.errors import DeadlineExceeded, NetworkError, RateLimited
from repro.oidc import make_url
from repro.resilience import OverloadConfig, Priority

QUICK = os.environ.get("BENCH_QUICK") == "1"
SURGES = (45, 450) if QUICK else (45, 200, 600, 2000)
N_PERSONAS = 12 if QUICK else 40          # rotating login identities
N_BATCH = 4                               # stay-logged-in automation users
N_SACRIFICIAL = 4 if QUICK else 8         # members revoked mid-surge
ARRIVAL_RATE = 1200.0                     # offered logins per sim second
LOGIN_BUDGET = 2.0 if QUICK else 5.0      # interactive patience (sim s)
BATCH_BUDGET = 30.0                       # automation patience (sim s)

# The broker's declared capacity for this study.  A federated login is
# ~2.5 guarded broker round-trips at ~5 ms each, so the 250 req/s
# bucket ≈ 120 logins/s of admitted service — the 1200/s offered surge
# is ~10× that.  The AIMD floor is raised so client pacing cannot
# collapse below the bucket's own granularity: in a sequential
# simulation a 2 s paced wait (the stock 0.5/s floor) would serialise
# *behind* unrelated traffic and corrupt every later measurement.
CONFIG = dataclasses.replace(
    OverloadConfig(),
    broker=dataclasses.replace(OverloadConfig().broker, rate=250.0, burst=40.0),
    aimd_initial_rate=400.0,
    aimd_min_rate=50.0,
)


def classify(i: int) -> str:
    """Deterministic traffic mix: 5% admin, 15% batch, 80% interactive."""
    slot = i % 20
    if slot == 19:
        return Priority.ADMIN
    if slot >= 16:
        return Priority.BATCH
    return Priority.INTERACTIVE


def surge(protected: bool, seed: int, n_surge: int):
    dri = build_isambard(seed=seed, overload=CONFIG if protected else False,
                         resilience=True)
    wf = dri.workflows
    clock = dri.clock

    # --- warmup (uncontended): onboard the cohort --------------------------
    s1 = wf.story1_pi_onboarding("trainer", project_name="surge-proj",
                                 gpu_hours=1e6)
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    personas = []
    for i in range(N_PERSONAS):
        name = f"surfer{i:02d}"
        assert wf.story3_researcher_setup(project_id, "trainer", name).ok
        personas.append(wf.personas[name])
    batch_personas = []
    for i in range(N_BATCH):
        name = f"bot{i:02d}"
        assert wf.story3_researcher_setup(project_id, "trainer", name).ok
        batch_personas.append(wf.personas[name])
    sacrificial = []
    for i in range(N_SACRIFICIAL):
        name = f"leaver{i:02d}"
        assert wf.story3_researcher_setup(project_id, "trainer", name).ok
        sacrificial.append(wf.personas[name])
    trainer = wf.personas["trainer"]
    mint_body = {"audience": "portal", "role": "researcher"}
    probe, _ = batch_personas[0].agent.post(
        make_url("broker", "/tokens"), dict(mint_body))
    assert probe.ok, f"batch mint probe failed: {probe.body}"

    # --- the surge ---------------------------------------------------------
    t0 = clock.now()
    counts = {p: {"offered": 0, "ok": 0, "shed": 0, "expired": 0, "fail": 0}
              for p in Priority.ALL}
    login_latencies, admin_latencies = [], []
    revoked = []

    def run(kind, arrival, op):
        c = counts[kind]
        c["offered"] += 1
        try:
            ok = op()
        except DeadlineExceeded:
            c["expired"] += 1
            return
        except RateLimited:
            c["shed"] += 1
            return
        except NetworkError:
            c["fail"] += 1
            return
        if not ok:
            c["fail"] += 1
            return
        c["ok"] += 1
        latency = clock.now() - arrival
        if kind == Priority.INTERACTIVE:
            login_latencies.append(latency)
        elif kind == Priority.ADMIN:
            admin_latencies.append(latency)

    for i in range(n_surge):
        arrival = t0 + i / ARRIVAL_RATE
        if clock.now() < arrival:
            clock.advance(arrival - clock.now())
        kind = classify(i)

        if kind == Priority.INTERACTIVE:
            p = personas[i % len(personas)]
            if protected:
                p.agent.deadline = arrival + LOGIN_BUDGET
            try:
                run(kind, arrival, lambda: wf.relogin(p).ok)
            finally:
                p.agent.deadline = None

        elif kind == Priority.BATCH:
            p = batch_personas[i % len(batch_personas)]
            p.agent.priority = Priority.BATCH
            if protected:
                p.agent.deadline = arrival + BATCH_BUDGET
            try:
                run(kind, arrival, lambda: p.agent.post(
                    make_url("broker", "/tokens"), dict(mint_body))[0].ok)
            finally:
                p.agent.priority = Priority.INTERACTIVE
                p.agent.deadline = None

        else:  # ADMIN — a real security operation through the hot path
            trainer.agent.priority = Priority.ADMIN

            def admin_op():
                minted, _ = trainer.agent.post(
                    make_url("broker", "/tokens"),
                    {"audience": "portal", "role": "pi",
                     "project": project_id})
                if not minted.ok:
                    return False
                if len(revoked) < len(sacrificial):
                    target = sacrificial[len(revoked)]
                    resp, _ = trainer.agent.post(
                        make_url("portal", "/revoke_member"),
                        {"project_id": project_id,
                         "uid": target.broker_sub},
                        headers={"Authorization":
                                 f"Bearer {minted.body['token']}"})
                    if not resp.ok:
                        return False
                    revoked.append(target.name)
                return True

            try:
                run(kind, arrival, admin_op)
            finally:
                trainer.agent.priority = Priority.INTERACTIVE

    admission = (dri.broker.admission.snapshot() if protected
                 else {"admitted": {}, "shed": {}})
    fingerprint = (
        tuple(sorted((k, tuple(sorted(v.items()))) for k, v in counts.items())),
        tuple(round(l, 9) for l in login_latencies),
        round(clock.now(), 9),
    )
    inter = counts[Priority.INTERACTIVE]
    return {
        "dri": dri,
        "counts": counts,
        "stats": latency_stats(login_latencies),
        "admin_stats": latency_stats(admin_latencies),
        "within_budget": sum(1 for l in login_latencies if l <= LOGIN_BUDGET),
        "goodput": inter["ok"] / max(inter["offered"], 1),
        "admission": admission,
        "revocations": len(revoked),
        "fingerprint": fingerprint,
    }


def test_ablation_overload(report):
    n_max = SURGES[-1]
    on_runs = {}
    for n in SURGES:
        on_runs[n] = surge(True, 71, n)
    off = surge(False, 72, n_max)
    on = on_runs[n_max]

    for n, run_ in on_runs.items():
        # (a) the never-shed invariant: zero loss of security traffic at
        #     every surge size — revocations land during the stampede
        admin = run_["counts"][Priority.ADMIN]
        assert admin["shed"] == admin["expired"] == admin["fail"] == 0
        assert run_["admission"]["shed"].get(Priority.ADMIN, 0) == 0
        assert run_["revocations"] > 0
        # (b) bounded tail: successful logins always land within the
        #     patience budget (deadline propagation sheds the rest early)
        if run_["stats"]["n"]:
            assert run_["stats"]["p99"] <= LOGIN_BUDGET + 0.1

    # (c) 10× overload really bites, and the bucket sheds batch ahead of
    #     interactive (two-level shedding, measured where it happens)
    inter = on["counts"][Priority.INTERACTIVE]
    assert inter["shed"] + inter["expired"] > 0
    adm, shed = on["admission"]["admitted"], on["admission"]["shed"]

    def bucket_loss(prio):
        offered = adm.get(prio, 0) + shed.get(prio, 0)
        return shed.get(prio, 0) / max(offered, 1)

    assert bucket_loss(Priority.BATCH) >= bucket_loss(Priority.INTERACTIVE)
    assert shed.get(Priority.BATCH, 0) > 0

    # (d) the unprotected arm melts down instead: it serves "everyone"
    #     at a tail latency past any human's patience, and queues the
    #     revocation traffic behind the mob.  (The contrast needs the
    #     full-size surge; the quick sweep only smokes the mechanics.)
    if not QUICK:
        assert off["stats"]["p99"] > LOGIN_BUDGET
        assert off["stats"]["p99"] > on["stats"]["p99"]
        assert off["admin_stats"]["p99"] > on["admin_stats"]["p99"]

    # (e) every shed/expired request is in the network audit log with
    #     its outcome and priority — a capacity incident never
    #     masquerades as an access-control incident
    net = on["dri"].logs["network"]
    shed_events = net.query(action="admission.shed", outcome="shed")
    expired_events = net.query(action="deadline.expired", outcome="expired")
    assert len(shed_events) == on["dri"].network.messages_shed > 0
    assert len(expired_events) == on["dri"].network.messages_expired > 0
    assert all("priority" in e.attrs for e in shed_events + expired_events)
    assert not net.query(action="admission.shed", outcome="denied")

    # (f) bit-for-bit reproducible from its seed
    assert surge(True, 71, n_max)["fingerprint"] == on["fingerprint"]

    def row(label, r):
        c = r["counts"]
        i, a = c[Priority.INTERACTIVE], c[Priority.ADMIN]
        bucket = r["admission"]["shed"]
        return [
            label, i["offered"],
            f"{r['goodput']:.0%}",
            f"{r['within_budget'] / max(i['offered'], 1):.0%}",
            f"{i['shed'] + i['expired']}",
            f"{a['shed'] + a['expired'] + a['fail']}/{a['offered']}",
            (f"{bucket.get(Priority.BATCH, 0)}"
             f"/{bucket.get(Priority.INTERACTIVE, 0)}"
             f"/{bucket.get(Priority.ADMIN, 0)}"),
            f"{r['stats']['p50']:.2f}" if r["stats"]["n"] else "-",
            f"{r['stats']['p99']:.2f}" if r["stats"]["n"] else "-",
            f"{r['admin_stats']['p99']:.3f}",
            r["revocations"],
        ]

    rows = [row(f"protected, N={n}", on_runs[n]) for n in SURGES]
    rows.append(row(f"unprotected, N={n_max}", off))
    report("ablation_overload", format_table(
        ["arm", "logins offered", "served", "in patience",
         "interactive lost", "admin lost", "bucket sheds (b/i/a)",
         "login p50 (s)", "login p99 (s)", "revocation p99 (s)",
         "revocations landed"],
        rows,
        title=(f"ABL7: login surge at ~10× admitted capacity "
               f"({ARRIVAL_RATE:.0f}/s offered; interactive patience "
               f"{LOGIN_BUDGET:.0f}s; admin = revocation traffic; "
               f"'served' counts completed logins even when the user "
               f"would have walked away)"),
    ))
