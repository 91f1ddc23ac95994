"""The two-region introspection+mint surge that ABL10 and ABL11 drive.

ABL10 (``test_bench_ablation_multiregion.py``) injects region loss and
partitions into it, ABL11 (``test_bench_ablation_tail.py``) gray
failures; the cohort, the operation mix, the arrival pacing and the two
audit/journal oracles are the same surge and live here once.
``BENCH_QUICK=1`` shrinks it for CI smoke runs.
"""

import os

from repro.errors import (
    NetworkError,
    RateLimited,
    ReproError,
    ServiceUnavailable,
)
from repro.net.http import HttpRequest
from repro.region import REGION_NAMES, STALENESS_BOUND

QUICK = os.environ.get("BENCH_QUICK") == "1"
N_OPS = 240 if QUICK else 2000
ARRIVAL_RATE = 250.0            # offered operations per sim second
N_PERSONAS = 2 if QUICK else 4  # onboarded users driving the mint slice
N_APP_TOKENS = 4 if QUICK else 8
MINT_EVERY = 10                 # every Nth op is a mint (fencing path)

BOUND = STALENESS_BOUND         # eu/us, 5 s staleness bound


def introspect(dri, token, client):
    """One introspection through the geo-router, as ``client``."""
    return dri.geo_router.handle(HttpRequest(
        "POST", "/introspect", body={"token": token}, source=client))


def onboard(dri, project_name):
    """Warmup: onboard the mint cohort, mint the app tokens and pin half
    the synthetic callers to each region.  Returns ``(project_id,
    personas, app_tokens, clients)`` — what :func:`op` takes."""
    wf, clock = dri.workflows, dri.clock
    s1 = wf.story1_pi_onboarding("trainer", project_name=project_name)
    assert s1.ok, s1.steps
    project_id = str(s1.data["project_id"])
    personas = []
    for i in range(N_PERSONAS):
        name = f"user{i:02d}"
        clock.advance(0.5)
        assert wf.story3_researcher_setup(project_id, "trainer", name).ok
        personas.append(wf.personas[name])
    app_tokens = []
    for i in range(N_APP_TOKENS):
        token, rec = dri.broker.tokens.mint(
            f"app{i:02d}", "jupyter", "researcher", ttl=3600.0)
        app_tokens.append((token, rec))
    clients = [f"client-{i:02d}" for i in range(8)]
    for i, client in enumerate(clients):
        dri.geo_router.pin(client, REGION_NAMES[i % len(REGION_NAMES)])
    return project_id, personas, app_tokens, clients


def await_arrival(clock, t0, i):
    """Idle until operation ``i`` is offered (``ARRIVAL_RATE`` per sim
    second from ``t0``); returns its arrival instant."""
    arrival = t0 + i / ARRIVAL_RATE
    if clock.now() < arrival:
        clock.advance(arrival - clock.now())
    return arrival


def op(dri, i, project_id, personas, app_tokens, clients):
    """Operation ``i`` of the surge — every ``MINT_EVERY``-th a persona
    mint, the rest app-token introspections — and its outcome:
    ``ok`` / ``denied`` / ``refused`` / ``fail``."""
    # decorrelated from the token cycle so every token is introspected
    # from both regions over the surge
    client = clients[(i + i // N_APP_TOKENS) % len(clients)]
    try:
        if i % MINT_EVERY == MINT_EVERY - 1:
            persona = personas[(i // MINT_EVERY) % len(personas)]
            resp = dri.workflows.mint(persona, "jupyter", "researcher",
                                      project=project_id)
        else:
            resp = introspect(dri, app_tokens[i % len(app_tokens)][0],
                              client)
    except (ServiceUnavailable, RateLimited):
        return "refused"
    except (NetworkError, ReproError):
        return "fail"
    return "ok" if resp.ok else "denied"


def journaled_mint_jtis(dri):
    """Every jti a region journal committed (the split-brain oracle:
    duplicates mean two generations issued the same token)."""
    jtis = []
    for name in REGION_NAMES:
        journal = dri.durability.stream(f"region-{name}")
        jtis += [str(e.data["jti"]) for e in journal.load()[1]
                 if e.kind == "region.mint"]
    return jtis


def stale_serves(dri, jti, revoked_at):
    """Instants at which a region served ``jti`` as active after its
    revocation (the staleness-bound oracle)."""
    return [
        e.time for e in dri.logs["fds"].query()
        if e.action == "region.introspect"
        and e.attrs.get("jti") == jti and e.attrs.get("active")
        and revoked_at is not None and e.time > revoked_at
    ]
