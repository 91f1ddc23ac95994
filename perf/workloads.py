"""The five workloads, and the one-round runner a child process executes.

Every workload is a closed loop with one client in one process: the
simulator is single-threaded, in-process and CPU-bound, so there is no
queue to build and nothing to overlap.  A *round* builds a fresh
deployment, populates it, runs an untimed warm-up and then a fixed,
seeded list of ops, timing each public call with ``perf_counter`` and
checking its outcome against the one the op carries.  Op counts are
fixed (not time-boxed) so that two commits always do identical work;
``scale`` multiplies every count by one common factor.

The plan — which op, for whom, after what inter-arrival gap — is a pure
function of ``(workload, seed, scale)``; the program under test only
ever sees the generated inputs.

Run as ``python -m perf.workloads`` this module executes one round and
prints its raw result as one JSON line; ``perf/run.py`` starts one such
child per round so every round begins on a fresh heap.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import build_isambard
from repro.federation.assurance import LevelOfAssurance
from repro.federation.directory import DirectoryConfig, MetadataFeed
from repro.federation.myaccessid import LinkedIdentity
from repro.oidc import make_url
from repro.telemetry.pipeline import PipelineConfig

from perf import calibrate, trace

__all__ = ["WORKLOADS", "Workload", "run_round", "exact_mix"]

MEAN_GAP = 0.25   # simulated seconds between ops: a 4 ops/sim-s surge
WARMUP_OPS = 100  # untimed ops before the timed phase (part of setup_s)
WAVE = 400        # users per directory write wave / lookups per read block
BLOCK = 20        # ops per exactly-composed block of a mix (5 % granularity)

Op = Tuple  # (kind, *args) — plain data, hashable, printable


def exact_mix(rng: random.Random, n: int,
              shares: Sequence[Tuple[str, int]]) -> List[str]:
    """``n`` op kinds in exactly the given percentages, in seeded order.

    The mix is dealt in blocks of ``BLOCK`` ops, each holding the exact
    composition and shuffled on its own.  Drawing every kind
    independently would let the amount of work drift from seed to seed,
    and one shuffle over the whole run would let the first and the last
    decile (``late_early_ratio``) hold different mixes; this way the seed
    is in charge of the order only.
    """
    block = [kind for kind, pct in shares for _ in range(pct * BLOCK // 100)]
    if len(block) != BLOCK:
        raise ValueError(f"shares {shares} do not fill a block of {BLOCK}")
    kinds: List[str] = []
    while len(kinds) < n:
        rng.shuffle(block)
        kinds += block
    return kinds[:n]


class Workload:
    """One workload: deployment flags, population, op plan, checks."""

    name = ""
    timed_ops = 0                    # at scale 1
    flags: Dict[str, object] = {}    # build_isambard keyword arguments
    invariants_s = 0.0               # wall-clock of the post-run sweep

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(f"{self.name}:{seed}")
        self.dri = None
        # called after every step of set-up; run_round hooks its
        # calibration sampling in here
        self.mark: Callable[[], None] = lambda: None

    def n(self, count: int) -> int:
        """A count of the issue's full-size workload at this scale."""
        return max(1, round(count * self.scale))

    # -- the pure part -------------------------------------------------
    def plan(self) -> Tuple[List[Op], List[Op], List[float]]:
        """(warm-up ops, timed ops, inter-arrival gap before each op)."""
        warm, timed = self.n(WARMUP_OPS), self.n(self.timed_ops)
        ops = self.ops(warm, timed)
        gaps = [self.rng.expovariate(1.0 / MEAN_GAP) for _ in ops]
        return ops[:warm], ops[warm:], gaps

    def ops(self, warm: int, timed: int) -> List[Op]:
        raise NotImplementedError

    # -- the part that touches the deployment --------------------------
    def build(self):
        self.dri = build_isambard(self.seed, **self.flags)
        return self.dri

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, op: Op) -> Optional[str]:
        """Execute one op; None if its outcome is the expected one."""
        return getattr(self, "op_" + op[0])(*op[1:])

    def finish(self) -> List[str]:
        """Invariants that must hold after the timed phase."""
        bad = []
        for name, log in sorted(self.dri.logs.items()):
            intact, at = log.verify_chain()
            if not intact:
                bad.append(f"audit chain of {name} breaks at event {at}")
        return bad

    def counters(self) -> Dict[str, int]:
        """Counts the deployment itself keeps (read before and after the
        timed phase; the difference is reported beside the span counts)."""
        res = self.dri.resilience
        return {"resilience.retries":
                int(res.totals()["retries"]) if res is not None else 0}

    # -- shared population helpers -------------------------------------
    def onboard_pis(self, projects: int) -> List[Tuple[str, str]]:
        """One PI + project per story 1; returns (pi, project id) pairs."""
        pis = []
        for p in range(projects):
            res = self.dri.workflows.story1_pi_onboarding(
                f"pi{p:03d}", project_name=f"proj-{p:03d}")
            if not res.ok:
                raise RuntimeError(f"set-up: PI onboarding failed: {res.steps}")
            pis.append((f"pi{p:03d}", str(res.data["project_id"])))
            self.mark()
        return pis

    def onboard_users(self, users: int, projects: int) -> None:
        """``users`` researchers via story 3, round-robin over the PIs;
        ``self.project_of`` maps each to its project id."""
        pis = self.onboard_pis(projects)
        self.project_of: Dict[str, str] = {}
        for u in range(users):
            pi, project = pis[u % projects]
            res = self.dri.workflows.story3_researcher_setup(
                project, pi, f"user{u:05d}")
            if not res.ok:
                raise RuntimeError(f"set-up: onboarding failed: {res.steps}")
            self.project_of[f"user{u:05d}"] = project
            self.dri.clock.advance(MEAN_GAP)
            self.mark()

    # -- ops shared by the login/access workloads -----------------------
    def op_relogin(self, user: str) -> Optional[str]:
        wf = self.dri.workflows
        resp = wf.relogin(wf.personas[user])
        if resp.status != 200 or "sub" not in resp.body:
            return f"{resp.status} {resp.body}"
        return None

    def op_ssh(self, user: str) -> Optional[str]:
        res = self.dri.workflows.story4_ssh_session(user)
        return None if res.ok else str(res.steps[-1:])

    def op_notebook(self, user: str) -> Optional[str]:
        res = self.dri.workflows.story6_jupyter(user)
        if not res.ok:
            return str(res.steps[-1:])
        if not self.dri.jupyter.close_session(str(res.data["session_id"])):
            return "session was not live at close"
        return None

    def _mint_introspect(self, user: str, revoke: bool) -> Optional[str]:
        wf = self.dri.workflows
        persona = wf.personas[user]
        minted = wf.mint(persona, "jupyter", "researcher",
                         project=self.project_of[user])
        if not minted.ok:
            return f"mint: {minted.status} {minted.body}"
        if revoke and not self.dri.broker.tokens.revoke_jti(
                str(minted.body["jti"])):
            return "revoke: jti unknown to the token service"
        resp, _ = persona.agent.post(make_url("broker", "/introspect"),
                                     {"token": minted.body["token"]})
        if not resp.ok or resp.body.get("active") is not (not revoke):
            # a revoked token reported active is a cached ALLOW outliving
            # its revocation: a failure, never a speed-up
            return f"introspect: {resp.status} {resp.body}"
        return None

    def op_introspect(self, user: str) -> Optional[str]:
        return self._mint_introspect(user, revoke=False)

    def op_revoke(self, user: str) -> Optional[str]:
        return self._mint_introspect(user, revoke=True)

    def no_live_notebooks(self) -> List[str]:
        live = len(self.dri.jupyter.sessions())
        return [f"{live} Jupyter sessions leaked"] if live else []

    def user_ops(self, n: int, users: int,
                 shares: Sequence[Tuple[str, int]]) -> List[Op]:
        """An exact mix of per-user ops, each for a seeded choice of user."""
        return [(kind, f"user{self.rng.randrange(users):05d}")
                for kind in exact_mix(self.rng, n, shares)]


class SsoLogin(Workload):
    name = "sso_login"
    timed_ops = 4000

    def ops(self, warm: int, timed: int) -> List[Op]:
        users, strangers = self.n(300), self.n(200)
        return [("relogin", f"user{self.rng.randrange(users):05d}")
                if kind == "relogin" else
                ("stranger", f"stranger{self.rng.randrange(strangers):04d}")
                for kind in exact_mix(self.rng, warm + timed,
                                      [("relogin", 95), ("stranger", 5)])]

    def setup(self) -> None:
        self.build()
        self.onboard_users(self.n(300), self.n(8))
        for s in range(self.n(200)):
            self.dri.workflows.create_researcher(f"stranger{s:04d}")

    def op_stranger(self, name: str) -> Optional[str]:
        wf = self.dri.workflows
        resp = wf.login(wf.personas[name])
        if resp.status != 403:  # authorisation-led registration must refuse
            return f"role-less user admitted: {resp.status} {resp.body}"
        return None


class OnboardWave(Workload):
    name = "onboard_wave"
    timed_ops = 1000

    def ops(self, warm: int, timed: int) -> List[Op]:
        projects = self.n(25)
        return [("onboard", u % projects, f"user{u:05d}")
                for u in range(warm + timed)]

    def setup(self) -> None:
        self.build()
        self.pis = self.onboard_pis(self.n(25))

    def op_onboard(self, project: int, user: str) -> Optional[str]:
        pi, project_id = self.pis[project]
        res = self.dri.workflows.story3_researcher_setup(project_id, pi, user)
        return None if res.ok else str(res.steps[-1:])


class AccessMix(Workload):
    name = "access_mix"
    timed_ops = 4000
    users = 300
    shares = [("ssh", 30), ("notebook", 30), ("introspect", 30),
              ("revoke", 10)]

    def ops(self, warm: int, timed: int) -> List[Op]:
        return self.user_ops(warm + timed, self.n(self.users), self.shares)

    def setup(self) -> None:
        self.build()
        self.onboard_users(self.n(self.users), self.n(8))
        # every user starts the timed phase with a fresh broker session
        for user in self.project_of:
            bad = self.op_relogin(user)
            if bad:
                raise RuntimeError(f"set-up: login of {user} failed: {bad}")
            self.mark()

    def finish(self) -> List[str]:
        return super().finish() + self.no_live_notebooks()


class AllTiersMix(AccessMix):
    name = "all_tiers_mix"
    timed_ops = 1500
    users = 150
    shares = [("relogin", 25), ("ssh", 25), ("notebook", 25),
              ("introspect", 20), ("revoke", 5)]
    # The span budget is out of reach on purpose.  With the default one
    # (4 000) the bounded store evicts traces whose audit records the log
    # forwarders have not shipped yet; the SIEM's trace-unknown rule then
    # calls those records forged, the SOC escalates and the continuous
    # authorizer revokes a legitimate user (seed 12, scale 1: op 931 is
    # refused).  A benchmark op may not fail, so the store never compacts
    # here; the finding is in perf/README.md.
    flags = dict(resilience=True, overload=True, durability=True,
                 failover=True, scale=True, regions=True, tail=True,
                 authz=True, pipeline=PipelineConfig(max_spans=10 ** 9),
                 directory=True)


class DirectoryScale(Workload):
    name = "directory_scale"
    timed_ops = 1000
    idps = 3000
    feeds = 6
    shards = 8
    flags = dict(directory=DirectoryConfig(account_shards=shards,
                                           metadata_shards=4))

    def ops(self, warm: int, timed: int) -> List[Op]:
        ops: List[Op] = []
        registered = 0
        for i in range(warm + timed):
            if i % 4 != 3:
                kind = "grow" if i == warm + timed // 2 else "write"
                ops.append((kind, registered))
                registered += WAVE
            else:
                ops.append(("read", tuple(self.rng.randrange(registered)
                                          for _ in range(WAVE))))
        return ops

    def setup(self) -> None:
        dri = self.build()
        self.loa = int(LevelOfAssurance.CAPPUCCINO)
        self.n_idps = self.n(self.idps)
        self.uids: List[List[str]] = []
        feeds = [MetadataFeed(f"feed-{f:02d}", dri.clock)
                 for f in range(self.feeds)]
        for feed in feeds:
            dri.directory.ingestor.register_feed(feed)
        for i in range(self.n_idps):
            feeds[i % self.feeds].add(
                entity_id=self.entity(i), endpoint_name=f"idp-{i:05d}",
                display_name=f"IdP {i:05d}", loa=LevelOfAssurance.CAPPUCCINO,
                categories=(), verifier=f"vk-{i:05d}", version=1)
            if i % 100 == 99:
                self.mark()
        for feed in feeds:
            feed.flush()
            self.mark()
        dri.directory.ingestor.poll()

    def entity(self, i: int) -> str:
        return f"https://idp-{i % self.n_idps:05d}.example"

    def run(self, op: Op) -> Optional[str]:
        bad = super().run(op)
        migration = self.dri.directory.accounts.migration
        if op[0] != "grow" and migration is not None and not migration.done:
            migration.step()  # reads and writes land mid-migration
        return bad

    def op_write(self, first: int) -> Optional[str]:
        wave = [{"entity_id": self.entity(i), "sub": f"sub-{i:07d}",
                 "display_name": f"user-{i:07d}",
                 "email": f"u{i:07d}@x.example", "loa": self.loa}
                for i in range(first, first + WAVE)]
        uids = self.dri.directory.accounts.register_batch(
            wave, now=self.dri.clock.now())
        self.uids.append(uids)
        return None if len(uids) == WAVE else f"{len(uids)} uids for a wave"

    def op_grow(self, first: int) -> Optional[str]:
        bad = self.op_write(first)
        self.dri.directory.accounts.add_shard(f"acct-{self.shards:02d}")
        return bad

    def op_read(self, users: Tuple[int, ...]) -> Optional[str]:
        directory = self.dri.directory
        for i in users:
            identity = LinkedIdentity(self.entity(i), f"sub-{i:07d}")
            directory.metadata.get(identity.entity_id)
            if directory.accounts.find(identity) is None:
                return f"registered user {i} not found"
        return None

    def finish(self) -> List[str]:
        bad = super().finish()
        accounts = self.dri.directory.accounts
        t0 = perf_counter()
        try:
            accounts.verify_invariants()
        except Exception as exc:  # RecoveryError names the broken invariant
            bad.append(f"directory invariants: {exc}")
        self.invariants_s = perf_counter() - t0
        minted = [uid for wave in self.uids for uid in wave]
        if len(set(minted)) != len(minted) or len(accounts) < len(minted):
            bad.append(f"uid collision: {len(minted)} registered, "
                       f"{len(set(minted))} distinct, {len(accounts)} stored")
        if accounts.migration is None or not accounts.migration.done:
            bad.append("shard migration did not finish inside the timed phase")
        return bad

    def counters(self) -> Dict[str, int]:
        accounts = self.dri.directory.accounts
        metadata = self.dri.directory.metadata
        return {
            **super().counters(),
            "directory.register_users": accounts.batched_registrations,
            "directory.lookups": accounts.lookups + metadata.lookups,
            "directory.fallback_probes": (accounts.fallback_probes
                                          + metadata.fallback_probes),
            "directory.migrated_keys": (accounts.migrated_keys
                                        + metadata.migrated_keys),
        }


WORKLOADS: Dict[str, type] = {w.name: w for w in (
    SsoLogin, OnboardWave, AccessMix, AllTiersMix, DirectoryScale)}


# ----------------------------------------------------------------------
# one round
# ----------------------------------------------------------------------
def plan_hash(plan: Tuple[List[Op], List[Op], List[float]]) -> str:
    return hashlib.sha256(repr(plan).encode()).hexdigest()


def run_round(name: str, seed: int, scale: float = 1.0, *,
              traced: bool = False, spans_path: Optional[str] = None
              ) -> Dict[str, object]:
    """Build, populate, warm up, then time every op of one workload."""
    workload: Workload = WORKLOADS[name](seed, scale)
    plan = workload.plan()
    warm, timed, gaps = plan
    rec = trace.Recorder() if traced else None
    failures: List[str] = []
    latencies: List[float] = []
    cycles: List[float] = []
    kernel: List[float] = []
    steps: List[float] = []         # set-up, cut where the kernel ran
    steps_kernel: List[float] = []
    failed_timed = 0

    def attempt(index: int, op: Op) -> bool:
        try:
            bad = workload.run(op)
        except Exception as exc:  # an op that raises is a failed op
            bad = f"{type(exc).__name__}: {exc}"
        if bad is not None:
            failures.append(f"op {index} ({op[0]}): {bad}")
        return bad is None

    def mark() -> None:
        nonlocal t_prev
        t = perf_counter()
        steps.append(t - t_prev)
        calibrate.kernel()
        t_prev = perf_counter()
        steps_kernel.append(t_prev - t)

    with trace.installed(rec) if traced else contextlib.nullcontext():
        workload.mark = mark
        t_prev = perf_counter()
        workload.setup()
        clock = workload.dri.clock
        for i, op in enumerate(warm):
            clock.advance(gaps[i])
            attempt(i - len(warm), op)
            mark()
        before = workload.counters()
        for i, op in enumerate(timed):
            clock.advance(gaps[len(warm) + i])
            span = rec.begin_op(i) if traced else 0
            t0 = perf_counter()
            failed_timed += not attempt(i, op)
            t1 = perf_counter()
            latencies.append(t1 - t0)
            cycles.append(t1 - t_prev)  # the op plus the gap before it
            if traced:
                rec.end_op(span)
                t1 = perf_counter()
            calibrate.kernel()
            t_prev = perf_counter()
            kernel.append(t_prev - t1)
        counted = {k: v - before[k] for k, v in workload.counters().items()}
        failures += workload.finish()

    result: Dict[str, object] = {
        "workload": name, "seed": seed, "scale": scale, "traced": traced,
        "plan_hash": plan_hash(plan),
        "attempted": len(warm) + len(timed),
        "failed_timed": failed_timed,
        "failures": failures,
        "setup_s": sum(steps),
        "setup_steps_s": steps,
        "setup_kernel_s": steps_kernel,
        "timed_s": sum(cycles),
        "latencies_s": latencies,
        "cycles_s": cycles,
        "kernel_s": kernel,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        # self times in reference-box time, like the end-to-end metrics
        scale = [1.0 / s for s in calibrate.slowdowns(kernel)]
        layers = trace.aggregate(rec, scale)
        layers.update(counted)
        layers["directory.invariants_s"] = workload.invariants_s
        tenth = max(1, len(timed) // 10)
        result["layers"] = layers
        result["first_decile"] = trace.aggregate(rec, scale, range(tenth))
        result["last_decile"] = trace.aggregate(
            rec, scale, range(len(timed) - tenth, len(timed)))
        if spans_path:
            rec.write_csv(spans_path)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="run one round (child process)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    result = run_round(args.workload, args.seed, args.scale,
                       traced=bool(args.trace), spans_path=args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
