"""Deterministic fault injection for the simulated network (chaos harness).

The paper's availability claims — HA bastions patched live (ABL4),
kill-switch containment under attack (ABL3), 45 simultaneous workshop
logins (§IV.B) — are only meaningful if the control plane can be driven
through *adversity*.  :class:`FaultInjector` is the seam: the deployment
hands one to :class:`~repro.net.network.Network`, and every message that
passes segmentation and transport policy is then offered to the injector,
which may fail it or slow it down.

Faults are windows on the shared :class:`~repro.clock.SimClock` and all
randomness comes from an injected ``random.Random``, so a chaos run is
bit-for-bit reproducible from its seed — the same property the rest of
the simulation guarantees.

Supported fault kinds:

* **outage** — every message to the endpoint fails;
* **brownout** — each message fails independently with probability *p*;
* **slow_replica** — messages are delivered but cost extra simulated time
  (a gray failure; ``gray_region`` slows every replica of a region);
* **crash** — process death with state loss: the endpoint goes down AND
  its in-memory state is wiped (via a hook the deployment registers), so
  recovery exercises the durability layer instead of resuming silently;
* **region_down** — a whole deployment region dies at once: every replica
  endpoint goes down and the region journal is fenced, via hooks the
  multi-region deployment registers (see :mod:`repro.region`);
* **region partition** — inter-region replication and cross-region
  routing are severed both ways between two named regions, with a
  deterministic heal that flushes queued replication in publish order;
* **pdp_down** — the policy decision point goes unreachable; guarded
  surfaces ride the staleness bound, then fail closed;
* **teardown_stuck** — one enforcement surface stops confirming
  revocations until the fault clears (the pipeline retries converge it);
* **revocation_storm** — a burst of duplicate revocations lands on the
  pipeline at one instant (coalescing keeps it from amplifying);
* **shard_down** — one directory shard (accounts or metadata tier) goes
  down; lookups whose keys hash to it fail closed while every other
  shard keeps serving;
* **metadata_feed_stale** — a federation registrar's feed stops
  publishing; cached entries serve until their validity window lapses,
  then logins through them fail closed.

Injected failures raise :class:`~repro.errors.FaultInjected`, a subclass
of :class:`~repro.errors.ServiceUnavailable` — clients cannot tell chaos
from a real outage, which is the point.

The kinds up to *slow_replica* are **windows**: a :class:`Fault` record that
:meth:`FaultInjector.perturb` consults per message.  The kinds from
*crash* down are **scheduled**: the injector cannot itself wipe a
service, fence a region or wedge a teardown, so the tier that can
registers a hook pair (``register_*_hooks``) and the public method
(``crash``, ``region_down``, ``region_partition``, ``pdp_down``,
``teardown_stuck``, ``revocation_storm``, ``shard_down``,
``metadata_feed_stale``) only validates, builds the record and hands it
to one primitive, :meth:`FaultInjector._schedule`: fire the hook at the
fault's start (at once when that is not in the future, from the clock
otherwise, skipped if the fault was cleared first), count the firing
(one hit, one offer, the kind's counter), and — when the caller gave a
duration — schedule the undo hook, which for every kind but ``crash``
and ``region_down`` also marks the fault cleared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.clock import SimClock
from repro.errors import ConfigurationError, FaultInjected

__all__ = ["Fault", "FaultInjector"]

# fault kinds
OUTAGE = "outage"
BROWNOUT = "brownout"
PARTITION = "partition"
CRASH = "crash"
REGION_DOWN = "region_down"
# a persistently slow-but-alive replica: the canonical gray failure
SLOW_REPLICA = "slow_replica"
# continuous-authorization fault kinds (hooks registered by the authz
# deployment tier): the policy decision point goes unreachable, one
# enforcement surface's teardown wedges, or a burst of duplicate
# revocations lands on the pipeline at once
PDP_DOWN = "pdp_down"
TEARDOWN_STUCK = "teardown_stuck"
REVOCATION_STORM = "revocation_storm"
# federation-directory fault kinds (hooks registered by the directory
# tier): one shard of the sharded account/metadata stores goes down, or
# a federation registrar's metadata feed stops publishing
SHARD_DOWN = "shard_down"
METADATA_FEED_STALE = "metadata_feed_stale"


@dataclass
class Fault:
    """One scheduled perturbation.  ``duration=None`` means "until cleared"."""

    kind: str
    endpoint: Optional[str]
    start: float
    duration: Optional[float] = None
    probability: float = 1.0          # brownout failure probability
    extra_latency: float = 0.0        # slow-replica cost per message
    # the two regions a region partition severs, as ("region", name)
    loc_a: Optional[Tuple[object, object]] = None
    loc_b: Optional[Tuple[object, object]] = None
    hits: int = 0                     # messages this fault failed or slowed
    offers: int = 0                   # messages consulted while active:
                                      # hits alone hide how much traffic
                                      # rode through the window unscathed
    cleared: bool = False

    def active(self, now: float) -> bool:
        if self.cleared or now < self.start:
            return False
        return self.duration is None or now < self.start + self.duration

    def clear(self) -> None:
        self.cleared = True


class FaultInjector:
    """The chaos controller: schedule faults, perturb messages.

    Parameters
    ----------
    clock:
        Shared simulated clock; fault windows are measured on it.
    rng:
        Dedicated ``random.Random`` for brownout draws.  Give the injector
        its *own* seeded instance (not the deployment's ``IdFactory`` rng)
        so enabling chaos does not shift identifier/secret generation.
    fail_cost:
        Simulated seconds a failed message costs the caller (the connect
        timeout it burns discovering the fault).
    """

    def __init__(self, clock: SimClock, rng, *, fail_cost: float = 0.025) -> None:
        self.clock = clock
        self.rng = rng
        self.fail_cost = fail_cost
        self.faults: List[Fault] = []
        self.injected_failures = 0
        self.injected_latency = 0.0
        self.failures_by_endpoint: Dict[str, int] = {}
        # what the tiers taught the injector, keyed by fault kind (or by
        # (kind, target) where hooks are per endpoint/region): only the
        # deployment knows how to wipe and recover a service, fence a
        # region, wedge an enforcement surface or silence a registrar
        self._hooks: Dict[object, object] = {}
        # one counter per scheduled kind: how many actually fired
        self.crashes_injected = 0
        self.regions_downed = 0
        self.region_partitions = 0
        self.gray_regions = 0
        self.pdp_outages = 0
        self.teardowns_stuck = 0
        self.revocation_storms = 0
        self.shards_downed = 0
        self.feeds_staled = 0

    # ------------------------------------------------------------------
    # window faults: consulted per message by perturb()
    # ------------------------------------------------------------------
    def _add(self, fault: Fault) -> Fault:
        self.faults.append(fault)
        return fault

    def _when(self, at: Optional[float]) -> float:
        return self.clock.now() if at is None else at

    def outage(self, endpoint: str, *, start: Optional[float] = None,
               duration: Optional[float] = None) -> Fault:
        """Hard-down window for ``endpoint``."""
        return self._add(Fault(OUTAGE, endpoint, self._when(start), duration))

    def brownout(self, endpoint: str, probability: float, *,
                 start: Optional[float] = None,
                 duration: Optional[float] = None) -> Fault:
        """Each message to ``endpoint`` fails with ``probability``."""
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"brownout probability must be in [0, 1], got {probability}")
        return self._add(Fault(BROWNOUT, endpoint, self._when(start),
                               duration, probability=probability))

    def slow_replica(self, endpoint: str, extra: float, *,
                     start: Optional[float] = None,
                     duration: Optional[float] = None) -> Fault:
        """Make one replica *gray*: alive, serving, but ``extra`` seconds
        slower per message.  Nothing hard-fails, so breakers and health
        checks stay green — only the tail-tolerance layer notices."""
        if extra <= 0:
            raise ConfigurationError(
                f"slow_replica extra latency must be > 0, got {extra}")
        return self._add(Fault(SLOW_REPLICA, endpoint, self._when(start),
                               duration, extra_latency=extra))

    # ------------------------------------------------------------------
    # scheduled faults: fire a tier's hook at an instant, undo it later
    # ------------------------------------------------------------------
    def _hooks_for(self, key: object, missing: str):
        hooks = self._hooks.get(key)
        if hooks is None:
            raise ConfigurationError(missing)
        return hooks

    def _schedule(self, fault: Fault, counter: Optional[str], fire,
                  undo=None, undo_after: Optional[float] = None, *,
                  clears: bool = True) -> Fault:
        """The one scheduling primitive behind every hook-driven kind.

        ``fire`` runs at ``fault.start`` — immediately when that is not
        in the future, otherwise from the clock, where it lands in the
        middle of whatever is in flight — unless the fault was cleared
        first; a firing counts one hit, one offer and one on the kind's
        ``counter`` (``None``: ``fire`` does its own accounting).  With
        ``undo_after`` the ``undo`` hook is scheduled that long after
        the start, and — for the kinds whose window ends with the heal
        (``clears``) — marks the fault cleared.
        """
        self._add(fault)

        def _fire() -> None:
            if fault.cleared:
                return
            if counter is not None:
                fault.hits += 1
                fault.offers += 1
                setattr(self, counter, getattr(self, counter) + 1)
            fire()

        if fault.start <= self.clock.now():
            _fire()
        else:
            self.clock.call_at(fault.start, _fire)
        if undo_after is not None:
            def _undo() -> None:
                undo()
                if clears:
                    fault.clear()
            self.clock.call_at(fault.start + undo_after, _undo)
        return fault

    def register_crash_hooks(self, endpoint: str, crash_fn, restart_fn) -> None:
        """Teach the injector how to kill and restart ``endpoint``.

        ``crash_fn`` must take the endpoint down and wipe its in-memory
        state; ``restart_fn`` must bring it back (recovering from the
        journal if the deployment is durable, cold and empty otherwise).
        """
        self._hooks[CRASH, endpoint] = (crash_fn, restart_fn)

    def crash(self, endpoint: str, *, at: Optional[float] = None,
              restart_after: Optional[float] = None) -> Fault:
        """Kill ``endpoint``'s process: down + state wiped.

        ``at`` schedules the kill for a future instant (it then lands in
        the middle of whatever is in flight — the network re-checks
        endpoint health after the delivery delay, so a request can fail
        *mid-request* against the freshly wiped service).
        ``restart_after`` schedules the restart that many seconds after
        the crash; omit it to leave the service down until the caller
        restarts it explicitly.
        """
        crash_fn, restart_fn = self._hooks_for(
            (CRASH, endpoint),
            f"no crash hooks registered for endpoint {endpoint!r}")
        return self._schedule(
            Fault(CRASH, endpoint, self._when(at)), "crashes_injected",
            crash_fn, restart_fn, restart_after, clears=False)

    def register_region_hooks(self, region: str, down_fn, up_fn) -> None:
        """Teach the injector how to kill and recover a whole region.

        ``down_fn`` must take every replica endpoint in the region down
        and fence its journal epoch; ``up_fn`` must bring the region back
        under a *fresh* epoch with caches flushed and revocation state
        resynced from the authoritative store.
        """
        self._hooks[REGION_DOWN, region] = (down_fn, up_fn)

    def register_region_link_hooks(self, sever_fn, heal_fn) -> None:
        """Register the pair that severs/heals inter-region links.

        Both take ``(region_a, region_b)``; sever must cut bus
        replication *and* cross-region routing in both directions, heal
        must restore them and flush parked replication deterministically.
        """
        self._hooks["region_link"] = (sever_fn, heal_fn)

    def region_down(self, region: str, *, at: Optional[float] = None,
                    restore_after: Optional[float] = None) -> Fault:
        """Kill an entire region: every replica down + journal fenced.

        Mirrors :meth:`crash` scheduling: ``at`` defers the kill,
        ``restore_after`` schedules recovery that many seconds later;
        omit it to leave the region down until recovered explicitly.
        """
        down_fn, up_fn = self._hooks_for(
            (REGION_DOWN, region),
            f"no region hooks registered for region {region!r}")
        return self._schedule(
            Fault(REGION_DOWN, f"region:{region}", self._when(at),
                  restore_after),
            "regions_downed", down_fn, up_fn, restore_after, clears=False)

    def register_region_endpoints(self, region: str, endpoints_fn) -> None:
        """Teach the injector which replica endpoints make up ``region``
        (``endpoints_fn`` returns the *current* list, so the fan-out
        follows autoscaling)."""
        self._hooks[SLOW_REPLICA, region] = endpoints_fn

    def gray_region(self, region: str, extra: float, *,
                    start: Optional[float] = None,
                    duration: Optional[float] = None) -> List[Fault]:
        """Turn a whole region *gray*: every replica endpoint currently
        in ``region`` gets a :meth:`slow_replica` fault.  The region
        keeps serving (slowly), its bus keeps replicating, so the lag
        watchdog never fires — only latency-aware routing notices."""
        endpoints_fn = self._hooks_for(
            (SLOW_REPLICA, region),
            f"no region endpoints registered for region {region!r}")
        self.gray_regions += 1
        return [self.slow_replica(ep, extra, start=start, duration=duration)
                for ep in endpoints_fn()]

    def region_partition(self, region_a: str, region_b: str, *,
                         at: Optional[float] = None,
                         duration: Optional[float] = None) -> Fault:
        """Sever bus replication and cross-region routing between two
        regions, both ways.  With ``duration`` the heal is scheduled
        deterministically; otherwise :meth:`clear` the returned fault
        (or let the deployment heal).
        """
        sever_fn, heal_fn = self._hooks_for(
            "region_link", "no region link hooks registered")
        # loc_a/loc_b are recorded for observability; with no endpoint the
        # fault matches no message, so perturb() ignores it
        return self._schedule(
            Fault(PARTITION, None, self._when(at), duration,
                  loc_a=("region", region_a), loc_b=("region", region_b)),
            "region_partitions",
            lambda: sever_fn(region_a, region_b),
            lambda: heal_fn(region_a, region_b), duration)

    # The kinds below mark their faults with "authz:", "shard:" and
    # "feed:" endpoints that never match a real dst name, so perturb()
    # ignores them.
    def register_pdp_hooks(self, down_fn, restore_fn) -> None:
        """Teach the injector how to kill and restore the policy decision
        point.  ``restore_fn`` must also re-heartbeat the guards and
        re-drive anything the pipeline left pending."""
        self._hooks[PDP_DOWN] = (down_fn, restore_fn)

    def pdp_down(self, *, at: Optional[float] = None,
                 restore_after: Optional[float] = None) -> Fault:
        """Make the policy decision point unreachable.

        Enforcement surfaces ride their last good heartbeat for the
        configured staleness bound, then fail closed.  ``restore_after``
        schedules the heal; omit it to leave the PDP down until restored
        explicitly.
        """
        down_fn, restore_fn = self._hooks_for(
            PDP_DOWN, "no PDP hooks registered")
        return self._schedule(
            Fault(PDP_DOWN, "authz:pdp", self._when(at), restore_after),
            "pdp_outages", down_fn, restore_fn, restore_after)

    def register_teardown_hooks(self, stick_fn, unstick_fn) -> None:
        """Register the pair that wedges/unwedges one enforcement
        surface's teardown; both take the surface name."""
        self._hooks[TEARDOWN_STUCK] = (stick_fn, unstick_fn)

    def teardown_stuck(self, surface: str, *, at: Optional[float] = None,
                       duration: Optional[float] = None) -> Fault:
        """Wedge one enforcement surface: revocations journal and fan out
        everywhere else, but this surface confirms nothing until the
        fault ends (the pipeline's retry loop then converges it)."""
        stick_fn, unstick_fn = self._hooks_for(
            TEARDOWN_STUCK, "no teardown hooks registered")
        return self._schedule(
            Fault(TEARDOWN_STUCK, f"authz:{surface}", self._when(at),
                  duration),
            "teardowns_stuck", lambda: stick_fn(surface),
            lambda: unstick_fn(surface), duration)

    def register_storm_hook(self, storm_fn) -> None:
        """Register the callable that fires ``count`` revocations across
        identities with live grants (the pipeline coalesces duplicates)."""
        self._hooks[REVOCATION_STORM] = storm_fn

    def revocation_storm(self, count: int, *,
                         at: Optional[float] = None) -> Fault:
        """Land a burst of ``count`` revocation requests on the pipeline
        at one instant — the retry-storm guard and coalescing are what
        keep this from amplifying into N full teardowns."""
        storm_fn = self._hooks_for(
            REVOCATION_STORM, "no storm hook registered")
        if count <= 0:
            raise ConfigurationError(f"storm count must be > 0, got {count}")
        fault = Fault(REVOCATION_STORM, "authz:pipeline", self._when(at))

        def _storm() -> None:
            # every request is an offer; the hits are what got through
            fired = storm_fn(count)
            fault.hits += int(fired)
            fault.offers += count
            self.revocation_storms += 1

        return self._schedule(fault, None, _storm)

    def register_shard_hooks(self, down_fn, up_fn) -> None:
        """Register the pair that downs/restores one directory shard;
        both take ``(tier, shard)`` — tier is ``"accounts"`` or
        ``"metadata"``, shard the shard name (e.g. ``"acct-03"``)."""
        self._hooks[SHARD_DOWN] = (down_fn, up_fn)

    def shard_down(self, tier: str, shard: str, *, at: Optional[float] = None,
                   restore_after: Optional[float] = None) -> Fault:
        """Take one directory shard down (state intact, just unreachable).

        Lookups whose keys hash to it raise
        :class:`~repro.errors.ShardUnavailable` — the sharded tier fails
        that key range *closed* rather than guessing.  ``restore_after``
        schedules the heal; omit it to leave the shard down until
        restored explicitly.
        """
        down_fn, up_fn = self._hooks_for(
            SHARD_DOWN, "no shard hooks registered")
        return self._schedule(
            Fault(SHARD_DOWN, f"shard:{tier}/{shard}", self._when(at),
                  restore_after),
            "shards_downed", lambda: down_fn(tier, shard),
            lambda: up_fn(tier, shard), restore_after)

    def register_feed_hooks(self, stale_fn, fresh_fn) -> None:
        """Register the pair that downs/restores a metadata feed's
        registrar; both take the feed name."""
        self._hooks[METADATA_FEED_STALE] = (stale_fn, fresh_fn)

    def metadata_feed_stale(self, feed: str, *, at: Optional[float] = None,
                            duration: Optional[float] = None) -> Fault:
        """Silence one federation registrar: polls fail, no new deltas
        arrive, and the feed's already-ingested entries age toward their
        validity horizon — past it, logins through them fail closed."""
        stale_fn, fresh_fn = self._hooks_for(
            METADATA_FEED_STALE, "no feed hooks registered")
        return self._schedule(
            Fault(METADATA_FEED_STALE, f"feed:{feed}", self._when(at),
                  duration),
            "feeds_staled", lambda: stale_fn(feed), lambda: fresh_fn(feed),
            duration)

    def clear(self, fault: Optional[Fault] = None) -> None:
        """End one fault, or every scheduled fault."""
        if fault is not None:
            fault.clear()
        else:
            for f in self.faults:
                f.clear()

    def active_faults(self) -> List[Fault]:
        now = self.clock.now()
        return [f for f in self.faults if f.active(now)]

    # ------------------------------------------------------------------
    # the network hook
    # ------------------------------------------------------------------
    def perturb(self, dst) -> float:
        """Offer one message for perturbation; called by the network after
        policy checks, before delivery.

        ``dst`` is the destination endpoint; a fault acts on the messages
        to its ``endpoint``.  Returns extra latency to impose on delivery;
        raises :class:`FaultInjected` to fail the message.  Failures happen
        *before* delivery, so the destination never observes a partially
        applied request — which is what makes client retries safe.
        """
        now = self.clock.now()
        extra = 0.0
        for fault in self.faults:
            if fault.endpoint != dst.name or not fault.active(now):
                continue
            # every matching message is an *offer*, whether or not the
            # fault ends up acting on it: hits/offers together say how
            # much of the window's traffic the fault actually touched
            fault.offers += 1
            if fault.kind == OUTAGE:
                self._fail(fault, dst.name, f"injected outage at {dst.name}")
            elif fault.kind == BROWNOUT:
                if self.rng.random() < fault.probability:
                    self._fail(fault, dst.name,
                               f"injected brownout at {dst.name} "
                               f"(p={fault.probability})")
            elif fault.kind == SLOW_REPLICA:
                fault.hits += 1
                extra += fault.extra_latency
        self.injected_latency += extra
        return extra

    def _fail(self, fault: Fault, endpoint: str, message: str) -> None:
        fault.hits += 1
        self.injected_failures += 1
        self.failures_by_endpoint[endpoint] = (
            self.failures_by_endpoint.get(endpoint, 0) + 1)
        raise FaultInjected(message)
