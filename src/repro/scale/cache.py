"""Distributed cache layer for the scale-out subsystem.

Three cooperating pieces, all driven by :class:`~repro.clock.SimClock`
(never the wall clock):

* :class:`TtlCache` — positive + negative caching with per-entry TTLs,
  tag-based invalidation, and built-in **single-flight** request
  coalescing: loads that overlap in simulated time share one upstream
  fetch instead of stampeding.
* :class:`InvalidationBus` — deployment-wide pub/sub that carries token
  revocations and JWKS key rotations to every subscribed cache
  *synchronously and in order*, so a cached ALLOW decision never
  outlives the revocation that kills it.  This models a small, reliable
  message bus (Redis keyspace events / NATS in production systems such
  as Gafaelfawr) rather than best-effort gossip.
* :class:`CacheStats` — counters the benches and the telemetry layer
  read to prove the ≥10× upstream-call reduction.

Determinism: "concurrent" in a sequential discrete-event simulation
means *overlapping in simulated time*.  A load that completes at T
installs an entry loaded at T, so every request that arrives while the
clock still reads T — a forced refresh included (``min_fresh_at`` ≤ T)
— is a hit on the leader's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..clock import SimClock

__all__ = ["CacheStats", "TtlCache", "InvalidationBus", "LoadInFlight",
           "publish_on"]


class LoadInFlight(RuntimeError):
    """A re-entrant load of a key whose leader is still on the stack.

    Sequential execution cannot block a follower until the leader
    returns; a caller that can serve degraded should catch this and use
    its stale copy.  In practice the control-plane call graphs never
    recurse into the same cache key, so this is a guard rail, not a
    code path.
    """


@dataclass
class CacheStats:
    """Counters for one cache (read by benches, tests and telemetry)."""

    hits: int = 0
    negative_hits: int = 0
    misses: int = 0
    loads: int = 0
    coalesced: int = 0
    invalidations: int = 0
    expirations: int = 0
    negative_purged: int = 0  # negative entries killed by tag/clear

    def requests(self) -> int:
        return self.hits + self.negative_hits + self.misses + self.coalesced

    def hit_ratio(self) -> float:
        total = self.requests()
        served = self.hits + self.negative_hits + self.coalesced
        return served / total if total else 0.0


@dataclass
class _Entry:
    value: Any
    loaded_at: float
    expires_at: float
    negative: bool = False
    error: Optional[Tuple[type, str]] = None
    tags: Tuple[str, ...] = ()


class TtlCache:
    """TTL cache with negative entries, tags and single-flight loads.

    ``get_or_load`` is the only read path: a hit returns the cached
    value (or re-raises the cached *negative* outcome), a miss runs
    ``loader`` and installs the result.
    Failures listed in ``negative_errors`` are cached as negative
    entries for ``negative_ttl`` so repeated bad inputs (forged or
    revoked tokens) do not redo expensive crypto or upstream calls.

    Tags drive invalidation: an entry tagged ``jti:abc`` disappears the
    instant the invalidation bus delivers a revocation for that jti,
    regardless of remaining TTL.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        *,
        ttl: float,
        telemetry,
        negative_ttl: Optional[float] = None,
        negative_errors: Tuple[type, ...] = (),
        max_entries: int = 4096,
    ) -> None:
        self.name = name
        self.clock = clock
        self.ttl = float(ttl)
        self.negative_ttl = float(negative_ttl if negative_ttl is not None else ttl)
        self.negative_errors = negative_errors
        self.max_entries = max_entries
        self.telemetry = telemetry
        self.stats = CacheStats()
        self._entries: Dict[Any, _Entry] = {}
        self._by_tag: Dict[str, Set[Any]] = {}
        # keys whose loader is on the stack (a re-entrant load of one
        # raises LoadInFlight)
        self._loading: Set[Any] = set()
        # live bus subscriptions keyed by (bus, topic); see bind()/unbind()
        self._bindings: Dict[Tuple[int, str], Tuple["InvalidationBus", "_Subscription"]] = {}
        # the caller can read this right after get_or_load to stamp a
        # CACHED audit outcome on decisions served without fresh work
        self.last_hit = False

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get_or_load(
        self,
        key: Any,
        loader: Callable[[], Any],
        *,
        ttl: Optional[float] = None,
        ttl_of: Optional[Callable[[Any], float]] = None,
        tags_of: Optional[Callable[[Any], Tuple[str, ...]]] = None,
        negative_tags_of: Optional[
            Callable[[BaseException], Tuple[str, ...]]] = None,
        min_fresh_at: Optional[float] = None,
    ) -> Any:
        """Return the cached value for ``key``, loading on miss.

        ``min_fresh_at`` implements coalesced force-refresh: entries
        loaded before that timestamp are treated as stale, but an entry
        installed by another caller *at the current instant* still
        counts as fresh — N callers demanding a refresh at time T
        produce exactly one upstream load.
        """
        now = self.clock.now()
        self.last_hit = False
        # a stale entry's tags survive onto a negative replacement for the
        # same key: the credential is the same, only its verdict flipped,
        # so tag invalidation (bus evictions) must keep reaching it
        prior_tags: Tuple[str, ...] = ()
        entry = self._entries.get(key)
        if entry is not None:
            stale = now >= entry.expires_at or (
                min_fresh_at is not None and entry.loaded_at < min_fresh_at
            )
            if stale:
                prior_tags = entry.tags
            if not stale:
                self.last_hit = True
                if entry.negative:
                    self.stats.negative_hits += 1
                    self._observe("negative_hit")
                    assert entry.error is not None
                    exc_type, message = entry.error
                    raise exc_type(message)
                self.stats.hits += 1
                self._observe("hit")
                return entry.value
            if now >= entry.expires_at:
                self.stats.expirations += 1
                self._drop(key)

        if key in self._loading:
            # re-entrant follower: the leader's loader is on the stack
            # below us and cannot be waited on sequentially
            self.stats.coalesced += 1
            self._observe("coalesced")
            raise LoadInFlight(f"{self.name}: load of {key!r} in flight")

        self.stats.misses += 1
        self._observe("miss")
        self._loading.add(key)
        try:
            value = loader()
        except self.negative_errors as exc:
            self.stats.loads += 1
            self._observe("load")
            neg_tags: Tuple[str, ...] = ()
            if negative_tags_of is not None:
                neg_tags = tuple(negative_tags_of(exc))
            if not neg_tags:
                neg_tags = prior_tags
            self._install(
                key,
                _Entry(
                    value=None,
                    loaded_at=self.clock.now(),
                    expires_at=self.clock.now() + self.negative_ttl,
                    negative=True,
                    error=(type(exc), str(exc)),
                    tags=neg_tags,
                ),
            )
            raise
        finally:
            # however the loader ended, it is off the stack; an unexpected
            # failure is not cached, so the next caller retries upstream
            self._loading.discard(key)
        self.stats.loads += 1
        self._observe("load")
        entry_ttl = self.ttl if ttl is None else ttl
        if ttl_of is not None:
            entry_ttl = min(entry_ttl, ttl_of(value))
        tags: Tuple[str, ...] = tags_of(value) if tags_of is not None else ()
        self._install(
            key,
            _Entry(
                value=value,
                loaded_at=self.clock.now(),
                expires_at=self.clock.now() + max(entry_ttl, 0.0),
                tags=tags,
            ),
        )
        return value

    def peek(self, key: Any) -> Optional[Any]:
        """Non-loading read: the live value or None (never a negative)."""
        entry = self._entries.get(key)
        if entry is None or entry.negative or self.clock.now() >= entry.expires_at:
            return None
        return entry.value

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, key: Any) -> bool:
        """Drop one key."""
        entry = self._entries.get(key)
        existed = entry is not None
        if existed and entry.negative:
            self.stats.negative_purged += 1
        self._drop(key)
        if existed:
            self.stats.invalidations += 1
            self._observe("invalidation")
        return existed

    def invalidate_tag(self, tag: str) -> int:
        """Drop every entry carrying ``tag``; returns how many died.

        Negative entries count too: a negative verdict inherits its
        predecessor's tags (and loaders may tag them explicitly via
        ``negative_tags_of``), so a revocation kills the cached denial
        alongside the cached ALLOW, and the next caller goes back upstream
        for a fresh verdict.
        """
        keys = list(self._by_tag.get(tag, ()))
        for key in keys:
            self.invalidate(key)
        return len(keys)

    def clear(self) -> int:
        """Flush the whole cache (e.g. on a signing-key rotation),
        positive and negative entries alike."""
        n = len(self._entries)
        self.stats.negative_purged += sum(
            1 for e in self._entries.values() if e.negative)
        self._entries.clear()
        self._by_tag.clear()
        if n:
            self.stats.invalidations += n
            self._observe("invalidation", n)
        return n

    def bind(self, bus: "InvalidationBus", topic: str,
             *, by_tag: bool = True) -> None:
        """Subscribe this cache to a bus topic.

        With ``by_tag`` (default) the event key is treated as a tag
        (``jti:<key>`` style is the publisher's responsibility to match);
        a bare event with no key flushes the whole cache.

        Binding is idempotent per ``(bus, topic)`` *and* per cache name:
        re-binding (or binding a rebuilt cache carrying the same name)
        replaces the previous subscription instead of stacking a new one,
        so the bus's subscriber count stays flat across cache rebuilds
        and dead cache instances stop receiving events.
        """
        def _on_event(key: Optional[str], **_attrs: object) -> None:
            if key is None:
                self.clear()
            elif by_tag:
                self.invalidate_tag(key)
            else:
                self.invalidate(key)

        binding_key = (id(bus), topic)
        old = self._bindings.pop(binding_key, None)
        if old is not None:
            old[0].unsubscribe(old[1])
        sub = bus.subscribe(topic, _on_event, owner=f"cache:{self.name}")
        self._bindings[binding_key] = (bus, sub)

    def unbind(self) -> int:
        """Drop every live bus subscription this cache holds; returns how
        many were removed.  Call before discarding a cache instance whose
        name will *not* be reused (same-name rebuilds self-heal via the
        owner dedup in :meth:`bind`)."""
        n = 0
        for bus, sub in self._bindings.values():
            n += 1 if bus.unsubscribe(sub) else 0
        self._bindings.clear()
        return n

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _install(self, key: Any, entry: _Entry) -> None:
        self._drop(key)
        if len(self._entries) >= self.max_entries:
            # deterministic eviction: the entry expiring soonest goes
            victim = min(self._entries,
                         key=lambda k: (self._entries[k].expires_at, str(k)))
            self._drop(victim)
            self.stats.expirations += 1
        self._entries[key] = entry
        for tag in entry.tags:
            self._by_tag.setdefault(tag, set()).add(key)

    def _drop(self, key: Any) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for tag in entry.tags:
            members = self._by_tag.get(tag)
            if members is not None:
                members.discard(key)
                if not members:
                    del self._by_tag[tag]

    def _observe(self, event: str, n: int = 1) -> None:
        self.telemetry.observe_cache(self.name, event, n)


@dataclass
class _Subscription:
    topic: str
    callback: Callable[..., None]
    # stable identity for dedup across subscriber rebuilds (e.g. a cache
    # name): a new subscription with the same owner replaces the old one
    owner: Optional[str] = None


class InvalidationBus:
    """Synchronous, ordered pub/sub for cache invalidation events.

    ``publish(topic, key=...)`` delivers to every subscriber before it
    returns — the simulation's stand-in for a reliable message bus with
    delivery confirmation.  The zero-trust contract rests on this:
    :meth:`~repro.broker.tokens.TokenService.revoke_jti` publishes
    *before* reporting the revocation done, so by the time any caller
    observes the revocation, no subscribed cache still holds the token.
    """

    def __init__(self) -> None:
        self._subs: Dict[str, List[_Subscription]] = {}
        self.published = 0
        self.delivered = 0

    def subscribe(self, topic: str, callback: Callable[..., None],
                  *, owner: Optional[str] = None) -> _Subscription:
        """Register ``callback`` for ``topic``; returns the subscription
        handle for :meth:`unsubscribe`.

        With an ``owner``, the subscription *replaces* any existing one
        with the same (topic, owner) — in place, preserving delivery
        order — so rebuilt subscribers (caches recreated after a flush
        or a region restart) never leave a dangling callback behind and
        the subscriber count stays flat across rebuilds.
        """
        sub = _Subscription(topic, callback, owner)
        subs = self._subs.setdefault(topic, [])
        if owner is not None:
            for i, existing in enumerate(subs):
                if existing.owner == owner:
                    subs[i] = sub
                    return sub
        subs.append(sub)
        return sub

    def unsubscribe(self, sub: _Subscription) -> bool:
        """Remove one subscription; returns whether it was present."""
        subs = self._subs.get(sub.topic, [])
        for i, existing in enumerate(subs):
            if existing is sub:
                del subs[i]
                return True
        return False

    def publish(self, topic: str, key: Optional[str] = None,
                **attrs: object) -> int:
        """Deliver an event to every subscriber of ``topic``, in order."""
        self.published += 1
        delivered = 0
        for sub in self._subs.get(topic, ()):  # registration order
            sub.callback(key, **attrs)
            delivered += 1
        self.delivered += delivered
        return delivered

    def subscriber_count(self, topic: str) -> int:
        return len(self._subs.get(topic, ()))


def publish_on(bus, dri) -> None:
    """Point every token/key authority of the deployment ``dri`` at
    ``bus`` (anything with the bus's ``publish``): the broker's token
    service for RBAC revocations, every OIDC provider for access-token
    revocations and JWKS rotations."""
    dri.broker.tokens.bus = bus
    for provider in (dri.broker, dri.myaccessid, dri.lastresort,
                     dri.admin_idp, *dri.idps.values()):
        provider.invalidation_bus = bus
