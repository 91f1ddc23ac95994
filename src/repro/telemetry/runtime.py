"""The deployment-wide telemetry runtime.

One :class:`Telemetry` instance per deployment owns the tracer, the span
store, the metrics registry, and the SLO monitors, and exposes the hook
points the rest of the library calls:

* ``observe_hop`` — the network transport reports every message outcome
  here (the RED metrics and availability SLOs are fed from this single
  choke point, which is also why they cannot disagree with the audit
  trail: both are emitted from the same code path);
* ``on_breaker_transition`` — circuit breakers report state changes;
* ``record_recovery`` / ``record_failover`` — WAL replays and standby
  promotions become retroactive spans plus domain counters;
* ``watch_audit`` — a never-raising bridge that derives domain metrics
  (tokens, certs, tunnels, sheds) from the audit stream itself.

Everything here *observes*: no method advances the simulated clock,
draws randomness, or mints ids from the deployment's seeded streams, so
enabling telemetry cannot change any simulated behaviour or number.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.clock import SimClock
from repro.telemetry.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.telemetry.pipeline import MAX_SERIES_PER_FAMILY, PipelineConfig
from repro.telemetry.provenance import Decision, ProvenanceLedger
from repro.telemetry.slo import BurnRateAlert, SloMonitor
from repro.telemetry.tracing import SpanStatus, SpanStore, Tracer

__all__ = ["Telemetry", "ERROR_OUTCOMES"]

# hop outcomes that count against an availability SLO: policy refusals
# ("denied", "blocked") are the system working as intended; overload and
# infrastructure failures are not.
ERROR_OUTCOMES = ("error", "unavailable", "shed", "expired")

_BREAKER_STATE_VALUE = {"closed": 0.0, "half-open": 0.5, "open": 1.0}


class Telemetry:
    """Tracer + metrics registry + SLO monitors for one deployment."""

    def __init__(self, clock: SimClock,
                 pipeline: Optional[PipelineConfig] = None) -> None:
        self.clock = clock
        self.pipeline = pipeline
        self.tracer = Tracer(clock, SpanStore(pipeline))
        self.store: SpanStore = self.tracer.store
        self.registry = MetricsRegistry()
        # every admission decision's provenance, queryable by identity
        # and by trace (bounded alongside the span store when the
        # pipeline is on)
        self.provenance = ProvenanceLedger(
            max_records=pipeline.max_decisions if pipeline is not None
            else 8192)
        self.bridge_errors = 0  # audit-bridge exceptions swallowed

        r = self.registry
        # RED metrics on the serving stack (labelled by destination)
        self.hop_requests = r.counter(
            "repro_http_requests_total",
            "Messages offered to the transport, by destination and outcome")
        self.hop_errors = r.counter(
            "repro_http_request_errors_total",
            "Messages that failed for non-policy reasons (error/unavailable/"
            "shed/expired)")
        self.hop_duration = r.histogram(
            "repro_http_request_duration_seconds",
            "Wall-clock (simulated) seconds from transport accept to "
            "response, with trace exemplars", buckets=DEFAULT_BUCKETS)
        # domain metrics
        self.tokens_issued = r.counter(
            "repro_tokens_issued_total", "Access tokens minted by the broker")
        self.tokens_revoked = r.counter(
            "repro_tokens_revoked_total", "Access tokens revoked")
        self.certs_signed = r.counter(
            "repro_ssh_certs_signed_total", "SSH certificates signed by the CA")
        self.tunnels_enrolled = r.counter(
            "repro_tunnels_enrolled_total", "Zenith tunnel registrations")
        self.sheds = r.counter(
            "repro_admission_shed_total", "Requests shed by admission control")
        self.deadline_expired = r.counter(
            "repro_deadline_expired_total", "Requests abandoned past deadline")
        self.journal_replays = r.counter(
            "repro_journal_replays_total", "recover() runs, by service")
        self.journal_entries_replayed = r.counter(
            "repro_journal_entries_replayed_total",
            "WAL entries replayed across all recoveries")
        self.failovers = r.counter(
            "repro_failover_promotions_total", "Standby promotions")
        self.breaker_transitions = r.counter(
            "repro_breaker_transitions_total",
            "Circuit breaker state transitions, by breaker and target state")
        self.breaker_state = r.gauge(
            "repro_breaker_state",
            "Breaker state (0 closed, 0.5 half-open, 1 open)")
        # scale-out subsystem
        self.cache_events = r.counter(
            "repro_cache_events_total",
            "Distributed-cache traffic by cache and event "
            "(hit/negative_hit/miss/load/coalesced/invalidation)")
        self.pool_size = r.gauge(
            "repro_replica_pool_size", "Live replicas per pool")
        self.autoscale_decisions = r.counter(
            "repro_autoscale_decisions_total",
            "Autoscaler actions, by pool and direction")
        # multi-region tier
        self.region_lag = r.gauge(
            "repro_region_replication_lag_seconds",
            "Measured revocation-replication lag into each region")
        self.region_state = r.gauge(
            "repro_region_state",
            "Region serving state (1 active, 0.5 stale/fail-closed, 0 down)")
        self.region_reroutes = r.counter(
            "repro_region_reroutes_total",
            "Requests the geo-router moved off a client's home region")
        self.region_bus_events = r.counter(
            "repro_region_bus_events_total",
            "Cross-region bus traffic, by origin/dest and event "
            "(replicated/parked/flushed/fenced)")
        # tail-tolerance layer
        self.tail_attempt_timeouts = r.counter(
            "repro_tail_attempt_timeouts_total",
            "Attempts abandoned at their adaptive per-attempt deadline")
        self.tail_hedges = r.counter(
            "repro_tail_hedges_total",
            "Speculative hedged attempts issued, by pool")
        self.tail_hedge_wins = r.counter(
            "repro_tail_hedge_wins_total",
            "Hedged calls whose speculative attempt answered first")
        self.tail_ejections = r.counter(
            "repro_tail_ejections_total",
            "Latency/error-outlier ejections, by pool and member")
        self.tail_reinstatements = r.counter(
            "repro_tail_reinstatements_total",
            "Ejected members reinstated on probation, by pool")
        self.tail_ejected = r.gauge(
            "repro_tail_ejected",
            "1 while a member sits ejected, 0 once reinstated")
        self.retry_budget_exhausted = r.counter(
            "repro_retry_budget_exhausted_total",
            "Retries refused by the retry-storm budget, by client->dest key")
        self.gray_detours = r.counter(
            "repro_region_gray_detours_total",
            "Requests routed away from a gray (slow-but-alive) home region")
        # continuous-authorization layer
        self.authz_revocations = r.counter(
            "repro_authz_revocations_total",
            "Revocation intents journaled by the pipeline, by reason")
        self.authz_ttr = r.histogram(
            "repro_authz_ttr_seconds",
            "Time-to-revoke: intent creation to last surface confirming")
        self.authz_fail_closed = r.counter(
            "repro_authz_fail_closed_total",
            "Admissions denied fail-closed with the PDP unreachable past "
            "the staleness bound, by surface")
        self.tracewatch_skips = r.counter(
            "repro_tracewatch_skipped_spans_total",
            "Spans the trace watcher could not check against current "
            "topology (previously dropped silently)")
        # federation-directory layer
        self.directory_lookups = r.counter(
            "repro_directory_lookups_total",
            "Directory key lookups, by tier and result "
            "(ok/fallback/unavailable)")
        self.directory_migrated = r.counter(
            "repro_directory_migrated_keys_total",
            "Keys moved between shards by rebalancing migrations, by tier")
        self.metadata_ingest_batches = r.counter(
            "repro_metadata_ingest_batches_total",
            "Feed polls/deltas processed, by feed and result "
            "(applied/rejected/unavailable)")
        self.metadata_ingest_entries = r.counter(
            "repro_metadata_ingest_entries_total",
            "Metadata entries upserted or removed via feed deltas, by feed")
        self.metadata_stale_denials = r.counter(
            "repro_metadata_stale_denials_total",
            "Logins refused because the IdP's metadata validity window "
            "lapsed, by federation")
        self.metadata_feed_age = r.gauge(
            "repro_metadata_feed_age_seconds",
            "Seconds since each feed's content was last applied")

        if pipeline is not None:
            # the pre-registered families get the configured cardinality
            # budget; families registered later opt in explicitly
            r.set_series_budget(MAX_SERIES_PER_FAMILY)

        self._slos: Dict[str, SloMonitor] = {}
        self._slos_by_service: Dict[str, List[SloMonitor]] = {}
        self._slo_callbacks: List[Callable[[BurnRateAlert], None]] = []
        # what a message would otherwise re-derive: a hop's series and
        # monitors per (dst, outcome), an audit action's bridge plan
        self._hop_plans: Dict[Tuple[str, str], tuple] = {}
        self._audit_plans: Dict[str, tuple] = {}

    # ------------------------------------------------------------ serving
    def observe_hop(self, *, dst: str, outcome: str, duration: float,
                    trace_id: Optional[str] = None) -> None:
        """One transport-level message finished with ``outcome``
        (ok/denied/blocked/unavailable/error/shed/expired)."""
        plan = self._hop_plans.get((dst, outcome))
        if plan is None:
            plan = self._hop_plans[dst, outcome] = self._plan_hop(dst, outcome)
        ticks, failed, observe, monitors = plan
        for tick in ticks:
            tick()
        now = self.clock.now()
        observe(duration, trace_id, now)
        for monitor in monitors:
            monitor.record(now, not failed)

    def _plan_hop(self, dst: str, outcome: str) -> tuple:
        """The counters one (destination, outcome) ticks, whether it
        counts against availability, its duration series and its SLO
        monitors — label keys built.  Each tick still meets the family's
        cardinality budget, and the monitor list is the live one
        :meth:`slo` appends to."""
        failed = outcome in ERROR_OUTCOMES
        ticks = [self.hop_requests.bound(dst=dst, outcome=outcome)]
        if failed:
            ticks.append(self.hop_errors.bound(dst=dst, outcome=outcome))
        return (ticks, failed, self.hop_duration.bound(dst=dst),
                self._slos_by_service.setdefault(dst, []))

    def observe_cache(self, cache: str, event: str, n: int = 1) -> None:
        """A distributed-cache lookup resolved as ``event`` (see
        :class:`repro.scale.cache.TtlCache`)."""
        self.cache_events.inc(n, cache=cache, event=event)

    # --------------------------------------------------------- resilience
    def on_breaker_transition(self, name: str, from_state: str, to_state: str,
                              now: float) -> None:
        self.breaker_transitions.inc(breaker=name, to=to_state)
        self.breaker_state.set(
            _BREAKER_STATE_VALUE.get(to_state, -1.0), breaker=name)

    def record_recovery(self, report, *, started: float) -> None:
        """A ``Durable.recover()`` completed: count it and back-fill a span
        covering the replay window (reports carry simulated times)."""
        self.journal_replays.inc(service=report.service)
        if report.entries_replayed:
            self.journal_entries_replayed.inc(
                report.entries_replayed, service=report.service)
        self.tracer.record(
            f"recover {report.service}", start=started,
            end=report.recovered_at, service=report.service, kind="internal",
            status=SpanStatus.OK, entries_replayed=report.entries_replayed,
            snapshot_seq=report.snapshot_seq, epoch=report.epoch,
        )

    def record_failover(self, name: str, report, *,
                        down_since: Optional[float] = None) -> None:
        """A standby promotion completed; the span covers detected-down
        through serving-again (the availability gap the SOC cares about)."""
        self.failovers.inc(service=name)
        start = down_since if down_since is not None \
            else report.recovered_at - report.duration
        self.tracer.record(
            f"failover.promote {name}", start=start, end=report.recovered_at,
            service=name, kind="internal", status=SpanStatus.OK,
            standby=report.service, epoch=report.epoch,
            entries_replayed=report.entries_replayed,
        )

    # -------------------------------------------------------- audit bridge
    def watch_audit(self, log) -> None:
        """Derive domain metrics from an audit log's live stream.

        The bridge swallows its own exceptions: :class:`AuditLog` detaches
        subscribers that raise, and losing telemetry must never cost the
        deployment its metrics silently mid-run.
        """
        log.subscribe(self._on_audit_event)

    # action -> counter attribute (labelled by the event's source) for
    # simple count-throughs
    _AUDIT_COUNTERS = {
        "rbac.mint": "tokens_issued",
        "rbac.revoke": "tokens_revoked",
        "rbac.revoke_subject": "tokens_revoked",
        "ca.sign": "certs_signed",
        "ca.sign_host": "certs_signed",
        "zenith.register": "tunnels_enrolled",
        "admission.shed": "sheds",
        "deadline.expired": "deadline_expired",
    }

    # decision-bearing audit actions -> enforcement surface.  Every one
    # of these becomes a DecisionRecord in the provenance ledger; the
    # decision itself derives from the event outcome.
    _AUDIT_DECISIONS = {
        "rbac.mint": "tokens",
        "rbac.denied": "tokens",
        "rbac.stepup_required": "tokens",
        "oidc.session": "tokens",
        "oidc.tokens_issued": "tokens",
        "region.introspect": "tokens",
        "ssh.session": "ssh",
        "ssh.cert_issued": "ssh",
        "ssh.cert_denied": "ssh",
        "login.success": "ssh",
        "login.denied": "ssh",
        "zenith.register": "tunnels",
        "zenith.route": "tunnels",
        "zenith.denied": "tunnels",
        "jupyter.auth": "compute",
        "jupyter.introspect.unavailable": "compute",
        "job.submit": "compute",
        "admission.shed": "admission",
        "authz.fail_closed": "",   # surface carried in event.resource
    }

    _OUTCOME_DECISIONS = {
        "success": Decision.ALLOW,
        "cached": Decision.CACHED,
        "denied": Decision.DENY,
        "shed": Decision.SHED,
    }

    # extra event attributes worth preserving as decision inputs
    _DECISION_ATTRS = ("jti", "audience", "role", "serial", "key_id",
                       "project", "capability")

    # actions whose traces a post-mortem will replay: revocations,
    # containments, continuous-authz enforcement.  The pipeline pins
    # these traces against tail-sampling eviction.
    _PROTECT_PREFIXES = (
        "rbac.revoke", "token.revok", "authz.", "killswitch.",
        "oidc.session_revok", "oidc.jti_revoked", "zenith.sessions_revoked",
        "zenith.kill", "ssh.sessions_closed",
    )

    def _on_audit_event(self, event) -> None:
        try:
            plan = self._audit_plans.get(event.action)
            if plan is None:
                plan = self._audit_plans[event.action] = \
                    self._plan_action(event.action)
            counter, surface, protect = plan
            if counter is not None:
                counter.inc(source=event.source)
            if surface is not None:
                self._record_decision(surface, event)
            if protect:
                self.store.protect(event.attrs.get("trace_id", ""))
        except Exception:
            self.bridge_errors += 1

    def _plan_action(self, action: str) -> tuple:
        """(counter, decision surface, pin the trace?) for one action
        string — all three empty for the many actions the bridge ignores."""
        counter = self._AUDIT_COUNTERS.get(action)
        return (getattr(self, counter) if counter is not None else None,
                self._AUDIT_DECISIONS.get(action),
                action.startswith(self._PROTECT_PREFIXES))

    def _record_decision(self, surface: str, event) -> None:
        """Turn one decision-bearing audit event into provenance."""
        if event.action == "authz.fail_closed":
            decision = Decision.FAIL_CLOSED
            surface = event.resource or "pdp"
        else:
            decision = self._OUTCOME_DECISIONS.get(event.outcome)
            if decision is None:
                return  # info/error events are not admission decisions
        attrs = event.attrs
        epoch = attrs.get("epoch", -1)
        staleness = attrs.get("age", -1.0)
        # rule attribution: an explicit rule attr wins; otherwise, for
        # grants, the surface-native grant basis (the RBAC role, the
        # capability) IS the matched rule on that surface.  Denials keep
        # their reason instead — a role that failed to match is not a
        # matched rule.
        rule = str(attrs.get("rule", ""))
        if not rule and decision in Decision.GRANTS:
            if attrs.get("role"):
                rule = f"role:{attrs['role']}"
            elif attrs.get("capability"):
                rule = f"capability:{attrs['capability']}"
        self.provenance.record(
            event.time, surface, decision, event.actor,
            spiffe_id=str(attrs.get("spiffe_id", "")),
            trace_id=str(attrs.get("trace_id", "")),
            resource=event.resource,
            rule=rule,
            reason=str(attrs.get("reason", "")),
            cached=decision == Decision.CACHED,
            region=str(attrs.get("region", "")),
            epoch=epoch if isinstance(epoch, int) else -1,
            pdp_staleness=float(staleness)
            if isinstance(staleness, (int, float)) else -1.0,
            attrs={k: attrs[k] for k in self._DECISION_ATTRS if k in attrs},
        )

    # ---------------------------------------------------------------- SLO
    def slo(self, name: str, *, service: str, objective: float = 0.99,
            **kwargs) -> SloMonitor:
        """Create (or fetch) a burn-rate monitor over ``service``'s hops."""
        monitor = self._slos.get(name)
        if monitor is None:
            monitor = SloMonitor(name, service=service, objective=objective,
                                 **kwargs)
            monitor.subscribe(self._dispatch_slo_alert)
            self._slos[name] = monitor
            self._slos_by_service.setdefault(service, []).append(monitor)
        return monitor

    def on_slo_alert(self, callback: Callable[[BurnRateAlert], None]) -> None:
        """Subscribe (e.g. the SOC) to every monitor's pages."""
        self._slo_callbacks.append(callback)

    def _dispatch_slo_alert(self, alert: BurnRateAlert) -> None:
        for callback in list(self._slo_callbacks):
            callback(alert)

    # ---------------------------------------------------------- exposition
    def exposition(self) -> str:
        """The whole registry in Prometheus-style text."""
        return self.registry.expose()
