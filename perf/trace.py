"""Per-layer attribution: spans recorded around the layers' public methods.

Nothing under ``src/`` knows about this file.  :func:`installed` replaces
the public methods listed in :data:`TARGETS` with thin wrappers that open
a span on entry and close it on exit, and puts the originals back when
its ``with`` block ends.  Spans are recorded only while the driver has an op open
(:meth:`Recorder.begin_op`), so set-up and warm-up run through the
wrappers but leave nothing behind.

A span's *layer* is the second component of the wrapped callable's
module (``repro.broker.tokens`` -> ``broker``; the federation directory
is its own layer), so the attribution follows the code if a later change
moves it.  A span's *self time* is its duration minus the time its child
spans cover; every wrapped callable adds its self time to exactly one
``*_s`` metric, the op's own remainder is ``trace.unattributed_s``, so
per op the metrics sum to the op's wall-clock.
"""

from __future__ import annotations

import csv
import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

__all__ = ["TARGETS", "METRICS", "Recorder", "installed", "self_times",
           "aggregate", "layer_of"]

# (importable owner, class, method, count-metric suffix, time-metric suffix)
# The metric's layer prefix comes from the class's module at install time.
TARGETS: Sequence[Tuple[str, str, str, Optional[str], str]] = (
    ("repro.net", "Network", "request", "hops", "self_s"),
    ("repro.net", "Firewall", "evaluate", "firewall_evals", "firewall_s"),
    ("repro.audit", "AuditLog", "emit", "events", "self_s"),
    ("repro.crypto", "SigningKey", "sign", "sign_calls", "sign_s"),
    ("repro.crypto", "HmacKey", "sign", "sign_calls", "sign_s"),
    ("repro.crypto", "VerifyingKey", "verify", "verify_calls", "verify_s"),
    ("repro.crypto", "HmacKey", "verify", "verify_calls", "verify_s"),
    ("repro.crypto", "JwtValidator", "validate",
     "jwt_validate_calls", "jwt_validate_self_s"),
    ("repro.broker", "RbacTokenValidator", "validate",
     "rbac_validate_calls", "rbac_validate_self_s"),
    ("repro.broker", "TokenService", "mint", "tokens_minted", "mint_s"),
    ("repro.ids", "IdFactory", "next", "calls", "self_s"),
    ("repro.ids", "IdFactory", "secret", "calls", "self_s"),
    ("repro.ids", "IdFactory", "jti", "calls", "self_s"),
    ("repro.telemetry", "Telemetry", "observe_hop",
     "hop_obs_calls", "hop_obs_self_s"),
    ("repro.telemetry", "SloMonitor", "record", "slo_calls", "slo_s"),
    ("repro.telemetry", "Tracer", "start_trace", "span_calls", "span_s"),
    ("repro.telemetry", "Tracer", "start_span", "span_calls", "span_s"),
    ("repro.telemetry", "Tracer", "end", "span_calls", "span_s"),
    ("repro.telemetry", "Tracer", "record", "span_calls", "span_s"),
    ("repro.telemetry", "ProvenanceLedger", "record",
     "provenance_records", "provenance_s"),
    ("repro.policy", "PolicyEngine", "evaluate", "evals", "self_s"),
    # no Service lives in repro.oidc (the broker and the IdPs subclass
    # OidcProvider from their own layers); the layer's own work on a
    # request path is the user agent driving a redirect chain
    ("repro.oidc", "UserAgent", "navigate", "requests", "self_s"),
    ("repro.resilience", "Resilience", "call", "kit_calls", "kit_self_s"),
    ("repro.resilience", "ServiceJournal", "append",
     "journal_appends", "journal_append_s"),
    ("repro.resilience", "ServiceJournal", "snapshot",
     "snapshots", "snapshot_s"),
    ("repro.resilience", "AdmissionController", "admit",
     "admit_calls", "admit_s"),
    ("repro.scale", "TtlCache", "get_or_load",
     "cache_lookups", "cache_self_s"),
    ("repro.authz", "AuthzGuard", "check", "guard_checks", "guard_s"),
    ("repro.authz", "SessionRegistry", "track",
     "grants_tracked", "registry_s"),
    ("repro.authz", "SessionRegistry", "close", None, "registry_s"),
    ("repro.federation.directory", "ShardedAccountRegistry",
     "register_batch", None, "register_s"),
    ("repro.federation.directory", "ShardedAccountRegistry",
     "find", None, "lookup_s"),
    ("repro.federation.directory", "ShardedMetadataStore",
     "get", None, "lookup_s"),
    ("repro.federation.directory", "ShardedTier",
     "add_shard", None, "migrate_s"),
    ("repro.federation.directory", "Migration", "step", None, "migrate_s"),
)

# Served requests: one span per ``handle`` call on every Service subclass;
# metrics are ``<layer>.requests`` / ``<layer>.self_s`` except where the
# issue names them otherwise.  Pool workers re-dispatch to their origin, so
# they add self time to their tier but are not counted as requests again.
_HANDLE_METRICS: Dict[str, Tuple[Optional[str], str]] = {
    "LoadBalancer": ("scale.lb_requests", "scale.lb_self_s"),
    "ReplicaWorker": (None, "scale.lb_self_s"),
    "RegionWorker": (None, "region.self_s"),
}

# Every per-layer metric the benchmark reports, in report order.
METRICS: Sequence[Tuple[str, str]] = (
    ("net.hops", "count"), ("net.self_s", "s"),
    ("net.firewall_evals", "count"), ("net.firewall_s", "s"),
    ("audit.events", "count"), ("audit.self_s", "s"),
    ("crypto.sign_calls", "count"), ("crypto.sign_s", "s"),
    ("crypto.verify_calls", "count"), ("crypto.verify_s", "s"),
    ("crypto.jwt_validate_calls", "count"),
    ("crypto.jwt_validate_self_s", "s"),
    ("ids.calls", "count"), ("ids.self_s", "s"),
    ("json.calls", "count"), ("json.self_s", "s"),
    ("telemetry.hop_obs_calls", "count"), ("telemetry.hop_obs_self_s", "s"),
    ("telemetry.slo_calls", "count"), ("telemetry.slo_s", "s"),
    ("telemetry.span_calls", "count"), ("telemetry.span_s", "s"),
    ("telemetry.provenance_records", "count"),
    ("telemetry.provenance_s", "s"),
    ("oidc.requests", "count"), ("oidc.self_s", "s"),
    ("federation.requests", "count"), ("federation.self_s", "s"),
    ("directory.register_users", "count"), ("directory.register_s", "s"),
    ("directory.lookups", "count"), ("directory.lookup_s", "s"),
    ("directory.fallback_probes", "count"),
    ("directory.migrated_keys", "count"), ("directory.migrate_s", "s"),
    ("directory.invariants_s", "s"),
    ("broker.requests", "count"), ("broker.self_s", "s"),
    ("broker.tokens_minted", "count"), ("broker.mint_s", "s"),
    ("broker.rbac_validate_calls", "count"),
    ("broker.rbac_validate_self_s", "s"),
    ("portal.requests", "count"), ("portal.self_s", "s"),
    ("policy.evals", "count"), ("policy.self_s", "s"),
    ("sshca.requests", "count"), ("sshca.self_s", "s"),
    ("tunnels.requests", "count"), ("tunnels.self_s", "s"),
    ("cluster.requests", "count"), ("cluster.self_s", "s"),
    ("siem.requests", "count"), ("siem.self_s", "s"),
    ("resilience.kit_calls", "count"), ("resilience.kit_self_s", "s"),
    ("resilience.retries", "count"),
    ("resilience.journal_appends", "count"),
    ("resilience.journal_append_s", "s"),
    ("resilience.snapshots", "count"), ("resilience.snapshot_s", "s"),
    ("resilience.admit_calls", "count"), ("resilience.admit_s", "s"),
    ("scale.lb_requests", "count"), ("scale.lb_self_s", "s"),
    ("scale.cache_lookups", "count"), ("scale.cache_hits", "count"),
    ("scale.cache_self_s", "s"),
    ("region.requests", "count"), ("region.self_s", "s"),
    ("authz.guard_checks", "count"), ("authz.guard_s", "s"),
    ("authz.grants_tracked", "count"), ("authz.registry_s", "s"),
    ("trace.spans", "count"), ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

OP = "op"  # name of the root span the driver opens around each op


def layer_of(module: str) -> str:
    """``repro.broker.tokens`` -> ``broker``; stdlib ``json`` -> ``json``."""
    if module.startswith("repro.federation.directory"):
        return "directory"
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else parts[0]


class Recorder:
    """In-memory span columns for one traced round.

    ``op`` is the index of the op being timed, or -1 outside the timed
    phase — the wrappers pass straight through then.
    """

    def __init__(self) -> None:
        self.names: List[str] = []        # interned span names, by id
        self._ids: Dict[str, int] = {}
        # name id -> (count metric or None, time metric or None)
        self.metrics_of: List[Tuple[Optional[str], Optional[str]]] = []
        self.name_id: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.op_of: List[int] = []
        self.op = -1
        self._open = -1                   # innermost open span
        self.cache_hits = 0
        self.intern(OP, None, None)

    def intern(self, name: str, count: Optional[str],
               time: Optional[str]) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.metrics_of.append((count, time))
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._open = i
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open = self.parent[i]

    def begin_op(self, index: int) -> int:
        self.op = index
        return self.open(0)

    def end_op(self, i: int) -> None:
        self.close(i)
        self.op = -1

    # ------------------------------------------------------------------
    def write_csv(self, path) -> None:
        """Raw spans, one row each: what the aggregates were made from."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "layer", "start_s", "end_s",
                          "parent", "op"])
            for i, nid in enumerate(self.name_id):
                time_metric = self.metrics_of[nid][1]
                out.writerow([
                    i, self.names[nid],
                    time_metric.split(".")[0] if time_metric else "",
                    repr(self.start[i]), repr(self.end[i]),
                    self.parent[i], self.op_of[i]])


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Duration minus the time covered by direct children, per span.

    Children of one span never overlap (one thread), so the covered
    time is the plain sum of their durations.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def aggregate(rec: Recorder, scale: Optional[Sequence[float]] = None,
              ops: Optional[range] = None) -> Dict[str, float]:
    """Counts and summed self time per metric, over all ops or ``ops``.

    ``scale[op]`` multiplies the self time of every span of that op (the
    round passes the op's conversion to reference-box time).  Time under
    a span with no time metric of its own (the op root, or a served
    request of a layer the report does not name) is unattributed.
    """
    out: Dict[str, float] = {name: 0 for name, _ in METRICS}
    own = self_times(rec.start, rec.end, rec.parent)
    spans = 0
    for i, nid in enumerate(rec.name_id):
        op = rec.op_of[i]
        if ops is not None and op not in ops:
            continue
        spans += 1
        count, time = rec.metrics_of[nid]
        if count in out:
            out[count] += 1
        out[time if time in out else "trace.unattributed_s"] += (
            own[i] * scale[op] if scale else own[i])
    out["trace.spans"] = spans
    if ops is None:
        out["scale.cache_hits"] = rec.cache_hits
    return out


# ----------------------------------------------------------------------
# installing and removing the wrappers
# ----------------------------------------------------------------------
def _span_wrapper(rec: Recorder, fn: Callable, nid: int) -> Callable:
    def traced(*args, **kwargs):
        if rec.op < 0:
            return fn(*args, **kwargs)
        i = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)
    traced.__wrapped__ = fn
    return traced


def _handle_wrapper(rec: Recorder, fn: Callable) -> Callable:
    """``Service.handle`` serves every subclass that does not override
    it, so the span's name and layer come from ``type(self)``."""
    ids: Dict[type, int] = {}

    def traced(self, request):
        if rec.op < 0:
            return fn(self, request)
        cls = type(self)
        nid = ids.get(cls)
        if nid is None:
            layer = layer_of(cls.__module__)
            count, time = _HANDLE_METRICS.get(
                cls.__name__, (f"{layer}.requests", f"{layer}.self_s"))
            nid = ids[cls] = rec.intern(f"{cls.__name__}.handle", count, time)
        i = rec.open(nid)
        try:
            return fn(self, request)
        finally:
            rec.close(i)
    traced.__wrapped__ = fn
    return traced


def _cache_wrapper(rec: Recorder, fn: Callable, nid: int) -> Callable:
    def traced(self, *args, **kwargs):
        if rec.op < 0:
            return fn(self, *args, **kwargs)
        i = rec.open(nid)
        try:
            value = fn(self, *args, **kwargs)
        finally:
            rec.close(i)
        rec.cache_hits += bool(self.last_hit)
        return value
    traced.__wrapped__ = fn
    return traced


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


@contextmanager
def installed(rec: Recorder) -> Iterator[None]:
    """Wrap every target for the duration of the ``with`` block.

    Enter before ``build_isambard`` so that bound methods the deployment
    captures at construction are the wrappers; on exit every attribute
    is the original object again.
    """
    undo: List[Tuple[object, str, object]] = []

    def replace(owner: object, attr: str, wrapper: Callable) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    try:
        importlib.import_module("repro.core")  # defines every Service subclass
        for owner, cls_name, method, count, time in TARGETS:
            cls = getattr(importlib.import_module(owner), cls_name)
            layer = layer_of(cls.__module__)
            nid = rec.intern(f"{cls_name}.{method}",
                             f"{layer}.{count}" if count else None,
                             f"{layer}.{time}")
            make = _cache_wrapper if method == "get_or_load" else _span_wrapper
            replace(cls, method, make(rec, vars(cls)[method], nid))
        for cls in _subclasses(importlib.import_module("repro.net").Service):
            if "handle" in vars(cls):
                replace(cls, "handle", _handle_wrapper(rec, vars(cls)["handle"]))
        for fn_name in ("dumps", "loads"):
            nid = rec.intern(f"json.{fn_name}", "json.calls", "json.self_s")
            replace(json, fn_name,
                    _span_wrapper(rec, getattr(json, fn_name), nid))
        yield
    finally:
        while undo:
            owner, attr, original = undo.pop()
            setattr(owner, attr, original)
