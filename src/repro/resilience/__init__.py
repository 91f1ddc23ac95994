"""Resilience layer: fault injection, retry/backoff, circuit breaking.

The zero-trust control plane treats dependency outages as routine (the
federated IdP is an availability-critical dependency — Prout et al.;
identity-layer resilience bounds zero-trust infrastructure — Avirneni).
This package supplies both halves of that story:

* :mod:`repro.resilience.faults` — a deterministic chaos harness hooked
  into the simulated network;
* :mod:`repro.resilience.retry` / :mod:`repro.resilience.breaker` — the
  client-side machinery that rides through the chaos;

and the deployment threads them through the OIDC, broker, tunnel and
SIEM paths (see ``build_isambard(resilience=...)`` and the graceful-
degradation seams in ``cluster.jupyter``, ``oidc.client``,
``siem.forwarder`` and ``tunnels.zenith``).
"""

from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.durability import (
    Durable,
    DurabilityStore,
    JournalEntry,
    RecoveryReport,
    ServiceJournal,
)
from repro.resilience.failover import FailoverController, FailoverPair
from repro.resilience.faults import Fault, FaultInjector
from repro.resilience.overload import (
    AdmissionController,
    AdmissionPolicy,
    AimdLimiter,
    OverloadConfig,
    Priority,
)
from repro.resilience.retry import (
    Resilience,
    ResilienceMetrics,
    ResilienceRuntime,
    RetryPolicy,
)
from repro.resilience.tail import (
    HedgeBudget,
    OutlierEjector,
    RetryBudget,
    TailConfig,
    TailController,
    hedgeable_request,
)

__all__ = [
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "Durable",
    "DurabilityStore",
    "JournalEntry",
    "RecoveryReport",
    "ServiceJournal",
    "FailoverController",
    "FailoverPair",
    "Fault",
    "FaultInjector",
    "AdmissionController",
    "AdmissionPolicy",
    "AimdLimiter",
    "OverloadConfig",
    "Priority",
    "Resilience",
    "ResilienceMetrics",
    "ResilienceRuntime",
    "RetryPolicy",
    "HedgeBudget",
    "OutlierEjector",
    "RetryBudget",
    "TailConfig",
    "TailController",
    "hedgeable_request",
]
