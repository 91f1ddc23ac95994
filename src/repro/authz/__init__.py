"""Continuous authorization: identity graph, session registry,
revocation pipeline, and the re-evaluation loop.

This package closes the paper's revocation gap: federated SSO makes it
easy to *grant* access across IdP, SSH CA, Zenith and the schedulers,
but until a single pipeline owned teardown, revoking meant chasing each
surface by hand.  Here every live grant is read off its surface under
one canonical SPIFFE identity, one journaled pipeline fans ``revoke()`` out
to all four enforcement surfaces with bounded time-to-revoke, and a
continuous loop re-checks every session against policy — failing closed
when the decision point is unreachable past the staleness bound.
"""

from dataclasses import dataclass

from repro.authz.authorizer import (
    AuthzGuard,
    ContinuousAuthorizer,
    PolicyDecisionPoint,
)
from repro.authz.config import (
    MIN_LOA,
    REEVAL_INTERVAL,
    RETRY_INTERVAL,
    STALENESS_BOUND,
    SURFACES,
    TRUST_DOMAIN,
    TTR_BOUND,
)
from repro.authz.identity import IdentityGraph
from repro.authz.pipeline import RevocationIntent, RevocationPipeline
from repro.authz.registry import Grant, SessionRegistry

__all__ = [
    "SURFACES",
    "TRUST_DOMAIN",
    "STALENESS_BOUND",
    "REEVAL_INTERVAL",
    "RETRY_INTERVAL",
    "TTR_BOUND",
    "MIN_LOA",
    "AuthzGuard",
    "AuthzRuntime",
    "ContinuousAuthorizer",
    "Grant",
    "IdentityGraph",
    "PolicyDecisionPoint",
    "RevocationIntent",
    "RevocationPipeline",
    "SessionRegistry",
]


@dataclass
class AuthzRuntime:
    """Everything the deployment wires for continuous authorization."""

    graph: IdentityGraph
    registry: SessionRegistry
    pipeline: RevocationPipeline
    pdp: PolicyDecisionPoint
    guard: AuthzGuard
    authorizer: ContinuousAuthorizer
