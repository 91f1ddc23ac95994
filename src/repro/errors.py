"""Exception taxonomy for the reproduction.

The hierarchy mirrors the layers of the architecture: token/crypto errors,
federation errors, network/segmentation errors, policy errors and resource
errors.  Services convert these into denial responses; the audit log and
the SIEM observe them.  Catch :class:`ReproError` to handle anything the
library can raise deliberately.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "AuthenticationError",
    "AuthorizationError",
    "MFARequired",
    "MFAFailed",
    "TokenError",
    "SignatureInvalid",
    "TokenExpired",
    "TokenNotYetValid",
    "TokenRevoked",
    "AudienceMismatch",
    "IssuerMismatch",
    "ClaimMissing",
    "FederationError",
    "AssuranceTooLow",
    "IdentityNotRegistered",
    "RegistrationError",
    "MetadataStale",
    "NetworkError",
    "ConnectionBlocked",
    "EncryptionRequired",
    "ServiceUnavailable",
    "FaultInjected",
    "ShardUnavailable",
    "CircuitOpen",
    "AttemptTimeout",
    "RateLimited",
    "DeadlineExceeded",
    "CertificateError",
    "PolicyViolation",
    "KillSwitchActive",
    "EpochFenced",
    "RecoveryError",
    "SchedulerError",
    "QuotaExceeded",
    "ConfigurationError",
]


class ReproError(Exception):
    """Base class for all deliberate errors raised by this library."""


# ---------------------------------------------------------------------------
# authentication / authorisation
# ---------------------------------------------------------------------------
class AuthenticationError(ReproError):
    """The caller's identity could not be established."""


class AuthorizationError(ReproError):
    """The caller is authenticated but not permitted to do this."""


class MFARequired(AuthenticationError):
    """The flow requires a second factor that was not presented."""


class MFAFailed(AuthenticationError):
    """A second factor was presented but did not verify."""


# ---------------------------------------------------------------------------
# tokens and signatures
# ---------------------------------------------------------------------------
class TokenError(ReproError):
    """Base class for problems with signed tokens."""


class SignatureInvalid(TokenError):
    """The cryptographic signature failed verification."""


class TokenExpired(TokenError):
    """The token's ``exp`` is in the past (beyond leeway)."""


class TokenNotYetValid(TokenError):
    """The token's ``nbf`` is in the future (beyond leeway)."""


class TokenRevoked(TokenError):
    """The token was explicitly revoked (kill switch, user removal...)."""


class AudienceMismatch(TokenError):
    """The token was minted for a different service."""


class IssuerMismatch(TokenError):
    """The token was minted by an issuer this service does not trust."""


class ClaimMissing(TokenError):
    """A claim the validator requires is absent."""


# ---------------------------------------------------------------------------
# federation
# ---------------------------------------------------------------------------
class FederationError(ReproError):
    """Base class for identity-federation problems."""


class AssuranceTooLow(FederationError):
    """The authenticating IdP does not meet the required level of assurance."""


class IdentityNotRegistered(FederationError):
    """No account-registry entry exists for this identity."""


class RegistrationError(FederationError):
    """Account registration failed (e.g. authorisation-led registration
    rejected an identity with no granted role)."""


class MetadataStale(FederationError):
    """The IdP's federation metadata is past its validity window.

    Signed metadata documents carry an expiry precisely so a consumer
    that has lost contact with its feed cannot keep trusting old keys
    forever; the login path fails *closed* on an expired entry rather
    than validating an assertion against a verifier that may have been
    rotated or revoked since."""


# ---------------------------------------------------------------------------
# network / segmentation
# ---------------------------------------------------------------------------
class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class ConnectionBlocked(NetworkError):
    """The firewall/segmentation policy denies this flow."""


class EncryptionRequired(NetworkError):
    """A plaintext message attempted to cross a boundary that mandates TLS."""


class ServiceUnavailable(NetworkError):
    """The destination endpoint exists but is not serving (down/patching)."""


class FaultInjected(ServiceUnavailable):
    """The chaos harness failed this message (an outage or a brownout).
    Subclasses :class:`ServiceUnavailable` so clients handle
    injected faults exactly as they would a real dependency outage."""


class ShardUnavailable(ServiceUnavailable):
    """The directory shard owning this key is down.

    Sharded tiers fail *closed*: a lookup whose owning shard is
    unreachable is refused rather than answered from a possibly stale
    or partial view — the other shards keep serving their own key
    ranges, so the blast radius stays one shard wide."""


class CircuitOpen(ServiceUnavailable):
    """A client-side circuit breaker is shedding load to this destination.
    The request was never sent; retrying immediately is pointless."""


class AttemptTimeout(ServiceUnavailable):
    """One attempt exceeded its adaptive per-attempt deadline and the
    caller abandoned it.  The transport raises this *before delivery*
    (the slow hop never reached the destination), so a retry or a hedge
    to another replica can never replay a partially applied request.
    Subclasses :class:`ServiceUnavailable`: the attempt failed, the
    *request* may still succeed elsewhere — unlike
    :class:`DeadlineExceeded`, which ends the request everywhere."""


class RateLimited(NetworkError):
    """An admission controller or the edge throttled this request.

    ``retry_after`` is the server-supplied hint, in seconds, after which
    a retry has a chance of being admitted; retry machinery honours it
    instead of its own exponential backoff.  ``service`` names the
    component that shed the request and ``priority`` its traffic class,
    so the network audit trail can record *what* was shed where.
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: "float | None" = None,
        service: str = "",
        priority: str = "",
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.service = service
        self.priority = priority


class DeadlineExceeded(NetworkError):
    """The request's deadline passed before (or while) it could be served.

    Raised by the transport for already-expired queued work so the
    destination never burns capacity on a request whose caller has given
    up.  Deliberately *not* a :class:`ServiceUnavailable`: retrying an
    expired request is pointless, so the retry layer must let it
    propagate immediately.
    """

    def __init__(self, message: str, *, deadline: "float | None" = None,
                 priority: str = "") -> None:
        super().__init__(message)
        self.deadline = deadline
        self.priority = priority


# ---------------------------------------------------------------------------
# certificates / policy / resources
# ---------------------------------------------------------------------------
class CertificateError(ReproError):
    """An SSH-style certificate failed validation."""


class PolicyViolation(ReproError):
    """A dynamic-policy evaluation denied the request."""


class KillSwitchActive(ReproError):
    """The kill switch for this service or principal is engaged."""


class EpochFenced(AuthorizationError):
    """A deposed writer tried to commit to a journal it no longer owns.

    Raised by the durable store when an append presents a stale fencing
    epoch — the split-brain guard: after a failover promotes the standby,
    the old primary can keep running but can no longer mint anything,
    because every mutation must clear the journal first.
    """


class RecoveryError(ReproError):
    """Post-recovery invariant verification failed (broken audit chain,
    non-monotonic CA serial, revoked credential resurrected...)."""


class SchedulerError(ReproError):
    """Job scheduler rejected the request (bad partition, account...)."""


class QuotaExceeded(ReproError):
    """Project resource/time allocation exhausted."""


class ConfigurationError(ReproError):
    """The deployment was wired in an unsupported way."""
