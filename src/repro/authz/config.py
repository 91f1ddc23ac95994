"""Constants of the continuous-authorization subsystem."""

from __future__ import annotations

__all__ = ["SURFACES", "TRUST_DOMAIN", "STALENESS_BOUND", "REEVAL_INTERVAL",
           "RETRY_INTERVAL", "TTR_BOUND", "MIN_LOA"]

# The four enforcement surfaces every revocation intent fans out to, in
# the order the pipeline drives them.  "tokens" first: once the broker's
# tokens and sessions are dead, nothing can mint its way back onto the
# other surfaces while they are being swept.
SURFACES = ("tokens", "ssh", "tunnels", "compute")

# SPIFFE trust domain canonical identities are minted under
TRUST_DOMAIN = "isambard.example"
# How long an enforcement surface may keep admitting on the last good PDP
# heartbeat once the PDP goes unreachable.  Past the bound every guarded
# surface *fails closed* (denies) rather than serving a stale ALLOW — the
# same contract as the multi-region lag watchdog.
STALENESS_BOUND = 30.0
# Cadence of the continuous re-evaluation loop that re-checks every live
# grant against the policy engine
REEVAL_INTERVAL = 10.0
# How often the pipeline re-drives revocation intents whose enforcement
# surfaces failed or are stuck
RETRY_INTERVAL = 2.0
# The advertised time-to-revoke bound under no faults: a revocation
# intent must reach all four surfaces within this many simulated seconds
# (benches assert TTR p99 against it)
TTR_BOUND = 60.0
# Assurance floor for *continuing* sessions: when a subject's level of
# assurance drops below this, the re-evaluation loop tears their live
# grants down
MIN_LOA = 1
