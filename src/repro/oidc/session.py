"""Server-side SSO sessions with per-session expiry and revocation.

Zero-trust tenet 3 — "access to individual enterprise resources is
granted on a per-session basis" — makes sessions first-class: every
provider in the stack (MyAccessID, the broker, the admin IdP) holds a
:class:`SessionStore`, sessions are time-limited, and the kill switch can
revoke them instantly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.clock import SimClock
from repro.grants import GrantTable
from repro.ids import IdFactory

__all__ = ["Session", "SessionStore"]


@dataclass
class Session:
    """An authenticated principal's live session at one provider."""

    sid: str
    subject: str
    claims: Dict[str, object]
    auth_time: float
    expires_at: float
    revoked: bool = False
    amr: List[str] = field(default_factory=list)  # authentication methods used


class SessionStore:
    """Sessions keyed by unguessable ``sid`` cookie values."""

    def __init__(self, clock: SimClock, ids: IdFactory, *, ttl: float = 3600.0) -> None:
        self.clock = clock
        self.ids = ids
        self.ttl = ttl
        self.wipe()

    def create(
        self,
        subject: str,
        claims: Optional[Dict[str, object]] = None,
        *,
        amr: Optional[List[str]] = None,
        ttl: Optional[float] = None,
    ) -> Dict[str, object]:
        """Draw a fresh sid and build a new session's fields, as the
        provider journals them; :meth:`restore` stores the session."""
        sid = self.ids.secret(24)
        now = self.clock.now()
        return {
            "sid": sid,
            "subject": subject,
            "claims": dict(claims or {}),
            "auth_time": now,
            "expires_at": now + (ttl if ttl is not None else self.ttl),
            "revoked": False,
            "amr": list(amr or []),
        }

    def get(self, sid: Optional[str]) -> Optional[Session]:
        """Return the session if it exists, unrevoked and unexpired."""
        session = self._sessions.get(sid)
        if (session is None or session.revoked
                or self.clock.now() >= session.expires_at):
            return None
        return session

    def revoke(self, sid: str) -> bool:
        session = self._sessions.get(sid)
        if session is None:
            return False
        session.revoked = True
        self._granted.end(sid)
        return True

    def live_sids(self, subject: str) -> List[str]:
        """The sids of ``subject``'s live sessions: what a journaled
        revocation names, so a replay at a later time ends the same."""
        return [e[0] for e in self._granted.of(subject, self.clock.now())]

    def revoke_subject(self, subject: str) -> int:
        """Sever every live session of ``subject`` (kill switch path);
        returns how many."""
        return sum(map(self.revoke, self.live_sids(subject)))

    def grants(self, now: float, skip=()):
        """Every live session, as the session registry reads it."""
        return self._granted.grants("sso-session", now, skip)

    # ------------------------------------------------------------------
    # durability support (the owning provider's journal)
    # ------------------------------------------------------------------
    def export_sessions(self) -> List[Session]:
        """Every stored session, including revoked/expired ones — the
        journal keeps full fidelity so replay is exact."""
        return list(self._sessions.values())

    def restore(self, session: Session) -> None:
        """Store a session exactly as journaled (sid preserved)."""
        self._sessions[session.sid] = session
        if not session.revoked:
            self._granted.add(session.sid, session.subject,
                              session.expires_at, session)

    def wipe(self) -> None:
        self._sessions: Dict[str, Session] = {}
        # the live sessions by subject; the journal holds every session
        # in _sessions
        self._granted = GrantTable()
