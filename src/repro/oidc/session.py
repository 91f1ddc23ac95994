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

    def active(self, now: float) -> bool:
        return not self.revoked and now < self.expires_at


class SessionStore:
    """Sessions keyed by unguessable ``sid`` cookie values."""

    def __init__(self, clock: SimClock, ids: IdFactory, *, ttl: float = 3600.0) -> None:
        self.clock = clock
        self.ids = ids
        self.ttl = ttl
        self._sessions: Dict[str, Session] = {}

    def create(
        self,
        subject: str,
        claims: Optional[Dict[str, object]] = None,
        *,
        amr: Optional[List[str]] = None,
        ttl: Optional[float] = None,
    ) -> Session:
        sid = self.ids.secret(24)
        now = self.clock.now()
        session = Session(
            sid=sid,
            subject=subject,
            claims=dict(claims or {}),
            auth_time=now,
            expires_at=now + (ttl if ttl is not None else self.ttl),
            amr=list(amr or []),
        )
        self._sessions[sid] = session
        return session

    def get(self, sid: Optional[str]) -> Optional[Session]:
        """Return the session if it exists and is still active."""
        if sid is None:
            return None
        session = self._sessions.get(sid)
        if session is None or not session.active(self.clock.now()):
            return None
        return session

    def revoke(self, sid: str) -> bool:
        session = self._sessions.get(sid)
        if session is None:
            return False
        session.revoked = True
        return True

    def revoke_subject(self, subject: str) -> int:
        """Sever every session belonging to ``subject`` (kill switch path)."""
        n = 0
        for session in self._sessions.values():
            if session.subject == subject and not session.revoked:
                session.revoked = True
                n += 1
        return n

    def active_sessions(self) -> List[Session]:
        now = self.clock.now()
        return [s for s in self._sessions.values() if s.active(now)]

    # ------------------------------------------------------------------
    # durability support (journal replay at the owning provider)
    # ------------------------------------------------------------------
    def export_sessions(self) -> List[Session]:
        """Every stored session, including revoked/expired ones — the
        journal keeps full fidelity so replay is exact."""
        return list(self._sessions.values())

    def restore(self, session: Session) -> None:
        """Re-insert a session exactly as journaled (sid preserved)."""
        self._sessions[session.sid] = session

    def wipe(self) -> None:
        self._sessions = {}
