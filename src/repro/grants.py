"""The live grants one holder has issued.

Zero-trust tenet 3 grants access per session, and continuous
verification needs the system to know exactly what it has granted.
Every grant holder — the token service, an SSO session store, the SSH
CA, a login node, Zenith, Jupyter, a scheduler — keeps its live grants
in one :class:`GrantTable`: its ``grants`` reads the table and its
``sever`` ends what the table holds for a subject, so what a holder
lists is what it severs.  The table holds references to the holder's
records, not copies; a record outlives its entry wherever the holder's
history keeps it.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Tuple

__all__ = ["GrantTable"]


class GrantTable:
    """Grant id → ``(id, subject, expires_at, record)``, indexed by
    subject and ordered by expiry.

    An entry leaves when it ends (:meth:`end`) or once ``now`` reaches
    its ``expires_at``: no read returns it after that, and the next
    :meth:`live` drops it.  One added with ``expires_at=None`` (a job)
    only ends.  Every id is added once; reads take ``now`` from a clock
    that never runs backwards.
    """

    def __init__(self) -> None:
        self._live: Dict[Hashable, tuple] = {}
        self._by_subject: Dict[str, Dict[Hashable, tuple]] = {}
        self._expiry: List[Tuple[float, Hashable]] = []

    def add(self, gid: Hashable, subject: str,
            expires_at: Optional[float], record: object) -> None:
        entry = self._live[gid] = (gid, subject, expires_at, record)
        self._by_subject.setdefault(subject, {})[gid] = entry
        if expires_at is not None:
            heapq.heappush(self._expiry, (expires_at, gid))

    def end(self, *gids: Hashable) -> None:
        for gid in gids:
            entry = self._live.pop(gid, None)
            if entry is not None:
                del self._by_subject[entry[1]][gid]

    def live(self, now: float):
        """Every entry live at ``now``, in the order they were added."""
        while self._expiry and self._expiry[0][0] <= now:
            self.end(heapq.heappop(self._expiry)[1])
        return iter(self._live.values())

    def of(self, subject: str, now: float) -> List[tuple]:
        """``subject``'s entries live at ``now``, in the order they were
        added (a list: the caller may end them as it goes)."""
        return [entry for entry in self._by_subject.get(subject, {}).values()
                if entry[2] is None or now < entry[2]]

    def grants(self, kind: str, now: float, skip=()):
        """``(kind, id, subject, expires_at, False)`` for every entry
        live at ``now`` whose subject is not in ``skip``: a user's
        grants, as the session registry reads them."""
        return ((kind, gid, subject, expires_at, False)
                for gid, subject, expires_at, _ in self.live(now)
                if subject not in skip)
