"""Consistent-hash ring with bounded loads.

The affinity policy of the load balancer: session and tunnel keys map
to replicas via a classic virtual-node hash ring (sha256, so placement
is identical across processes and runs — no Python hash randomisation),
with the *bounded loads* refinement from Mirrokni/Thorup/Zadimoghaddam:
no replica may carry more than ``ceil(c · total/n)`` outstanding
assignments; an overloaded candidate is skipped and the walk continues
clockwise, which preserves both the cap and (mostly) the affinity.

Key movement on membership change is minimal by construction: only the
keys whose ring arc lands on the joining/leaving node move.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["BoundedLoadRing"]


def _h(data: str) -> int:
    return int.from_bytes(hashlib.sha256(data.encode()).digest()[:8], "big")


class BoundedLoadRing:
    """Deterministic consistent-hash ring with a bounded-load cap.

    Parameters
    ----------
    vnodes:
        Virtual nodes per member — smooths the arc distribution.
    bound:
        Load-balance factor ``c`` (> 1).  A member's live load may not
        exceed ``ceil(c * (total_load + 1) / members)``.
    """

    def __init__(self, members: Iterable[str] = (), *,
                 vnodes: int = 64, bound: float = 1.25) -> None:
        if bound <= 1.0:
            raise ValueError("bound factor must exceed 1.0")
        self.vnodes = vnodes
        self.bound = bound
        self._members: List[str] = []
        # the sorted vnodes, and their positions alone for the bisect
        self._ring: List[Tuple[int, str]] = []
        self._positions: List[int] = []
        self._load: Dict[str, int] = {}
        for member in members:
            self.add(member)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def members(self) -> List[str]:
        return list(self._members)

    def add(self, member: str) -> None:
        if member in self._load:
            raise ValueError(f"member {member!r} already on the ring")
        self._members.append(member)
        self._load[member] = 0
        self._set_ring(self._ring + [(_h(f"{member}#{v}"), member)
                                     for v in range(self.vnodes)])

    def remove(self, member: str) -> None:
        if member not in self._load:
            raise KeyError(member)
        self._members.remove(member)
        del self._load[member]
        self._set_ring([vnode for vnode in self._ring if vnode[1] != member])

    def _set_ring(self, vnodes: List[Tuple[int, str]]) -> None:
        self._ring = sorted(vnodes)
        self._positions = [pos for pos, _ in self._ring]

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def capacity(self) -> int:
        """Per-member live-load cap at the current total load."""
        total = sum(self._load.values())
        return max(1, math.ceil(self.bound * (total + 1) / len(self._load)))

    def locate(self, key: str) -> str:
        """Pure placement: the ring owner of ``key``, ignoring loads —
        one hash and one bisect to the first vnode clockwise of it (a
        vnode exactly on the key's position counts as behind it)."""
        if not self._ring:
            raise RuntimeError("hash ring has no members")
        return self._ring[
            bisect_right(self._positions, _h(key)) % len(self._ring)][1]

    def assign(self, key: str) -> str:
        """Place ``key`` honouring the bounded-load cap and take a slot.

        Callers must :meth:`release` the member when the work finishes.
        """
        member = self._walk(key, self.capacity())
        if member is None:  # every member at cap — take the pure owner
            member = self.locate(key)
        self._load[member] += 1
        return member

    def take(self, member: str) -> None:
        """Count one live assignment against ``member`` (external placement)."""
        if member not in self._load:
            raise KeyError(member)
        self._load[member] += 1

    def release(self, member: str) -> None:
        if self._load.get(member, 0) > 0:
            self._load[member] -= 1

    def load(self, member: str) -> int:
        return self._load.get(member, 0)

    def _walk(self, key: str, cap: int) -> Optional[str]:
        """Clockwise from ``key``, the first member with load under ``cap``."""
        start = bisect_right(self._positions, _h(key))
        for i in range(start, start + len(self._ring)):
            member = self._ring[i % len(self._ring)][1]
            if self._load[member] < cap:
                return member
        return None
