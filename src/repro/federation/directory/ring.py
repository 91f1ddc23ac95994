"""The directory's placement ring: consistent hashing over virtual nodes.

Account and metadata keys map to shards via a classic virtual-node hash
ring (sha256, so placement is identical across processes and runs — no
Python hash randomisation).  Key movement on membership change is
minimal by construction: only the keys whose ring arc lands on the
joining/leaving member move.  Membership is the caller's to keep
(:class:`~repro.federation.directory.sharding.ShardedTier` refuses a
duplicate or unknown shard before it touches the ring).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, List, Tuple

__all__ = ["HashRing"]


def _h(data: str) -> int:
    return int.from_bytes(hashlib.sha256(data.encode()).digest()[:8], "big")


class HashRing:
    """Deterministic consistent-hash ring, ``vnodes`` points per member."""

    def __init__(self, members: Iterable[str] = (), *,
                 vnodes: int = 64) -> None:
        self.vnodes = vnodes
        # the sorted vnodes, and their positions alone for the bisect
        self._ring: List[Tuple[int, str]] = []
        self._positions: List[int] = []
        for member in members:
            self.add(member)

    def add(self, member: str) -> None:
        self._set_ring(self._ring + [(_h(f"{member}#{v}"), member)
                                     for v in range(self.vnodes)])

    def remove(self, member: str) -> None:
        self._set_ring([vnode for vnode in self._ring if vnode[1] != member])

    def _set_ring(self, vnodes: List[Tuple[int, str]]) -> None:
        self._ring = sorted(vnodes)
        self._positions = [pos for pos, _ in self._ring]

    def locate(self, key: str) -> str:
        """The ring owner of ``key``: one hash and one bisect to the first
        vnode clockwise of it (a vnode exactly on the key's position
        counts as behind it)."""
        if not self._ring:
            raise RuntimeError("hash ring has no members")
        return self._ring[
            bisect_right(self._positions, _h(key)) % len(self._ring)][1]
