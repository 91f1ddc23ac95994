"""The directory's placement ring: consistent hashing over virtual nodes.

Account and metadata keys map to shards via a classic virtual-node hash
ring (sha256, so placement is identical across processes, runs and
Python versions — no Python hash randomisation, and only the public
``hashlib``).  Key movement on a join is minimal by construction: only
the keys whose ring arc lands on the joining member move.  Membership is
the caller's to keep (:class:`~repro.federation.directory.sharding.ShardedTier`
refuses a duplicate shard before it touches the ring).
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from typing import Iterable, List

__all__ = ["HashRing"]

_digest = hashlib.sha256
# a ring position is the first eight bytes of a sha256 digest, big-endian
# — the same integer as ``int.from_bytes(digest[:8], "big")``, read
# without slicing the digest
_first_u64 = struct.Struct(">Q").unpack_from


class HashRing:
    """Deterministic consistent-hash ring, ``vnodes`` points per member."""

    def __init__(self, members: Iterable[str] = (), *,
                 vnodes: int = 64) -> None:
        self.vnodes = vnodes
        # the sorted vnodes' positions, for the bisect, and their owners,
        # with the first owner repeated at the end so that a key past the
        # last vnode wraps to the first without a modulo
        self._positions: List[int] = []
        self._owners: List[str] = []
        for member in members:
            self.add(member)

    def add(self, member: str) -> None:
        # zip stops at the last position: the repeated owner stays out
        ring = sorted([*zip(self._positions, self._owners),
                       *((_first_u64(_digest(f"{member}#{v}".encode())
                                     .digest())[0], member)
                         for v in range(self.vnodes))])
        self._positions = [pos for pos, _ in ring]
        self._owners = [owner for _, owner in ring] + [ring[0][1]]

    def locate(self, key: str) -> str:
        """The ring owner of ``key``: one digest and one bisect to the first
        vnode clockwise of it (a vnode exactly on the key's position
        counts as behind it).  A ring with no members has no owner to
        give (``IndexError``)."""
        return self._owners[bisect_right(
            self._positions, _first_u64(_digest(key.encode()).digest())[0])]
