"""Deterministic identifier and secret generation.

All identifiers in the simulation (user ids, session ids, tunnel ids,
``jti`` claims...) come from an :class:`IdFactory` seeded at deployment
construction, so two runs with the same seed produce byte-identical audit
trails.  Secrets use the same RNG but are long enough to be unguessable
within the simulation's threat model.
"""

from __future__ import annotations

import random
from typing import Dict, List

__all__ = ["IdFactory"]

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
_SIZE = len(_ALPHABET)
_BITS = _SIZE.bit_length()


class IdFactory:
    """Produces sequential readable ids and random-looking secrets.

    Parameters
    ----------
    seed:
        Seed for the internal :class:`random.Random`.  The factory never
        touches the global RNG state.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._counters: Dict[str, int] = {}

    def next(self, prefix: str) -> str:
        """Sequential id like ``user-0007``, namespaced by ``prefix``."""
        n = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = n
        return f"{prefix}-{n:04d}"

    def secret(self, nchars: int = 32) -> str:
        """A random token string of ``nchars`` characters."""
        if nchars <= 0:
            raise ValueError("nchars must be positive")
        # the stream ``rng.choice(_ALPHABET)`` draws per character —
        # ``_BITS`` at a time, values past the alphabet rejected — so
        # seeded runs mint the ids and secrets they always did
        getrandbits = self._rng.getrandbits
        chars: List[str] = []
        while len(chars) < nchars:
            r = getrandbits(_BITS)
            if r < _SIZE:
                chars.append(_ALPHABET[r])
        return "".join(chars)

    def jti(self) -> str:
        """A unique token identifier (sequential prefix + random suffix)."""
        return f"{self.next('jti')}.{self.secret(8)}"

    def rng(self) -> random.Random:
        """Expose the underlying RNG for components that need sampling."""
        return self._rng
