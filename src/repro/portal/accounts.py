"""Per-project UNIX account registry.

User story 4: "A unique UNIX username is generated for each user's access
to each project to ensure ZTA resource access requirements."  The same
person working on two projects gets two cluster accounts, so a compromise
or revocation is scoped to one project.  Revoked account names are
tombstoned and never reissued — audit trails must stay unambiguous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["UnixAccount", "UnixAccountRegistry"]

_SAFE = re.compile(r"[^a-z0-9]")


@dataclass(frozen=True)
class UnixAccount:
    username: str
    uid: str          # federated identity this account belongs to
    project_id: str
    uid_number: int   # numeric uid on the cluster


class UnixAccountRegistry:
    """Allocates unique, never-reused cluster usernames."""

    def __init__(self, *, first_uid_number: int = 20000) -> None:
        self.wipe()
        self._next_uid_number = first_uid_number

    @staticmethod
    def _sanitise(preferred: str) -> str:
        cleaned = _SAFE.sub("", preferred.lower())[:12]
        return cleaned or "user"

    def allocate(self, uid: str, project_id: str, preferred: str) -> Dict[str, object]:
        """The fields of (uid, project)'s account: its live one's, or a
        never-used name and the next uid number.  Nothing is stored —
        :meth:`restore_account` inserts the account."""
        existing = self._by_key.get((uid, project_id))
        if existing is not None and existing not in self._tombstones:
            return dict(vars(self._by_username[existing]))
        base = f"{self._sanitise(preferred)}.{project_id}"
        username = base
        suffix = 1
        while username in self._by_username or username in self._tombstones:
            suffix += 1
            username = f"{base}{suffix}"
        return {"username": username, "uid": uid, "project_id": project_id,
                "uid_number": self._next_uid_number}

    def restore_account(self, account: UnixAccount) -> None:
        """Insert an account exactly as journaled (uid_number kept)."""
        self._by_username[account.username] = account
        self._by_key[(account.uid, account.project_id)] = account.username
        self._next_uid_number = max(self._next_uid_number,
                                    account.uid_number + 1)

    def revoke(self, uid: str, project_id: str, username: str) -> None:
        """Tombstone ``username``, the account of (uid, project): it is
        never reissued."""
        self._by_key.pop((uid, project_id), None)
        self._tombstones.add(username)

    def lookup(self, username: str) -> Optional[UnixAccount]:
        """Resolve an account name; tombstoned accounts resolve to None."""
        if username in self._tombstones:
            return None
        return self._by_username.get(username)

    def is_tombstoned(self, username: str) -> bool:
        return username in self._tombstones

    def resolve(self, principal: str,
                project: Optional[str] = None) -> Tuple[str, List[str]]:
        """The uid behind ``principal`` (a uid, or one of its accounts)
        and that uid's accounts, of ``project`` only when given,
        tombstoned ones included, sorted."""
        account = self._by_username.get(principal)
        uid = principal if account is None else account.uid
        return uid, sorted(a.username for a in self._by_username.values()
                           if a.uid == uid and project in (None, a.project_id))

    # ------------------------------------------------------------------
    # durability support (the owning portal's snapshots)
    # ------------------------------------------------------------------
    def durable_state(self) -> Dict[str, object]:
        return {
            "accounts": [
                {"username": a.username, "uid": a.uid,
                 "project_id": a.project_id, "uid_number": a.uid_number}
                for a in self._by_username.values()
            ],
            "tombstones": sorted(self._tombstones),
            "next_uid_number": self._next_uid_number,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        for d in state["accounts"]:
            account = UnixAccount(
                username=str(d["username"]), uid=str(d["uid"]),
                project_id=str(d["project_id"]),
                uid_number=int(d["uid_number"]),
            )
            self._by_username[account.username] = account
            self._by_key[(account.uid, account.project_id)] = account.username
        self._tombstones = set(state["tombstones"])
        for username in self._tombstones:
            account = self._by_username.get(username)
            if account is not None:
                self._by_key.pop((account.uid, account.project_id), None)
        self._next_uid_number = int(state["next_uid_number"])

    def wipe(self) -> None:
        self._by_username: Dict[str, UnixAccount] = {}
        self._by_key: Dict[Tuple[str, str], str] = {}  # (uid, project) -> username
        self._tombstones: Set[str] = set()
