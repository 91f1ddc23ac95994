"""Project storage in the Data Storage zone.

Each project gets a directory on the parallel filesystem with a quota;
access is by UNIX account and scoped to the account's own project — the
storage-plane expression of "a unique UNIX username ... for each user's
access to each project".  (The paper notes filesystem-level encryption
is future work; the ``encrypted_at_rest`` flag models that roadmap item
and is asserted off in the CAF assessment.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.errors import AuthorizationError, QuotaExceeded

__all__ = ["ProjectVolume", "ParallelFilesystem"]


@dataclass
class ProjectVolume:
    project_id: str
    quota_bytes: int
    used_bytes: int = 0
    files: Dict[str, int] = field(default_factory=dict)  # path -> size


class ParallelFilesystem:
    """A quota-enforcing project filesystem.

    Parameters
    ----------
    account_project:
        Callable ``unix_account -> project_id | None`` backed by the
        cluster user database; the filesystem's only authorisation input.
    """

    def __init__(
        self,
        account_project: Callable[[str], Optional[str]],
        *,
        default_quota: int = 10 * 2**40,  # 10 TiB
        encrypted_at_rest: bool = False,
    ) -> None:
        self.account_project = account_project
        self.default_quota = default_quota
        self.encrypted_at_rest = encrypted_at_rest
        self._volumes: Dict[str, ProjectVolume] = {}

    def provision(self, project_id: str, *, quota_bytes: Optional[int] = None) -> ProjectVolume:
        vol = self._volumes.get(project_id)
        if vol is None:
            vol = ProjectVolume(
                project_id=project_id,
                quota_bytes=quota_bytes or self.default_quota,
            )
            self._volumes[project_id] = vol
        return vol

    def _authorise(self, account: str, project_id: str) -> ProjectVolume:
        owner = self.account_project(account)
        if owner != project_id:
            raise AuthorizationError(
                f"account {account!r} may not touch project {project_id!r} storage"
            )
        vol = self._volumes.get(project_id)
        if vol is None:
            raise AuthorizationError(f"project {project_id!r} has no volume")
        return vol

    def write(self, account: str, project_id: str, path: str, size: int) -> None:
        vol = self._authorise(account, project_id)
        delta = size - vol.files.get(path, 0)
        if vol.used_bytes + delta > vol.quota_bytes:
            raise QuotaExceeded(
                f"project {project_id} quota exceeded "
                f"({vol.used_bytes + delta} > {vol.quota_bytes} bytes)"
            )
        vol.files[path] = size
        vol.used_bytes += delta

    def read(self, account: str, project_id: str, path: str) -> int:
        vol = self._authorise(account, project_id)
        if path not in vol.files:
            raise AuthorizationError(f"no file {path!r} in project {project_id}")
        return vol.files[path]

    def usage(self, project_id: str) -> ProjectVolume:
        vol = self._volumes.get(project_id)
        if vol is None:
            raise AuthorizationError(f"project {project_id!r} has no volume")
        return vol
