"""A Slurm-style job scheduler for the simulated cluster.

Login nodes run "essential services such as Slurm (job management and
resource scheduler)".  The scheduler here implements the pieces the IAM
co-design touches:

* jobs are submitted **by a UNIX account within an SSH session** — no
  session, no job;
* each job is charged to its project's allocation via the portal
  (time- and resource-limited projects, user story 1);
* FIFO backfill over a :class:`~repro.cluster.nodes.NodePool`, with
  completions driven by simulated-clock events;
* revoked accounts' pending jobs are cancellable in one sweep (the
  kill-switch follow-through on the batch plane).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.audit import AuditLog, Outcome
from repro.clock import SimClock
from repro.cluster.nodes import NodePool
from repro.errors import RateLimited, SchedulerError
from repro.grants import GrantTable
from repro.ids import IdFactory

__all__ = ["JobState", "Job", "SlurmScheduler"]


class JobState(str, enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    FAILED = "failed"


@dataclass
class Job:
    job_id: str
    account: str        # unix account (per-project)
    project_id: str
    nodes: int
    walltime: float     # seconds
    state: JobState = JobState.PENDING
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def gpu_hours(self, gpus_per_node: int = 4) -> float:
        return self.nodes * gpus_per_node * self.walltime / 3600.0


class SlurmScheduler:
    """FIFO scheduler with allocation accounting.

    Parameters
    ----------
    charge:
        Callable ``(project_id, gpu_hours) -> None`` that raises
        :class:`~repro.errors.QuotaExceeded` when the allocation cannot
        cover the job — wired to the portal's ``record_usage``.
    max_pending:
        Bound on the pending queue.  A real scheduler with an unbounded
        queue is an overload amplifier (submissions during an incident
        pile up and replay); overflow raises
        :class:`~repro.errors.RateLimited` whose ``retry_after`` points
        at the earliest running-job completion.
    """

    def __init__(
        self,
        clock: SimClock,
        ids: IdFactory,
        pool: NodePool,
        charge: Callable[[str, float], None],
        *,
        audit: AuditLog,
        max_walltime: float = 24 * 3600.0,
        charge_units_per_node: int = 4,
        max_pending: int = 512,
    ) -> None:
        self.clock = clock
        self.ids = ids
        self.pool = pool
        self.charge = charge
        self.audit = audit
        self.max_walltime = max_walltime
        # allocation units consumed per node-hour: GPUs on Isambard-AI
        # (Grace-Hopper), plain node-hours on Isambard 3 (Grace-Grace)
        self.charge_units_per_node = charge_units_per_node
        if max_pending < 1:
            raise SchedulerError("max_pending must be at least 1")
        self.max_pending = max_pending
        self.submissions_shed = 0
        self._jobs: Dict[str, Job] = {}
        # pending and running jobs by account: a job's grant ends when it
        # does, not at a set time
        self._granted = GrantTable()
        self._queue: List[str] = []
        # continuous authorization: submissions fail closed when the PDP
        # is unreachable past the staleness bound
        self.authz_guard = None

    # ------------------------------------------------------------------
    def submit(
        self, account: str, project_id: str, *, nodes: int = 1, walltime: float = 3600.0
    ) -> Job:
        """Queue a job; charges the allocation up front (reservation)."""
        if self.authz_guard is not None:
            self.authz_guard.check("compute", actor=account)
        if nodes < 1:
            raise SchedulerError("a job needs at least one node")
        if walltime <= 0 or walltime > self.max_walltime:
            raise SchedulerError(
                f"walltime must be in (0, {self.max_walltime}] seconds"
            )
        if nodes > len(self.pool.nodes()):
            raise SchedulerError(
                f"requested {nodes} nodes; cluster has {len(self.pool.nodes())}"
            )
        if self.queue_length() >= self.max_pending:
            self.submissions_shed += 1
            retry_after = self._earliest_completion()
            self.audit.record(
                self.clock.now(), "slurm", account, "job.submit", "queue-full",
                Outcome.SHED, project=project_id,
                pending=self.queue_length(), max_pending=self.max_pending,
                retry_after=retry_after,
            )
            raise RateLimited(
                f"pending queue full ({self.queue_length()}/{self.max_pending})",
                retry_after=retry_after, service="slurm",
            )
        job = Job(
            job_id=self.ids.next("job"),
            account=account,
            project_id=project_id,
            nodes=nodes,
            walltime=walltime,
            submitted_at=self.clock.now(),
        )
        # reserve allocation before the job is ever eligible to run
        self.charge(project_id, job.gpu_hours(self.charge_units_per_node))
        self._jobs[job.job_id] = job
        self._granted.add(job.job_id, account, None, job)
        self._queue.append(job.job_id)
        self.audit.record(
            self.clock.now(), "slurm", account, "job.submit", job.job_id,
            Outcome.SUCCESS, project=project_id, nodes=nodes, walltime=walltime,
        )
        self._schedule()
        return job

    def _earliest_completion(self) -> float:
        """Seconds until the soonest running job frees its nodes — the
        most honest retry hint a full queue can give.  With nothing
        running the queue will drain as soon as the pool frees up, so
        suggest a token backoff instead."""
        now = self.clock.now()
        return max(min((j.started_at + j.walltime - now
                        for _, _, _, j in self._granted.live(now)
                        if j.state == JobState.RUNNING), default=1.0), 0.0)

    def _schedule(self) -> None:
        """Start queued jobs while nodes are free (FIFO, no skip)."""
        while self._queue:
            job = self._jobs[self._queue[0]]
            if job.state != JobState.PENDING:
                self._queue.pop(0)
                continue
            if len(self.pool.free_nodes()) < job.nodes:
                return
            self._queue.pop(0)
            self.pool.allocate(job.nodes, job.job_id)
            job.state = JobState.RUNNING
            job.started_at = self.clock.now()
            self.clock.call_later(job.walltime, lambda j=job: self._complete(j))
            self.audit.record(
                self.clock.now(), "slurm", job.account, "job.start", job.job_id,
                Outcome.INFO,
            )

    def _complete(self, job: Job) -> None:
        if job.state != JobState.RUNNING:
            return
        job.state = JobState.COMPLETED
        job.finished_at = self.clock.now()
        self._granted.end(job.job_id)
        self.pool.release(job.job_id)
        self.audit.record(
            self.clock.now(), "slurm", job.account, "job.complete", job.job_id,
            Outcome.SUCCESS,
        )
        self._schedule()

    # ------------------------------------------------------------------
    def cancel(self, job_id: str, *, by: str = "user") -> bool:
        job = self._jobs.get(job_id)
        if job is None or job.state not in (JobState.PENDING, JobState.RUNNING):
            return False
        if job.state == JobState.RUNNING:
            self.pool.release(job.job_id)
        job.state = JobState.CANCELLED
        job.finished_at = self.clock.now()
        self._granted.end(job.job_id)
        self.audit.record(
            self.clock.now(), "slurm", by, "job.cancel", job.job_id, Outcome.INFO,
        )
        self._schedule()
        return True

    def sever(self, account: str, by: str,
              project: Optional[str] = None) -> int:
        """Cancel everything belonging to one UNIX account."""
        return sum(self.cancel(job_id, by=by) for job_id, *_ in
                   self._granted.of(account, self.clock.now()))

    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self, state: Optional[JobState] = None) -> List[Job]:
        return [j for j in self._jobs.values() if state is None or j.state == state]

    def grants(self, now: float, skip=()):
        """Every pending or running job, as the session registry reads
        it (see ``SessionRegistry``)."""
        return self._granted.grants("slurm-job", now, skip)

    def queue_length(self) -> int:
        return sum(j.state == JobState.PENDING
                   for _, _, _, j in self._granted.live(self.clock.now()))
