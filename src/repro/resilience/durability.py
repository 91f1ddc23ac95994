"""Write-ahead journaling and snapshots for the stateful control plane.

Isambard-AI runs its IAM services (broker, SSH CA, portal, managed IdPs)
as replicated managed services: process death must not lose sessions,
serials or the audit chain, and a deposed replica must not keep signing.
This module gives the simulation the same guarantees, deterministically:

* :class:`ServiceJournal` — one write-ahead stream per service.  Every
  mutation is appended *before* local state changes (WAL discipline), as
  a clock-stamped :class:`JournalEntry`.  The journal stores what a WAL
  stores: the payload is encoded to canonical JSON once, at append, and
  decoded only when read (recovery, standby catch-up, tests).  Encoding
  is the admission filter — only plain, replayable data gets in — and
  every read decodes afresh, so nothing handed out aliases the log.  An
  appender that keeps its own immutable rows (the audit log) may hand
  the journal such a row instead: the journal holds that very row, and
  its text — the payload the appender's ``row_payload`` builds from it,
  encoded — is written only when read.
* Snapshots — :meth:`ServiceJournal.snapshot` checkpoints the durable
  state and truncates the entries it makes redundant; recovery is
  "load snapshot, replay the tail".  A *full* snapshot encodes the whole
  state (mutable services, and every attach-time baseline).  A *sealed*
  one is for append-only state: the pending entries' records — already
  encoded, or rows already held — move onto a named run of the
  snapshot, so the checkpoint costs what is pending, not what has
  accumulated.  Either way the checkpoint is taken *before* the entry
  that trips the cadence is appended: WAL-disciplined services mutate
  after the append returns, so only then does live state equal
  snapshot + journaled entries.
* Fencing epochs — the journal tracks the epoch of its single legitimate
  writer.  :meth:`ServiceJournal.acquire_epoch` bumps it (promotion,
  restart); an append presenting a stale epoch raises
  :class:`~repro.errors.EpochFenced`, so a deposed primary cannot commit
  new tokens or certificates even if it is still running (split-brain
  safety at the durable store, the same way etcd/raft fencing works).
* The vault — signing keys are *not* serialized into the journal; real
  deployments keep them in a KMS/HSM that survives pod restarts.
  :meth:`ServiceJournal.seal` / :meth:`ServiceJournal.unseal` model that:
  key objects are stashed by reference and re-adopted on recovery, so a
  recovered (or promoted) issuer signs with the same key material and
  every pinned public key or captured JWKS stays valid.

:class:`Durable` is the mixin services implement: ``durable_state`` /
``load_state`` / ``apply_entry`` / ``wipe_state`` plus optional key and
invariant hooks.  ``recover()`` replays snapshot+journal, charges a
deterministic simulated replay cost, re-acquires the fencing epoch and
runs the service's invariant checks (:class:`~repro.errors.RecoveryError`
on violation).  ``state_hash()`` is a canonical-JSON sha256 of the
durable state — the determinism/idempotence tests compare these across
repeated replays.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.clock import SimClock
from repro.errors import ConfigurationError, EpochFenced

__all__ = [
    "JournalEntry",
    "ServiceJournal",
    "DurabilityStore",
    "Durable",
    "RecoveryReport",
    "REPLAY_COST_PER_ENTRY",
    "RESTART_COST",
]

# deterministic simulated cost of a recovery: a fixed process-restart
# charge plus a per-entry replay charge (the clock advances by this much
# inside recover(), so "bounded recovery time" is measurable and real)
RESTART_COST = 0.005
REPLAY_COST_PER_ENTRY = 0.0002


# built once: json.dumps constructs a fresh encoder per call for any
# non-default option, and sort_keys is one.  ``_compact`` is the one
# compact sorted-key encoder in src: tokens, signed documents and
# digest inputs are encoded by it too
_canonical = json.JSONEncoder(sort_keys=True).encode
_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _encode(data, *, compact: bool = False) -> str:
    """Canonical (sorted-key) JSON text of ``data`` — byte for byte what
    ``json.dumps(data, sort_keys=True)`` writes (compact: with
    ``separators=(",", ":")``).

    This is the journal's admission filter: only plain, deterministic,
    replayable values get in.  Live objects (keys, sockets, services)
    fail loudly here rather than silently pickling state that could not
    exist on a recovering node.
    """
    try:
        return (_compact if compact else _canonical)(data)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"journal payload is not JSON-serializable: {exc}"
        ) from exc


class JournalEntry(NamedTuple):
    """One committed mutation: (sequence, time, writer epoch, kind, body,
    row payload).

    ``body`` is the payload as encoded at append, or the appender's own
    immutable row, held as it stands; ``row_payload`` builds a row's
    payload.  :attr:`record` is the text either way, written afresh on
    every read of a row, and :attr:`data` decodes it afresh, so no
    reader can edit the log.
    """

    seq: int
    time: float
    epoch: int
    kind: str
    body: object
    row_payload: Optional[Callable[[tuple], Dict[str, object]]] = None

    @property
    def record(self) -> str:
        return (self.body if type(self.body) is str
                else _encode(self.row_payload(self.body)))

    @property
    def data(self) -> Dict[str, object]:
        return json.loads(self.record)


class ServiceJournal:
    """A single service's write-ahead stream inside a :class:`DurabilityStore`."""

    def __init__(self, store: "DurabilityStore", name: str) -> None:
        self.store = store
        self.name = name
        self._entries: List[JournalEntry] = []
        # the snapshot, as encoded text: the last full state, then — for
        # an append-only service — the last sealed checkpoint's (run
        # name, other fields) and the records sealed onto that run since
        # (each its text, or a row held as it stands: see ``text``)
        self._snapshot: Optional[str] = None
        self._seal: Optional[Tuple[str, str]] = None
        self._sealed: List[object] = []
        # the payload of a row appended as it stands, set by the writer
        # that keeps such rows (see ``Durable.attach_journal``)
        self.row_payload: Optional[Callable[[tuple], Dict[str, object]]] = None
        self._snapshot_seq = 0
        self._seq = 0
        self._epoch = 0
        self._vault: Dict[str, object] = {}
        self.appends = 0
        self.snapshots = 0
        self.fenced_appends = 0

    # ------------------------------------------------------------- epochs
    @property
    def epoch(self) -> int:
        """Epoch of the journal's current legitimate writer."""
        return self._epoch

    def acquire_epoch(self) -> int:
        """Become the journal's writer; every previous holder is fenced."""
        self._epoch += 1
        return self._epoch

    # ------------------------------------------------------------- writes
    def append(self, kind: str, data: "Dict[str, object] | tuple", *,
               epoch: Optional[int] = None) -> JournalEntry:
        """Commit one mutation.  ``data`` is the payload, encoded here —
        or, on a stream with a :attr:`row_payload`, a ``tuple``: the
        appender's own immutable row, held as it stands (the appender
        keeps the same object), whose payload is built and encoded only
        when read.  ``epoch`` is the writer's fencing epoch; presenting a
        stale one raises :class:`EpochFenced` (and nothing is written —
        the deposed writer's mutation never happened)."""
        if epoch is not None and epoch != self._epoch:
            self.fenced_appends += 1
            raise EpochFenced(
                f"journal {self.name!r}: writer epoch {epoch} is fenced "
                f"(current epoch is {self._epoch})"
            )
        self._seq += 1
        entry = JournalEntry(
            self._seq, self.store.clock.now(), self._epoch, kind,
            data if type(data) is tuple and self.row_payload else _encode(data),
            self.row_payload)
        self._entries.append(entry)
        self.appends += 1
        return entry

    def snapshot(self, state: Dict[str, object], *,
                 seal: Optional[str] = None) -> None:
        """Checkpoint the durable state; truncate the entries it covers.

        By default ``state`` is the full durable state.  With ``seal``,
        ``state`` holds every field *except* the append-only run named
        ``seal``: each pending entry's record is one more item of that
        run and is moved onto it as it stands (its text, or its row), so
        the cost is that of the pending entries however long the run has
        grown.
        """
        if seal is None:
            self._snapshot, self._seal, self._sealed = _encode(state), None, []
        else:
            self._seal = (seal, _encode(state))
            self._sealed.extend(e.body for e in self._entries)
        self._snapshot_seq = self._seq
        self._entries = []
        self.snapshots += 1

    # -------------------------------------------------------------- reads
    def load(self) -> Tuple[Optional[Dict[str, object]], List[JournalEntry]]:
        """(snapshot-or-None, entries newer than the snapshot), decoded
        afresh: the caller owns everything returned."""
        snap = None if self._snapshot is None else json.loads(self._snapshot)
        if self._seal is not None:
            run, fields = self._seal
            snap = {**(snap or {}), **json.loads(fields)}
            snap.setdefault(run, []).extend(
                json.loads("[%s]" % ",".join(map(self.text, self._sealed))))
        return snap, list(self._entries)

    def text(self, item: object) -> str:
        """The record text of an entry's body or a sealed item: the text
        it holds, or the payload of the row it holds, encoded afresh."""
        return item if type(item) is str else _encode(self.row_payload(item))

    @property
    def snapshot_seq(self) -> int:
        return self._snapshot_seq

    def pending_entries(self) -> int:
        """Entries accumulated since the last snapshot."""
        return len(self._entries)

    # -------------------------------------------------------------- vault
    def seal(self, name: str, obj: object) -> None:
        """Stash key material (KMS/HSM model — survives any crash)."""
        self._vault[name] = obj

    def unseal(self, name: str) -> Optional[object]:
        return self._vault.get(name)


class DurabilityStore:
    """The deployment's durable store: one journal stream per service."""

    def __init__(self, clock: SimClock, telemetry) -> None:
        self.clock = clock
        # a repro.telemetry.Telemetry (duck-typed to avoid an import
        # cycle): recoveries report themselves here
        self.telemetry = telemetry
        self._streams: Dict[str, ServiceJournal] = {}

    def stream(self, name: str) -> ServiceJournal:
        if name not in self._streams:
            self._streams[name] = ServiceJournal(self, name)
        return self._streams[name]

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {
                "appends": j.appends,
                "snapshots": j.snapshots,
                "pending": j.pending_entries(),
                "fenced": j.fenced_appends,
                "epoch": j.epoch,
            }
            for name, j in sorted(self._streams.items())
        }


@dataclass
class RecoveryReport:
    """What one ``recover()`` did, for benches and invariant checks."""

    service: str
    snapshot_seq: int
    entries_replayed: int
    epoch: int
    recovered_at: float
    duration: float
    state_hash: str


class Durable:
    """Mixin for services that journal their mutations.

    Subclasses implement the four-method contract below; the mixin
    provides attach/adopt, :meth:`commit`, ``recover()`` and the
    canonical state hash.

    Journaled state has one write path: a live mutation is
    ``commit(kind, data)`` — journal the entry, then apply it with
    ``apply_entry``, the very code recovery replays it with — and is
    never also written beside it.  So replay cannot drift from the live
    path, and a fenced writer aborts at the append without having
    changed anything (write-ahead discipline).  Everything else a live
    method does (checks, id draws, audit records, bus publishes,
    volatile memos) stays in the live method.

    One service keeps its own path: :meth:`AuditLog.emit
    <repro.audit.AuditLog.emit>` journals the very row it stores (a usual
    event with scalar attrs; any other event goes in as its payload dict)
    and then stores it; applying it through a decoded dict on every emit
    would rebuild the row it already holds.  A row's text is written only
    when the journal is read, from the service's ``row_payload``.  Its
    replay is held to the live path by the differentials in
    ``tests/test_journal_cost.py``.
    """

    journal: Optional[ServiceJournal] = None
    fencing_epoch: int = 0
    snapshot_every: int = 256  # snapshot cadence, in journal entries

    # --------------------------------------------------- subclass contract
    def durable_state(self) -> Dict[str, object]:
        """Full JSON-safe durable state (keys excluded — they are vaulted)."""
        raise NotImplementedError

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore from a ``durable_state()`` snapshot (called after wipe)."""
        raise NotImplementedError

    def apply_entry(self, kind: str, data: Dict[str, object]) -> object:
        """Apply one journal entry to current state — live, from
        :meth:`commit`, and on replay.  ``data`` is the caller's to keep:
        live it was built for this entry, on replay it is decoded
        afresh.  May return what a live caller needs back."""
        raise NotImplementedError

    def wipe_state(self) -> None:
        """Crash semantics: drop all in-memory state.  Key material is
        NOT destroyed — it lives in the KMS-modelled vault."""
        raise NotImplementedError

    def seal_keys(self, journal: ServiceJournal) -> None:
        """Stash key objects into the vault at attach time (optional)."""

    def adopt_keys(self, journal: ServiceJournal) -> None:
        """Re-adopt vaulted key objects during recovery (optional)."""

    def verify_recovery(self, report: RecoveryReport) -> None:
        """Service-specific invariants; raise :class:`RecoveryError`."""

    # ------------------------------------------------------------- attach
    def attach_journal(self, journal: ServiceJournal) -> None:
        """Become the journal's writer and baseline-snapshot current state
        (covers mutations made during construction, before attach).  A
        service that appends its own rows (see
        :meth:`ServiceJournal.append`) gives the journal its
        ``row_payload``, how a row becomes its payload."""
        self.journal = journal
        journal.row_payload = getattr(self, "row_payload", None)
        self.fencing_epoch = journal.acquire_epoch()
        self.seal_keys(journal)
        journal.snapshot(self.durable_state())

    def adopt_journal(self, journal: ServiceJournal) -> None:
        """Follow a journal *without* becoming its writer (a standby).
        The adopter stays fenced (epoch 0) until promotion calls
        ``recover()``, which acquires a fresh epoch."""
        self.journal = journal
        self.fencing_epoch = 0

    # ------------------------------------------------------------- commit
    def commit(self, kind: str, data: Dict[str, object]) -> object:
        """The write path: journal ``data`` as a ``kind`` entry, then
        apply it with :meth:`apply_entry`; returns what that returns."""
        if self.journal is not None:
            self._jpublish(kind, data)
        return self.apply_entry(kind, data)

    def _jpublish(self, kind: str, record: "Dict[str, object] | tuple") -> None:
        """WAL append for one mutation; its callers enter it only when
        the service is journaled, as ``AuditLog.emit`` does.

        ``record`` is the payload dict, or the service's own row (see
        :meth:`ServiceJournal.append`).  At the cadence the checkpoint
        comes *first*: the mutation is applied only after this returns,
        so before the append live state equals snapshot + every journaled
        entry, and after it the state would lack the mutation whose entry
        the snapshot truncates.  A fenced writer checkpoints nothing —
        its append is about to be refused.
        """
        journal = self.journal
        if (journal.pending_entries() >= self.snapshot_every
                and journal.epoch == self.fencing_epoch):
            self.checkpoint()
        journal.append(kind, record, epoch=self.fencing_epoch)

    def checkpoint(self) -> None:
        """Periodic checkpoint: a full-state snapshot.  A service whose
        durable state only ever grows by its journaled records overrides
        this to seal them instead (see :meth:`ServiceJournal.snapshot`)."""
        self.journal.snapshot(self.durable_state())

    # ------------------------------------------------------------ recover
    def recover(self, *, acquire_epoch: bool = True) -> RecoveryReport:
        """Rebuild state from snapshot + journal tail.

        ``acquire_epoch=True`` (a restart or a promotion) makes this
        instance the journal's legitimate writer, fencing any deposed
        predecessor.  ``acquire_epoch=False`` is a read-only replay — a
        crashed ex-primary rejoining as standby uses it, so it catches
        up without stealing the epoch back.
        """
        if self.journal is None:
            raise ConfigurationError(
                f"{getattr(self, 'name', type(self).__name__)} has no journal "
                "attached; cannot recover"
            )
        clock = self.journal.store.clock
        started = clock.now()
        snap, entries = self.journal.load()
        self.wipe_state()
        self.adopt_keys(self.journal)
        if snap is not None:
            self.load_state(snap)
        for entry in entries:
            self.apply_entry(entry.kind, entry.data)
        if acquire_epoch:
            self.fencing_epoch = self.journal.acquire_epoch()
        clock.advance(RESTART_COST + REPLAY_COST_PER_ENTRY * len(entries))
        report = RecoveryReport(
            service=getattr(self, "name", self.journal.name),
            snapshot_seq=self.journal.snapshot_seq,
            entries_replayed=len(entries),
            epoch=self.fencing_epoch,
            recovered_at=clock.now(),
            duration=clock.now() - started,
            state_hash=self.state_hash(),
        )
        self.verify_recovery(report)
        self.journal.store.telemetry.record_recovery(report, started=started)
        return report

    # --------------------------------------------------------------- hash
    def state_hash(self) -> str:
        """Canonical sha256 over the durable state (replay determinism)."""
        canon = _encode(self.durable_state(), compact=True)
        return hashlib.sha256(canon.encode()).hexdigest()
