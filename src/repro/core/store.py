"""Durable gossip state: write-ahead log plus periodic snapshots.

The simulator's optimistic fault model (a "recovered" node keeps its full
in-memory state) hides the hardest failure mode gossip must win:
recovery *after state loss*.  This module supplies the durability layer a
node can opt into so a restart replays what the process knew instead of
rejoining with amnesia:

* :class:`GossipLog` -- the abstraction: an append-only WAL of
  gossip-critical records (retained messages, dedup identities, FIFO
  counters, the feedback hot-rumor set) plus a periodic snapshot that
  compacts the log.
* :class:`MemoryGossipLog` -- in-memory implementation; inside the
  simulator it models a disk that survives the process crash.
* :class:`FileGossipLog` -- file-backed implementation with a CRC per
  record and corruption-tolerant replay: a truncated tail stops replay at
  the last complete record, a bad record is skipped, and neither ever
  raises out of :meth:`~GossipLog.replay`.
* :class:`DurabilityPolicy` -- the validated knob set (`fsync` policy,
  snapshot cadence, catch-up bounds), declared through
  :class:`~repro.core.params.Knobs` like every other knob set.

Record framing (file mode): ``<length:uint32-le> <crc32:uint32-le>
<payload>`` where the payload is UTF-8 JSON with ``bytes`` values encoded
as ``{"__bytes__": "<base64>"}``.  The snapshot lives next to the WAL
(``<path>.snap``), written to a temporary file and atomically renamed, so
a crash mid-snapshot leaves the previous snapshot intact.
"""

from __future__ import annotations

import base64
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.params import Knobs, ParamError, knob

if TYPE_CHECKING:
    from repro.obs.hub import MetricsHub

_HEADER = struct.Struct("<II")
#: Upper bound on a single record; a corrupted length field larger than
#: this is treated as a truncated tail rather than chased off the end.
_MAX_RECORD = 1 << 28

FSYNC_POLICIES = ("always", "batch", "never")
DURABILITY_MODES = ("memory", "file")


def _jsonable(value: Any) -> Any:
    """Encode a record value for JSON (bytes become tagged base64)."""
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _unjsonable(value: Any) -> Any:
    """Invert :func:`_jsonable`."""
    if isinstance(value, dict):
        if set(value) == {"__bytes__"}:
            return base64.b64decode(value["__bytes__"])
        return {key: _unjsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_unjsonable(item) for item in value]
    return value


@dataclass
class ReplayResult:
    """What a :meth:`GossipLog.replay` recovered, and what it had to skip."""

    snapshot: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = field(default_factory=list)
    corrupt_records: int = 0
    truncated_tail: bool = False
    snapshot_corrupt: bool = False

    @property
    def clean(self) -> bool:
        """True when nothing had to be skipped."""
        return (
            not self.corrupt_records
            and not self.truncated_tail
            and not self.snapshot_corrupt
        )


class GossipLog:
    """Append-only WAL + snapshot of one engine's gossip-critical state.

    Subclasses supply storage; the interface is what
    :class:`~repro.core.engine.GossipEngine` needs:

    * :meth:`append` -- one WAL record (a plain dict; ``bytes`` values ok).
    * :meth:`write_snapshot` -- replace history with one full state dict;
      the WAL restarts empty (compaction).
    * :meth:`replay` -- the snapshot (if any) plus every WAL record since,
      tolerant of torn writes and corruption.
    * :meth:`clear` -- discard everything (models losing the disk too).
    """

    def __init__(self, hub: Optional["MetricsHub"] = None) -> None:
        self.appends_since_snapshot = 0
        # The hub this log counts into; logs created by a GossipLayer get
        # their node's hub, direct constructions fall back to the
        # process-wide default hub.
        if hub is None:
            from repro.obs.hub import default_hub

            hub = default_hub()
        self._recovery = hub.recovery

    def append(self, record: Dict[str, Any]) -> None:
        self.appends_since_snapshot += 1
        self._recovery.log_appends.inc()
        self._append(record)

    def write_snapshot(self, state: Dict[str, Any]) -> None:
        self.appends_since_snapshot = 0
        self._recovery.snapshots.inc()
        self._write_snapshot(state)

    def _count_damage(self, result: "ReplayResult") -> "ReplayResult":
        self._recovery.corrupt_records.inc(result.corrupt_records)
        self._recovery.truncated_tails.inc(int(result.truncated_tail))
        self._recovery.corrupt_snapshots.inc(int(result.snapshot_corrupt))
        return result

    def replay(self) -> ReplayResult:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (default: nothing)."""

    # -- storage hooks ------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def _write_snapshot(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError


class MemoryGossipLog(GossipLog):
    """Durability without a filesystem.

    Inside the simulator this models a disk that survives the crash: the
    log object outlives the process state the fault plan wipes, so a
    ``restart_at(..., amnesia=False)`` can replay it.
    """

    def __init__(self, hub: Optional["MetricsHub"] = None) -> None:
        super().__init__(hub=hub)
        self._snapshot: Optional[Dict[str, Any]] = None
        self._records: List[Dict[str, Any]] = []

    def _append(self, record: Dict[str, Any]) -> None:
        self._records.append(dict(record))

    def _write_snapshot(self, state: Dict[str, Any]) -> None:
        self._snapshot = dict(state)
        self._records.clear()

    def replay(self) -> ReplayResult:
        return ReplayResult(
            snapshot=dict(self._snapshot) if self._snapshot is not None else None,
            records=[dict(record) for record in self._records],
        )

    def clear(self) -> None:
        self._snapshot = None
        self._records.clear()
        self.appends_since_snapshot = 0

    def __repr__(self) -> str:
        return (
            f"MemoryGossipLog(records={len(self._records)}, "
            f"snapshot={'yes' if self._snapshot is not None else 'no'})"
        )


#: Appends between fsyncs under the ``"batch"`` policy.
FSYNC_EVERY = 64


class FileGossipLog(GossipLog):
    """File-backed WAL (``path``) plus snapshot (``path + '.snap'``).

    Args:
        path: the WAL file; parent directories are created.
        fsync: ``"always"`` (fsync every append), ``"batch"`` (fsync every
            ``fsync_every`` appends and on snapshot), or ``"never"``.
        fsync_every: batch size for the ``"batch"`` policy.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "batch",
        fsync_every: int = FSYNC_EVERY,
        hub: Optional["MetricsHub"] = None,
    ) -> None:
        super().__init__(hub=hub)
        if fsync not in FSYNC_POLICIES:
            raise ParamError(
                "fsync",
                f"fsync must be one of {FSYNC_POLICIES}: {fsync!r}",
            )
        if fsync_every < 1:
            raise ParamError(
                "fsync_every", f"fsync_every must be >= 1: {fsync_every!r}"
            )
        self.path = path
        self.snapshot_path = path + ".snap"
        self.fsync = fsync
        self.fsync_every = fsync_every
        self._unsynced = 0
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._wal = open(path, "ab")

    # -- framing ------------------------------------------------------------

    @staticmethod
    def _frame(record: Dict[str, Any]) -> bytes:
        payload = json.dumps(
            _jsonable(record), separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    @staticmethod
    def _scan(data: bytes, result: ReplayResult) -> List[Dict[str, Any]]:
        """Decode framed records, skipping bad ones, stopping at a torn
        tail.  Never raises."""
        records: List[Dict[str, Any]] = []
        position = 0
        while position < len(data):
            if len(data) - position < _HEADER.size:
                result.truncated_tail = True
                break
            length, crc = _HEADER.unpack_from(data, position)
            if length > _MAX_RECORD or length > len(data) - position - _HEADER.size:
                # A torn final write and a corrupted length field are
                # indistinguishable here; either way the tail is unusable.
                result.truncated_tail = True
                break
            payload = data[position + _HEADER.size : position + _HEADER.size + length]
            position += _HEADER.size + length
            if zlib.crc32(payload) != crc:
                result.corrupt_records += 1
                continue
            try:
                record = _unjsonable(json.loads(payload.decode("utf-8")))
            except (ValueError, UnicodeDecodeError):
                result.corrupt_records += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                result.corrupt_records += 1
        return records

    def _maybe_fsync(self, force: bool = False) -> None:
        self._wal.flush()
        if self.fsync == "never":
            return
        self._unsynced += 1
        if force or self.fsync == "always" or self._unsynced >= self.fsync_every:
            os.fsync(self._wal.fileno())
            self._unsynced = 0

    # -- GossipLog ----------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        self._wal.write(self._frame(record))
        self._maybe_fsync()

    def _write_snapshot(self, state: Dict[str, Any]) -> None:
        temporary = self.snapshot_path + ".tmp"
        with open(temporary, "wb") as handle:
            handle.write(self._frame(state))
            handle.flush()
            if self.fsync != "never":
                os.fsync(handle.fileno())
        os.replace(temporary, self.snapshot_path)
        # The snapshot subsumes the WAL: restart it empty.
        self._wal.close()
        self._wal = open(self.path, "wb")
        self._maybe_fsync(force=True)

    def replay(self) -> ReplayResult:
        result = ReplayResult()
        if os.path.exists(self.snapshot_path):
            # Scanned separately: damage to the snapshot file is reported
            # as snapshot_corrupt, never as WAL corruption.
            snapshot_scan = ReplayResult()
            with open(self.snapshot_path, "rb") as handle:
                snapshots = self._scan(handle.read(), snapshot_scan)
            if snapshots:
                result.snapshot = snapshots[0]
            else:
                result.snapshot_corrupt = True
        self._wal.flush()
        with open(self.path, "rb") as handle:
            result.records = self._scan(handle.read(), result)
        return self._count_damage(result)

    def clear(self) -> None:
        self._wal.close()
        self._wal = open(self.path, "wb")
        try:
            os.remove(self.snapshot_path)
        except FileNotFoundError:
            pass
        self._unsynced = 0
        self.appends_since_snapshot = 0

    def close(self) -> None:
        if not self._wal.closed:
            self._maybe_fsync(force=True)
            self._wal.close()

    def __repr__(self) -> str:
        return f"FileGossipLog({self.path!r}, fsync={self.fsync!r})"


#: Healthy peers contacted per rejoin catch-up round (``k``).
CATCH_UP_PEERS = 3
#: Bound on catch-up rounds before eager forwarding resumes regardless.
CATCH_UP_ROUNDS = 3


@dataclass(frozen=True)
class DurabilityPolicy(Knobs):
    """Validated knobs for the crash-recovery subsystem.

    Attributes:
        mode: ``"memory"`` (simulated durable storage) or ``"file"``.
        directory: where file-mode WALs live (required for ``"file"``).
        fsync: WAL durability policy -- ``"always"``, ``"batch"``, or
            ``"never"`` (see :class:`FileGossipLog`).
        snapshot_every: WAL appends between snapshot compactions.
        catch_up: run the rejoin catch-up exchange after a restart.
    """

    mode: str = knob("memory", choices=DURABILITY_MODES)
    directory: Optional[str] = None
    fsync: str = knob("batch", choices=FSYNC_POLICIES)
    snapshot_every: int = knob(256, ge=1)
    catch_up: bool = True

    def _check(self) -> None:
        if self.mode == "file" and not self.directory:
            raise ParamError(
                "directory", "file-mode durability requires a directory"
            )

    def make_log(
        self, name: str, hub: Optional["MetricsHub"] = None
    ) -> GossipLog:
        """A fresh log for one (node, activity), named ``name``.

        File mode places the WAL at ``<directory>/<slug>.wal``.  ``hub``
        is the hub the log counts into (the node's; defaults to the
        process-wide default hub).
        """
        if self.mode == "memory":
            return MemoryGossipLog(hub=hub)
        slug = "".join(
            ch if ch.isalnum() or ch in "-_." else "_" for ch in name
        )
        return FileGossipLog(
            os.path.join(self.directory, f"{slug}.wal"),
            fsync=self.fsync,
            hub=hub,
        )


class Journal:
    """An engine's durability stage: the engine's gossip-critical state
    changes as records in one :class:`GossipLog` (``log``, which the
    engine replays and clears itself), compacted to
    ``engine.snapshot_state()`` every ``policy.snapshot_every`` appends.
    :data:`NO_JOURNAL` stands in without a policy and builds no record."""

    __slots__ = ("policy", "log", "engine")

    def __init__(self, policy: DurabilityPolicy, log: GossipLog, engine) -> None:
        self.policy = policy
        self.log = log
        self.engine = engine

    def message(self, message_id: str, data: bytes, origin: str) -> None:
        self._append({
            "type": "msg", "id": message_id, "data": data,
            "at": self.engine.scheduler.now, "origin": origin,
        })

    def hot(self, message_id: str, rounds: int) -> None:
        self._append({"type": "hot", "id": message_id, "rounds": rounds})

    def cooled(self, message_id: str) -> None:
        self._append({"type": "cooled", "id": message_id})

    def publications(self, count: int) -> None:
        self._append({"type": "pub_seq", "value": count})

    def fifo(self, origin: str, next_expected: int) -> None:
        self._append({"type": "fifo", "origin": origin, "next": next_expected})

    def _append(self, record: Dict[str, Any]) -> None:
        self.log.append(record)
        if self.log.appends_since_snapshot >= self.policy.snapshot_every:
            self.log.write_snapshot(self.engine.snapshot_state())


class _NullLog(GossipLog):
    """:data:`NO_JOURNAL`'s log: never written, so it replays empty."""

    def __init__(self) -> None:
        self.appends_since_snapshot = 0

    def replay(self) -> ReplayResult:
        return ReplayResult()

    def clear(self) -> None:
        pass


class NoJournal(Journal):
    """The durability stage without a policy: no record is built, a
    replay finds nothing and a rejoin still catches up."""

    __slots__ = ()

    def _nothing(self, *_args) -> None:
        pass

    message = hot = cooled = publications = fifo = _nothing


NO_JOURNAL = NoJournal(DurabilityPolicy(), _NullLog(), None)


__all__ = [
    "DurabilityPolicy",
    "FileGossipLog",
    "GossipLog",
    "Journal",
    "MemoryGossipLog",
    "ReplayResult",
]
