"""Simulated write-ahead log and durable store for the mutable index.

Durability in this reproduction is *simulated*: there is no disk, but
the contract is the real one.  A :class:`DurableStore` models the only
state that survives a process crash — one checkpoint blob plus an
append-only :class:`WriteAheadLog` of intent records — and both writes
are atomic (a record is either fully appended or absent; a checkpoint
either installs with its WAL truncation or not at all).  Everything
else (the in-memory graph, tombstone mask, epoch counter) is volatile
and lost when a ``crash`` fault fires.

Recovery is therefore a pure function: load the checkpoint, replay the
surviving records in LSN order.  Because every apply step downstream is
deterministic, the recovered index digest must equal a clean replay of
the same surviving log — the crash-safety acceptance bar.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.params import BuildParams
from repro.errors import MutableIndexError

#: Operation kinds a WAL record may carry.
OP_INSERT = "insert"
OP_DELETE = "delete"
OP_COMPACT = "compact"
OP_KINDS = (OP_INSERT, OP_DELETE, OP_COMPACT)


def encode_array(arr: np.ndarray) -> Dict[str, object]:
    """Exact, JSON-safe encoding of an ndarray (dtype + shape + bytes)."""
    arr = np.ascontiguousarray(arr)
    return {"dtype": str(arr.dtype), "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def decode_array(data: Dict[str, object]) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    raw = base64.b64decode(str(data["data"]))
    arr = np.frombuffer(raw, dtype=np.dtype(str(data["dtype"])))
    return arr.reshape([int(s) for s in data["shape"]]).copy()


def encode_params(params: BuildParams) -> Dict[str, object]:
    """JSON-safe build parameters, keyed by field name — the keys the
    superblock meta and every checkpoint carry."""
    return asdict(params)


def decode_params(data: Dict[str, object]) -> BuildParams:
    """Inverse of :func:`encode_params`; ``seed`` may be absent (0), and
    ``n_blocks`` is ``None`` for the corpus-sized default grid."""
    ef, l_n = data.get("ef_construction"), data.get("search_l_n")
    blocks = data["n_blocks"]
    return BuildParams(d_min=int(data["d_min"]), d_max=int(data["d_max"]),
                       n_blocks=None if blocks is None else int(blocks),
                       n_threads=int(data["n_threads"]),
                       ef_construction=None if ef is None else int(ef),
                       search_l_n=None if l_n is None else int(l_n),
                       seed=int(data.get("seed", 0)))


@dataclass(eq=False)
class WalRecord:
    """One durable intent record.

    Attributes:
        lsn: Log sequence number, 1-based and strictly increasing.
        op: One of :data:`OP_KINDS`.
        at_seconds: Simulated time the mutation was issued.
        points: ``(b, d)`` new point vectors (``insert`` only).
        ids: Deleted external ids (``delete`` only).
    """

    lsn: int
    op: str
    at_seconds: float
    points: Optional[np.ndarray] = None
    ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.op not in OP_KINDS:
            raise MutableIndexError(
                f"unknown WAL op {self.op!r}; expected one of {OP_KINDS}")
        if self.op == OP_INSERT and self.points is None:
            raise MutableIndexError("insert record requires points")
        if self.op == OP_DELETE and self.ids is None:
            raise MutableIndexError("delete record requires ids")

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form for serialization."""
        data: Dict[str, object] = {"lsn": self.lsn, "op": self.op,
                                   "at_seconds": self.at_seconds}
        if self.points is not None:
            data["points"] = encode_array(self.points)
        if self.ids is not None:
            data["ids"] = encode_array(np.asarray(self.ids,
                                                  dtype=np.int64))
        return data

    def to_json(self) -> str:
        """Canonical JSON encoding (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True)


class WriteAheadLog:
    """Append-only record log; appends are atomic, order is the truth."""

    def __init__(self):
        self._records: List[WalRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Tuple[WalRecord, ...]:
        """The surviving records, LSN order."""
        return tuple(self._records)

    def append(self, record: WalRecord) -> WalRecord:
        """Atomically append one record; LSNs must strictly increase."""
        if self._records and record.lsn <= self._records[-1].lsn:
            raise MutableIndexError(
                f"WAL lsn must increase: {record.lsn} after "
                f"{self._records[-1].lsn}")
        self._records.append(record)
        return record

    def truncate_through(self, lsn: int) -> int:
        """Drop records with ``lsn <=`` the given LSN (checkpointed)."""
        before = len(self._records)
        self._records = [r for r in self._records if r.lsn > lsn]
        return before - len(self._records)

    def to_bytes(self) -> bytes:
        """Canonical byte encoding (one record JSON per line)."""
        return "\n".join(r.to_json() for r in self._records).encode("utf-8")


@dataclass
class DurableStore:
    """What survives a crash: one checkpoint blob + the surviving WAL.

    Attributes:
        checkpoint: Opaque checkpoint bytes (``None`` before the first
            checkpoint; recovery then starts from the base build, whose
            records the WAL still holds).
        checkpoint_lsn: LSN through which the checkpoint folds the log.
        wal: Records appended after ``checkpoint_lsn``.
        meta: Immutable index metadata (build parameters, metric,
            search kernel) written once at creation — the superblock a
            recovery needs to replay the base build from LSN 1.
    """

    checkpoint: Optional[bytes] = None
    checkpoint_lsn: int = 0
    wal: WriteAheadLog = field(default_factory=WriteAheadLog)
    next_lsn: int = 1
    meta: Optional[Dict[str, object]] = None

    def append(self, op: str, at_seconds: float,
               points: Optional[np.ndarray] = None,
               ids: Optional[np.ndarray] = None) -> WalRecord:
        """Durably append one intent record, assigning the next LSN."""
        record = WalRecord(lsn=self.next_lsn, op=op,
                           at_seconds=float(at_seconds),
                           points=None if points is None
                           else np.ascontiguousarray(points).copy(),
                           ids=None if ids is None
                           else np.asarray(ids, dtype=np.int64).copy())
        self.wal.append(record)
        self.next_lsn += 1
        return record

    def install_checkpoint(self, blob: bytes, last_lsn: int) -> None:
        """Atomically install a checkpoint and truncate the folded WAL."""
        if last_lsn < self.checkpoint_lsn:
            raise MutableIndexError(
                f"checkpoint lsn cannot move backwards: "
                f"{self.checkpoint_lsn} -> {last_lsn}")
        self.checkpoint = bytes(blob)
        self.checkpoint_lsn = int(last_lsn)
        self.wal.truncate_through(last_lsn)

    def surviving_records(self) -> Tuple[WalRecord, ...]:
        """Records a recovery must replay on top of the checkpoint."""
        return self.wal.records

    def digest(self) -> str:
        """SHA-256 over the checkpoint blob + surviving WAL bytes."""
        h = hashlib.sha256()
        h.update(json.dumps(self.meta, sort_keys=True).encode("utf-8"))
        h.update(self.checkpoint or b"")
        h.update(b"|%d|" % self.checkpoint_lsn)
        h.update(self.wal.to_bytes())
        return h.hexdigest()
