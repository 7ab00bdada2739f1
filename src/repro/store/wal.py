"""Write-ahead log: crash-durable intent journal for store/CBIR mutations.

Every mutation that reaches the durable system appends one record *before*
the in-memory apply (:class:`~repro.earthqube.durability.DurableEarthQube`
wires the call sites).  After a crash, replaying the log onto the last
checkpoint reproduces the exact pre-crash state.

On-disk format
--------------

A 16-byte file header (``EQWAL001`` magic + little-endian ``uint64`` base
sequence — the sequence number the log starts *after*), followed by
length-prefixed records::

    uint32 length | uint32 crc32(body) | body

``body`` (built by :func:`encode_record`) is a UTF-8 JSON head
``{"seq": n, "op": "...", "payload": {...}}`` with values wrapped by
:func:`encode_payload` — the one value codec, which also encodes
checkpoint documents (:mod:`repro.store.snapshot`), so a value that
survives a record survives a checkpoint.  When the payload's numpy
arrays hold any bytes, the head is followed by ``\n`` and a blob section: each array's
raw ``tobytes()``, one after another, and its ``__nd__`` spec carries
``"blob": [offset, nbytes]`` into that section instead of the base64
``"data"`` a checkpoint document inlines.  ``json.dumps`` never emits a
raw newline, so the head ends at the first ``\n``; a body without one
is a head alone — every record written before the blob section existed
— and replays unchanged.  Sequence
numbers are assigned monotonically by the log and never reused — a
checkpoint records the sequence it covers and :meth:`WriteAheadLog.truncate`
drops everything at or below it while the numbering continues.

Torn tails vs corruption
------------------------

A crash can tear the *final* record (header without body, short body, or a
body whose checksum fails with nothing after it): replay detects and drops
it — the mutation was never acknowledged as durable.  A checksum failure
*mid-log* (valid data after the bad record) cannot come from a torn write;
it means damage at rest, and replay refuses to guess: it raises
:class:`~repro.errors.WALCorruptionError` naming the offset.

Fsync policy
------------

``always`` fsyncs every record (a crash loses nothing acknowledged),
``interval`` fsyncs every N records (bounded loss window, the default
trade), ``off`` leaves flushing to the OS (benchmarks; crash loss up to the
whole OS buffer).  The policy is count-based, not time-based, so tests and
benchmarks are deterministic.
"""

from __future__ import annotations

import base64
import json
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import DurabilityError, ValidationError, WALCorruptionError
from .faults import NO_FAULTS, FaultInjector

_MAGIC = b"EQWAL001"
_HEADER = struct.Struct("<8sQ")       # magic, base sequence
_RECORD_HEADER = struct.Struct("<II")  # body length, crc32(body)

FSYNC_POLICIES = ("always", "interval", "off")

#: Exact types JSON encodes as themselves (subclasses such as numpy's
#: ``float64`` take the slow path).
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def encode_payload(value: Any, blobs: "bytearray | None" = None) -> Any:
    """JSON-encode a WAL payload or checkpoint document value.

    ``bytes`` become base64 under ``__bytes__``; numpy arrays keep dtype,
    shape and raw bytes under ``__nd__`` (bit-exact round trip): inline as
    base64 ``data``, or, when a ``blobs`` section is given, appended to it
    with ``"blob": [offset, nbytes]`` in the spec.  Numpy scalars become
    Python scalars.  Injective: a user dict using a reserved key
    (``__bytes__``, ``__nd__``, ``__esc__``) is wrapped in an ``__esc__``
    marker so :func:`decode_payload` returns it verbatim.  JSON scalars,
    dicts and lists are checked first: they are nearly every value a
    document holds.
    """
    kind = type(value)
    if kind in _JSON_SCALARS:
        return value
    if kind is dict or isinstance(value, dict):
        encoded = {str(k): v if type(v) in _JSON_SCALARS
                   else encode_payload(v, blobs)
                   for k, v in value.items()}
        if "__bytes__" in encoded or "__nd__" in encoded or "__esc__" in encoded:
            return {"__esc__": True, "value": encoded}
        return encoded
    if kind is list or isinstance(value, (list, tuple)):
        return [v if type(v) in _JSON_SCALARS else encode_payload(v, blobs)
                for v in value]
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, np.ndarray):
        spec = {"dtype": value.dtype.str, "shape": list(value.shape)}
        raw = value.tobytes()
        if blobs is None:
            spec["data"] = base64.b64encode(raw).decode("ascii")
        else:
            spec["blob"] = [len(blobs), len(raw)]
            blobs += raw
        return {"__nd__": spec}
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    return value


def decode_payload(value: Any, *, arrays: bool = True,
                   blobs: "memoryview | None" = None) -> Any:
    """Invert :func:`encode_payload`.

    ``blobs`` is the record's blob section a ``"blob"`` spec points into
    (``None``: empty); a spec reaching outside it raises ``ValueError``.
    ``arrays=False`` reads ``__nd__`` as a plain key, for checkpoint
    images written before the marker was reserved there.
    """
    if isinstance(value, dict):
        size = len(value)
        if size == 2 and value.get("__esc__") is True and "value" in value:
            return {k: decode_payload(v, arrays=arrays, blobs=blobs)
                    for k, v in value["value"].items()}
        if size == 1:
            if "__bytes__" in value:
                return base64.b64decode(value["__bytes__"])
            if arrays and "__nd__" in value:
                return _decode_array(value["__nd__"], blobs)
        return {k: decode_payload(v, arrays=arrays, blobs=blobs)
                for k, v in value.items()}
    if isinstance(value, list):
        return [decode_payload(v, arrays=arrays, blobs=blobs) for v in value]
    return value


def _decode_array(spec: dict, blobs: "memoryview | None") -> np.ndarray:
    if "blob" in spec:
        offset, nbytes = (int(n) for n in spec["blob"])
        size = 0 if blobs is None else len(blobs)
        if offset < 0 or nbytes < 0 or offset + nbytes > size:
            raise ValueError(
                f"array blob [{offset}, {nbytes}] lies outside the record's "
                f"{size}-byte blob section")
        data = blobs[offset:offset + nbytes] if nbytes else b""
    else:
        data = base64.b64decode(spec["data"])
    return np.frombuffer(data, dtype=np.dtype(spec["dtype"])).reshape(
        tuple(spec["shape"])).copy()


def encode_record(seq: int, op: str, payload: Any) -> bytes:
    """The body of one WAL record: JSON head, then any arrays' raw bytes.

    The one record encoder (:meth:`WriteAheadLog.append`; the federation's
    handoff accounting measures shipments with it).  A payload with no
    array bytes is the head alone.
    """
    blobs = bytearray()
    head = json.dumps({"seq": seq, "op": op,
                       "payload": encode_payload(payload, blobs)},
                      separators=(",", ":")).encode("utf-8")
    if not blobs:
        return head
    return b"".join((head, b"\n", blobs))


def _decode_record(body: bytes) -> "tuple[int, str, Any]":
    """Invert :func:`encode_record`: ``(seq, op, payload)``.

    Raises ``ValueError`` / ``KeyError`` / ``TypeError`` on a body that
    does not decode.
    """
    newline = body.find(b"\n")
    if newline < 0:
        head, blobs = body, None
    else:
        head, blobs = body[:newline], memoryview(body)[newline + 1:]
    decoded = json.loads(head.decode("utf-8"))
    return (int(decoded["seq"]), str(decoded["op"]),
            decode_payload(decoded.get("payload"), blobs=blobs))


@dataclass(frozen=True)
class WALRecord:
    """One replayable mutation: sequence number, operation, payload."""

    seq: int
    op: str
    payload: Any


class WriteAheadLog:
    """Append-before-apply mutation journal (see module docstring)."""

    def __init__(self, path: "str | os.PathLike", *,
                 fsync: str = "interval", fsync_interval: int = 8,
                 faults: "FaultInjector | None" = None,
                 metrics=None) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValidationError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if fsync_interval < 1:
            raise ValidationError(
                f"fsync_interval must be >= 1, got {fsync_interval}")
        self.path = Path(path)
        self.fsync_policy = fsync
        self.fsync_interval = fsync_interval
        self.faults = faults if faults is not None else NO_FAULTS
        self._metrics = metrics
        self._since_fsync = 0
        if self.path.exists():
            records, valid_end, base_seq = self._scan(self.path)
            # A torn tail survives on disk until now; cut it off so new
            # appends continue from the last *valid* record.
            if valid_end < self.path.stat().st_size:
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_end)
            self._base_seq = base_seq
            self._last_seq = records[-1].seq if records else base_seq
            self._record_count = len(records)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._base_seq = 0
            self._last_seq = 0
            self._record_count = 0
            with open(self.path, "wb") as handle:
                handle.write(_HEADER.pack(_MAGIC, 0))
                handle.flush()
                os.fsync(handle.fileno())
        self._handle = open(self.path, "ab")
        self._export_gauges()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest record (base when empty)."""
        return self._last_seq

    @property
    def base_seq(self) -> int:
        """The sequence this log starts after (checkpoint coverage)."""
        return self._base_seq

    @property
    def record_count(self) -> int:
        """Records currently in the log file."""
        return self._record_count

    def _export_gauges(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("wal.records").set(self._record_count)
            self._metrics.gauge("wal.seq").set(self._last_seq)

    # ------------------------------------------------------------------ #
    # Append path
    # ------------------------------------------------------------------ #

    def append(self, op: str, payload: Any) -> int:
        """Journal one mutation; returns its sequence number.

        The record is on its way to disk (per the fsync policy) when this
        returns — the caller applies the mutation in memory only *after*.
        A failure here (including an injected crash) leaves the in-memory
        state untouched.
        """
        seq = self._last_seq + 1
        body = encode_record(seq, op, payload)
        header = _RECORD_HEADER.pack(len(body), zlib.crc32(body))
        # Header first, flushed separately: a crash between the two writes
        # leaves a header that promises more bytes than the file holds —
        # exactly the torn tail replay must drop.
        self._handle.write(header)
        self._handle.flush()
        self.faults.fire("wal.mid_record")
        self._handle.write(body)
        self._handle.flush()
        self.faults.fire("wal.before_fsync")
        self._maybe_fsync()
        self.faults.fire("wal.after_fsync")
        self._last_seq = seq
        self._record_count += 1
        self._export_gauges()
        return seq

    def _maybe_fsync(self) -> None:
        if self.fsync_policy == "off":
            return
        self._since_fsync += 1
        if (self.fsync_policy == "always"
                or self._since_fsync >= self.fsync_interval):
            self._fsync_now()

    def _fsync_now(self) -> None:
        start = time.perf_counter()
        os.fsync(self._handle.fileno())
        if self._metrics is not None:
            self._metrics.histogram("wal.fsync").record(
                time.perf_counter() - start)
        self._since_fsync = 0

    def sync(self) -> None:
        """Force everything buffered onto disk regardless of policy."""
        self._handle.flush()
        self._fsync_now()

    # ------------------------------------------------------------------ #
    # Replay path
    # ------------------------------------------------------------------ #

    @classmethod
    def _scan(cls, path: Path) -> "tuple[list[WALRecord], int, int]":
        """Decode a log file: ``(records, valid_end_offset, base_seq)``.

        Applies the torn-tail rule: an incomplete or checksum-failing
        *final* record is dropped (``valid_end_offset`` excludes it);
        anything invalid with valid bytes after it raises
        :class:`WALCorruptionError`.
        """
        data = path.read_bytes()
        if len(data) < _HEADER.size:
            raise WALCorruptionError(
                f"WAL {path} is shorter than its header ({len(data)} bytes)")
        magic, base_seq = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise WALCorruptionError(f"WAL {path} has bad magic {magic!r}")
        records: list[WALRecord] = []
        offset = _HEADER.size
        expected = base_seq + 1
        while offset < len(data):
            if offset + _RECORD_HEADER.size > len(data):
                break  # torn tail: header itself is incomplete
            length, crc = _RECORD_HEADER.unpack_from(data, offset)
            body_start = offset + _RECORD_HEADER.size
            body_end = body_start + length
            if body_end > len(data):
                break  # torn tail: body shorter than the header promised
            body = data[body_start:body_end]
            if zlib.crc32(body) != crc:
                if body_end == len(data):
                    break  # torn tail: final record garbled mid-write
                raise WALCorruptionError(
                    f"WAL {path} record at offset {offset} fails its "
                    f"checksum with {len(data) - body_end} valid bytes "
                    f"after it — log damaged at rest")
            try:
                seq, op, payload = _decode_record(body)
            except (ValueError, KeyError, TypeError) as exc:
                raise WALCorruptionError(
                    f"WAL {path} record at offset {offset} passed its "
                    f"checksum but does not decode: {exc}") from exc
            if seq != expected:
                raise WALCorruptionError(
                    f"WAL {path} record at offset {offset} has sequence "
                    f"{seq}, expected {expected} — log damaged at rest")
            records.append(WALRecord(seq=seq, op=op, payload=payload))
            expected += 1
            offset = body_end
        return records, offset, base_seq

    def replay(self, *, after_seq: "int | None" = None) -> list[WALRecord]:
        """Decode every durable record with ``seq > after_seq``, in order.

        ``after_seq`` defaults to the log's base sequence (i.e. everything
        in the file) — recovery passes the checkpoint's covered sequence.
        """
        self._handle.flush()
        records, _, base_seq = self._scan(self.path)
        floor = base_seq if after_seq is None else after_seq
        return [record for record in records if record.seq > floor]

    # ------------------------------------------------------------------ #
    # Truncation (after a checkpoint)
    # ------------------------------------------------------------------ #

    def truncate(self, upto_seq: int) -> int:
        """Drop every record with ``seq <= upto_seq``; returns records kept.

        A checkpoint covering ``upto_seq`` makes those records redundant.
        The trim is crash-atomic: the surviving suffix is staged in a temp
        file (new base sequence in the header), fsynced, and swapped in
        with ``os.replace`` — a crash leaves either the old complete log or
        the new one.
        """
        if upto_seq < self._base_seq:
            raise DurabilityError(
                f"cannot truncate to {upto_seq}: log already starts after "
                f"{self._base_seq}")
        self._handle.flush()
        records, _, _ = self._scan(self.path)
        kept = [record for record in records if record.seq > upto_seq]
        tmp = self.path.with_name(self.path.name + ".truncate.tmp")
        with open(tmp, "wb") as handle:
            handle.write(_HEADER.pack(_MAGIC, upto_seq))
            for record in kept:
                body = encode_record(record.seq, record.op, record.payload)
                handle.write(_RECORD_HEADER.pack(len(body), zlib.crc32(body)))
                handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        self.faults.fire("wal.truncate")
        self._handle.close()
        os.replace(tmp, self.path)
        self._handle = open(self.path, "ab")
        self._base_seq = upto_seq
        self._last_seq = kept[-1].seq if kept else upto_seq
        self._record_count = len(kept)
        self._since_fsync = 0
        self._export_gauges()
        return len(kept)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Flush, sync, and release the file handle."""
        if self._handle.closed:
            return
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        finally:
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
