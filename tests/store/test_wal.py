"""Write-ahead log unit tests: framing, torn tails, corruption, truncate."""

import struct
import zlib

import numpy as np
import pytest

from repro.errors import DurabilityError, ValidationError, WALCorruptionError
from repro.store.faults import CrashPoint, FaultInjector
from repro.store.wal import (WriteAheadLog, decode_payload, encode_payload)


@pytest.fixture()
def wal_path(tmp_path):
    return tmp_path / "wal.log"


def read_records(path):
    wal = WriteAheadLog(path)
    try:
        return wal.replay()
    finally:
        wal.close()


# --------------------------------------------------------------------- #
# Payload codec
# --------------------------------------------------------------------- #

def test_payload_roundtrip_scalars_and_containers():
    payload = {"name": "patch_1", "k": 10, "pi": 3.5, "flag": True,
               "nothing": None, "items": [1, "two", [3.0, False]]}
    assert decode_payload(encode_payload(payload)) == payload


def test_payload_roundtrip_bytes_and_arrays():
    rng = np.random.default_rng(3)
    payload = {
        "blob": b"\x00\xff raw bytes",
        "features": rng.normal(size=17),
        "codes": rng.integers(0, 2**63, size=(4, 2)).astype(np.uint64),
        "bands": {"B02": rng.random((6, 6)).astype(np.float32)},
    }
    decoded = decode_payload(encode_payload(payload))
    assert decoded["blob"] == payload["blob"]
    for key in ("features", "codes"):
        assert decoded[key].dtype == payload[key].dtype
        np.testing.assert_array_equal(decoded[key], payload[key])
    band = decoded["bands"]["B02"]
    assert band.dtype == np.float32
    np.testing.assert_array_equal(band, payload["bands"]["B02"])


def test_payload_reserved_keys_escape():
    for tricky in ({"__bytes__": "not base64!"},
                   {"__nd__": "user data"},
                   {"__esc__": True, "value": {"x": 1}},
                   {"__bytes__": b"real bytes", "other": 1}):
        assert decode_payload(encode_payload(tricky)) == tricky


def test_payload_numpy_scalars_become_python():
    encoded = encode_payload({"n": np.int64(7), "x": np.float64(1.5),
                              "b": np.bool_(True)})
    assert encoded == {"n": 7, "x": 1.5, "b": True}


# --------------------------------------------------------------------- #
# Append / replay basics
# --------------------------------------------------------------------- #

def test_append_assigns_monotone_sequences(wal_path):
    with WriteAheadLog(wal_path) as wal:
        assert [wal.append("op", {"i": i}) for i in range(5)] == [1, 2, 3, 4, 5]
        assert wal.last_seq == 5
        assert wal.record_count == 5
        records = wal.replay()
    assert [r.seq for r in records] == [1, 2, 3, 4, 5]
    assert [r.payload["i"] for r in records] == list(range(5))


def test_replay_survives_reopen(wal_path):
    with WriteAheadLog(wal_path, fsync="off") as wal:
        wal.append("insert", {"doc": {"name": "a", "blob": b"\x01\x02"}})
        wal.append("delete", {"name": "a"})
    records = read_records(wal_path)
    assert [(r.seq, r.op) for r in records] == [(1, "insert"), (2, "delete")]
    assert records[0].payload["doc"]["blob"] == b"\x01\x02"


def test_reopen_continues_sequence_numbers(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("a", {})
        wal.append("b", {})
    with WriteAheadLog(wal_path) as wal:
        assert wal.append("c", {}) == 3
        assert [r.seq for r in wal.replay()] == [1, 2, 3]


def test_replay_after_seq_filters(wal_path):
    with WriteAheadLog(wal_path) as wal:
        for i in range(4):
            wal.append("op", {"i": i})
        assert [r.seq for r in wal.replay(after_seq=2)] == [3, 4]


@pytest.mark.parametrize("policy", ["always", "interval", "off"])
def test_fsync_policies_all_preserve_records(wal_path, policy):
    with WriteAheadLog(wal_path, fsync=policy, fsync_interval=3) as wal:
        for i in range(7):
            wal.append("op", {"i": i})
    assert [r.payload["i"] for r in read_records(wal_path)] == list(range(7))


def test_invalid_fsync_policy_rejected(wal_path):
    with pytest.raises(ValidationError):
        WriteAheadLog(wal_path, fsync="sometimes")
    with pytest.raises(ValidationError):
        WriteAheadLog(wal_path, fsync="interval", fsync_interval=0)


# --------------------------------------------------------------------- #
# Torn tails (expected after a crash) vs mid-log corruption (damage)
# --------------------------------------------------------------------- #

def _truncated(path, drop: int) -> bytes:
    data = path.read_bytes()
    return data[:len(data) - drop]


def test_torn_final_body_is_dropped(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("keep", {"i": 1})
        wal.append("torn", {"i": 2})
    wal_path.write_bytes(_truncated(wal_path, 5))
    records = read_records(wal_path)
    assert [r.op for r in records] == ["keep"]


def test_torn_header_is_dropped(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("keep", {"i": 1})
        end = wal_path.stat().st_size
        wal.append("torn", {"i": 2})
    # leave only 3 bytes of the second record's 8-byte header
    wal_path.write_bytes(wal_path.read_bytes()[:end + 3])
    assert [r.op for r in read_records(wal_path)] == ["keep"]


def test_corrupt_final_record_is_dropped(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("keep", {"i": 1})
        wal.append("garbled", {"i": 2})
    data = bytearray(wal_path.read_bytes())
    data[-1] ^= 0xFF  # flip a bit inside the final record's body
    wal_path.write_bytes(bytes(data))
    assert [r.op for r in read_records(wal_path)] == ["keep"]


def test_reopen_truncates_torn_tail_before_appending(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("keep", {"i": 1})
        wal.append("torn", {"i": 2})
    wal_path.write_bytes(_truncated(wal_path, 5))
    with WriteAheadLog(wal_path) as wal:
        assert wal.record_count == 1
        # the torn record's sequence (2) is reused by the next append:
        # it was never durable, so it never existed
        assert wal.append("next", {"i": 3}) == 2
        assert [(r.seq, r.op) for r in wal.replay()] == [(1, "keep"),
                                                         (2, "next")]


def test_midlog_corruption_raises(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("first", {"i": 1})
        first_end = wal_path.stat().st_size
        wal.append("second", {"i": 2})
    data = bytearray(wal_path.read_bytes())
    data[first_end - 2] ^= 0xFF  # damage the FIRST record's body
    wal_path.write_bytes(bytes(data))
    with pytest.raises(WALCorruptionError, match="damaged at rest"):
        read_records(wal_path)


def test_sequence_gap_raises(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("first", {"i": 1})
    # hand-craft a CRC-valid record with the wrong sequence number
    body = b'{"seq":7,"op":"bogus","payload":{}}'
    with open(wal_path, "ab") as handle:
        handle.write(struct.pack("<II", len(body), zlib.crc32(body)))
        handle.write(body)
    with pytest.raises(WALCorruptionError, match="sequence"):
        read_records(wal_path)


def test_bad_magic_raises(wal_path):
    wal_path.write_bytes(b"NOTAWAL!" + b"\x00" * 8)
    with pytest.raises(WALCorruptionError, match="magic"):
        read_records(wal_path)


# --------------------------------------------------------------------- #
# Truncation
# --------------------------------------------------------------------- #

def test_truncate_drops_covered_prefix(wal_path):
    with WriteAheadLog(wal_path) as wal:
        for i in range(6):
            wal.append("op", {"i": i})
        kept = wal.truncate(4)
        assert kept == 2
        assert wal.base_seq == 4
        assert wal.record_count == 2
        assert [r.seq for r in wal.replay()] == [5, 6]
        # appends continue the global sequence
        assert wal.append("more", {}) == 7
    assert [r.seq for r in read_records(wal_path)] == [5, 6, 7]


def test_truncate_everything_leaves_empty_log(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("a", {})
        wal.append("b", {})
        assert wal.truncate(2) == 0
        assert wal.record_count == 0
        assert wal.append("c", {}) == 3


def test_truncate_below_base_rejected(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("a", {})
        wal.truncate(1)
        with pytest.raises(DurabilityError):
            wal.truncate(0)


def test_truncate_crash_leaves_old_log_intact(wal_path):
    faults = FaultInjector()
    with WriteAheadLog(wal_path, faults=faults) as wal:
        for i in range(3):
            wal.append("op", {"i": i})
        faults.arm("wal.truncate")
        with pytest.raises(CrashPoint):
            wal.truncate(2)
    # the replace never happened: all three records still readable
    assert [r.seq for r in read_records(wal_path)] == [1, 2, 3]
    # the staged temp file is the only debris
    assert all(p.name.endswith(".truncate.tmp")
               for p in wal_path.parent.iterdir() if p != wal_path)


# --------------------------------------------------------------------- #
# Injected crashes in the append path
# --------------------------------------------------------------------- #

def test_crash_mid_record_leaves_droppable_torn_tail(wal_path):
    faults = FaultInjector()
    wal = WriteAheadLog(wal_path, faults=faults)
    wal.append("durable", {"i": 1})
    faults.arm("wal.mid_record")
    with pytest.raises(CrashPoint):
        wal.append("torn", {"i": 2})
    wal.close()
    assert [r.op for r in read_records(wal_path)] == ["durable"]


def test_crash_before_fsync_keeps_flushed_record(wal_path):
    # The record reached the OS before the "crash"; same-machine restart
    # (no power loss) sees it — replay keeps it.
    faults = FaultInjector()
    wal = WriteAheadLog(wal_path, faults=faults)
    faults.arm("wal.before_fsync")
    with pytest.raises(CrashPoint):
        wal.append("flushed", {"i": 1})
    wal.close()
    assert [r.op for r in read_records(wal_path)] == ["flushed"]


def test_crash_on_nth_hit(wal_path):
    faults = FaultInjector()
    wal = WriteAheadLog(wal_path, fsync="always", faults=faults)
    faults.arm("wal.after_fsync", hits=3)
    wal.append("one", {})
    wal.append("two", {})
    with pytest.raises(CrashPoint) as crash:
        wal.append("three", {})
    assert crash.value.point == "wal.after_fsync"
    assert crash.value.hit == 3
    wal.close()
    # all three records are durable; only the in-memory apply was lost
    assert [r.op for r in read_records(wal_path)] == ["one", "two", "three"]


def test_metrics_gauges_track_wal(wal_path):
    from repro.obs.metrics import MetricsRegistry
    metrics = MetricsRegistry()
    with WriteAheadLog(wal_path, fsync="always", metrics=metrics) as wal:
        wal.append("op", {})
        wal.append("op", {})
    snapshot = metrics.snapshot()
    assert snapshot["gauges"]["wal.records"] == 2
    assert snapshot["gauges"]["wal.seq"] == 2
    assert snapshot["latency"]["wal.fsync"]["count"] == 2
