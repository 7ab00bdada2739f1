"""Write-ahead log unit tests: framing, record format, torn tails,
corruption, truncate."""

import json
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
# Record format: JSON head, then the arrays' raw bytes
# --------------------------------------------------------------------- #

def _frame(body: bytes) -> bytes:
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


def _bodies(path):
    """Every record body in a log file, in order."""
    data = path.read_bytes()
    offset, bodies = 16, []
    while offset < len(data):
        length, _ = struct.unpack_from("<II", data, offset)
        bodies.append(data[offset + 8:offset + 8 + length])
        offset += 8 + length
    return bodies


def _odd_arrays():
    rng = np.random.default_rng(11)
    return {
        "f32": rng.random((5, 3)).astype(np.float32),
        "f64": rng.normal(size=7),
        "u64": rng.integers(0, 2**64 - 1, size=4, dtype=np.uint64),
        "zero_d": np.array(2.5),
        "strided": np.arange(24, dtype=np.int32).reshape(4, 6)[:, ::2],
        "big_endian": rng.random(6).astype(">f8"),
        "empty": np.zeros((0, 3), dtype=np.float32),
    }


def _assert_bit_exact(decoded, original):
    assert decoded.dtype == original.dtype
    assert decoded.shape == original.shape
    assert decoded.tobytes() == original.tobytes()


def test_arrays_round_trip_bit_exact_through_append_and_replay(wal_path):
    arrays = _odd_arrays()
    payload = {"top": arrays, "nested": [{"inner": list(arrays.values())}],
               "blob_bytes": b"\x00\n\xff"}
    with WriteAheadLog(wal_path, fsync="off") as wal:
        wal.append("arrays", payload)
    [record] = read_records(wal_path)
    for key, original in arrays.items():
        _assert_bit_exact(record.payload["top"][key], original)
    for decoded, original in zip(record.payload["nested"][0]["inner"],
                                 arrays.values()):
        _assert_bit_exact(decoded, original)
    assert record.payload["blob_bytes"] == b"\x00\n\xff"


def test_arrays_ride_after_the_head_as_raw_bytes(wal_path):
    band = np.arange(64, dtype=np.float32).reshape(8, 8)
    with WriteAheadLog(wal_path) as wal:
        wal.append("band", {"B02": band})
        wal.append("plain", {"i": 1})
    with_arrays, plain = _bodies(wal_path)
    head, blobs = with_arrays.split(b"\n", 1)
    spec = json.loads(head)["payload"]["B02"]["__nd__"]
    assert spec == {"dtype": "<f4", "shape": [8, 8], "blob": [0, 256]}
    assert blobs == band.tobytes()
    # A record without arrays is the JSON head alone.
    assert plain == b'{"seq":2,"op":"plain","payload":{"i":1}}'


def test_inline_encoded_record_replays_and_survives_truncate(wal_path):
    arrays = _odd_arrays()
    with WriteAheadLog(wal_path) as wal:
        wal.append("first", {"i": 1})
    # A record body as written before the blob section existed.
    legacy = json.dumps({"seq": 2, "op": "legacy",
                         "payload": encode_payload({"arrays": arrays})},
                        separators=(",", ":")).encode("utf-8")
    assert b"\n" not in legacy
    with open(wal_path, "ab") as handle:
        handle.write(_frame(legacy))
    with WriteAheadLog(wal_path) as wal:
        assert wal.append("third", {"band": arrays["f32"]}) == 3
        [legacy_record] = [r for r in wal.replay() if r.op == "legacy"]
        for key, original in arrays.items():
            _assert_bit_exact(legacy_record.payload["arrays"][key], original)
        assert wal.truncate(1) == 2
        records = wal.replay()
    assert [r.op for r in records] == ["legacy", "third"]
    for key, original in arrays.items():
        _assert_bit_exact(records[0].payload["arrays"][key], original)
    _assert_bit_exact(records[1].payload["band"], arrays["f32"])


def test_flipped_byte_in_a_midlog_blob_section_raises(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("arrays", {"band": np.ones(32, dtype=np.float32)})
        first_end = wal_path.stat().st_size
        wal.append("after", {"i": 2})
    data = bytearray(wal_path.read_bytes())
    data[first_end - 10] ^= 0x01  # inside the first record's blob section
    wal_path.write_bytes(bytes(data))
    with pytest.raises(WALCorruptionError, match="damaged at rest"):
        read_records(wal_path)


def test_final_record_cut_inside_its_blob_section_is_torn(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("keep", {"i": 1})
        wal.append("torn", {"band": np.ones(32, dtype=np.float32)})
    wal_path.write_bytes(_truncated(wal_path, 40))  # 128 blob bytes
    assert [r.op for r in read_records(wal_path)] == ["keep"]


@pytest.mark.parametrize("blob", [[0, 9], [4, 8], [-1, 4], [9, 0]])
def test_blob_spec_outside_the_section_raises(wal_path, blob):
    with WriteAheadLog(wal_path) as wal:
        wal.append("first", {"i": 1})
    spec = {"dtype": "<u8", "shape": [blob[1] // 8], "blob": blob}
    head = json.dumps({"seq": 2, "op": "bad",
                       "payload": {"codes": {"__nd__": spec}}})
    with open(wal_path, "ab") as handle:
        handle.write(_frame(head.encode() + b"\n" + bytes(8)))
    with pytest.raises(WALCorruptionError, match="does not decode"):
        read_records(wal_path)


def test_user_dict_shaped_like_a_blob_spec_comes_back_verbatim(wal_path):
    lookalike = {"__nd__": {"dtype": "<f4", "shape": [1], "blob": [0, 4]}}
    payload = {"doc": lookalike, "band": np.ones(1, dtype=np.float32)}
    with WriteAheadLog(wal_path) as wal:
        wal.append("tricky", payload)
    [record] = read_records(wal_path)
    assert record.payload["doc"] == lookalike
    _assert_bit_exact(record.payload["band"], payload["band"])


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
