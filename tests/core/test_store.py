"""Durability layer: WAL framing, snapshots, corruption-tolerant replay."""

import os
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ParamError
from repro.core.store import (
    DurabilityPolicy,
    FileGossipLog,
    GossipLog,
    MemoryGossipLog,
    ReplayResult,
)
from repro.obs.hub import MetricsHub

RECORDS = [
    {"type": "msg", "id": "m-1", "data": b"\x00\x01wire", "at": 1.5, "origin": "sim://a"},
    {"type": "fifo", "origin": "sim://a", "next": 3},
    {"type": "pub_seq", "value": 7},
]


def make_file_log(tmp_path, **kwargs):
    kwargs.setdefault("fsync", "never")
    return FileGossipLog(str(tmp_path / "node.wal"), **kwargs)


class TestMemoryGossipLog:
    def test_roundtrip(self):
        log = MemoryGossipLog()
        for record in RECORDS:
            log.append(record)
        result = log.replay()
        assert result.records == RECORDS
        assert result.snapshot is None
        assert result.clean

    def test_snapshot_compacts_wal(self):
        log = MemoryGossipLog()
        log.append(RECORDS[0])
        log.write_snapshot({"pub_seq": 7})
        log.append(RECORDS[1])
        result = log.replay()
        assert result.snapshot == {"pub_seq": 7}
        assert result.records == [RECORDS[1]]
        assert log.appends_since_snapshot == 1

    def test_clear_discards_everything(self):
        log = MemoryGossipLog()
        log.append(RECORDS[0])
        log.write_snapshot({"pub_seq": 7})
        log.clear()
        result = log.replay()
        assert result.snapshot is None
        assert result.records == []


class TestFileGossipLog:
    def test_roundtrip_survives_reopen(self, tmp_path):
        log = make_file_log(tmp_path)
        for record in RECORDS:
            log.append(record)
        log.close()
        reopened = make_file_log(tmp_path)
        result = reopened.replay()
        assert result.records == RECORDS
        assert result.clean
        # bytes values survive the JSON+base64 framing byte-for-byte
        assert result.records[0]["data"] == b"\x00\x01wire"

    def test_snapshot_then_tail(self, tmp_path):
        log = make_file_log(tmp_path)
        log.append(RECORDS[0])
        log.write_snapshot({"pub_seq": 7, "seen": ["m-1"]})
        log.append(RECORDS[1])
        result = log.replay()
        assert result.snapshot == {"pub_seq": 7, "seen": ["m-1"]}
        assert result.records == [RECORDS[1]]
        assert result.clean

    def test_truncated_tail_stops_without_crashing(self, tmp_path):
        log = make_file_log(tmp_path)
        for record in RECORDS:
            log.append(record)
        log.close()
        # A torn final write: a header claiming more payload than exists.
        with open(tmp_path / "node.wal", "ab") as handle:
            handle.write(struct.pack("<II", 4096, 0xDEAD) + b"short")
        result = make_file_log(tmp_path).replay()
        assert result.records == RECORDS
        assert result.truncated_tail
        assert not result.clean

    def test_partial_header_is_truncated_tail(self, tmp_path):
        log = make_file_log(tmp_path)
        log.append(RECORDS[0])
        log.close()
        with open(tmp_path / "node.wal", "ab") as handle:
            handle.write(b"\x03")  # less than one length+crc header
        result = make_file_log(tmp_path).replay()
        assert result.records == [RECORDS[0]]
        assert result.truncated_tail

    def test_corrupt_record_skipped_not_fatal(self, tmp_path):
        log = make_file_log(tmp_path)
        log.append(RECORDS[0])
        log.append(RECORDS[1])
        log.append(RECORDS[2])
        log.close()
        # Flip a payload byte in the middle record; its CRC now mismatches.
        path = tmp_path / "node.wal"
        data = bytearray(path.read_bytes())
        first_len = struct.unpack_from("<II", data, 0)[0]
        middle_payload_offset = 8 + first_len + 8 + 4
        data[middle_payload_offset] ^= 0xFF
        path.write_bytes(bytes(data))
        result = make_file_log(tmp_path).replay()
        # Only the damaged record is lost; neighbours replay fine.
        assert result.records == [RECORDS[0], RECORDS[2]]
        assert result.corrupt_records == 1
        assert not result.truncated_tail

    def test_corrupt_snapshot_ignored(self, tmp_path):
        log = make_file_log(tmp_path)
        log.append(RECORDS[0])
        log.write_snapshot({"pub_seq": 7})
        log.append(RECORDS[1])
        log.close()
        snap = tmp_path / "node.wal.snap"
        snap.write_bytes(b"\xba\xad" * 10)
        result = make_file_log(tmp_path).replay()
        assert result.snapshot is None
        assert result.snapshot_corrupt
        # WAL accounting unpolluted by the snapshot damage
        assert result.corrupt_records == 0
        assert result.records == [RECORDS[1]]

    def test_clear_removes_snapshot_and_wal(self, tmp_path):
        log = make_file_log(tmp_path)
        log.append(RECORDS[0])
        log.write_snapshot({"pub_seq": 1})
        log.clear()
        result = log.replay()
        assert result.snapshot is None
        assert result.records == []
        assert not os.path.exists(tmp_path / "node.wal.snap")

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ParamError) as excinfo:
            make_file_log(tmp_path, fsync="sometimes")
        assert excinfo.value.key == "fsync"
        with pytest.raises(ParamError) as excinfo:
            make_file_log(tmp_path, fsync="batch", fsync_every=0)
        assert excinfo.value.key == "fsync_every"

    def test_always_fsync_roundtrip(self, tmp_path):
        log = FileGossipLog(str(tmp_path / "node.wal"), fsync="always")
        log.append(RECORDS[0])
        assert log.replay().records == [RECORDS[0]]
        log.close()


# -- replay never raises, whatever the damage -----------------------------------

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.binary(max_size=24),
)
WAL_RECORDS = st.dictionaries(
    st.sampled_from(["type", "id", "data", "at", "origin", "next"]),
    VALUES | st.lists(VALUES, max_size=3),
    max_size=4,
)


def _is_subsequence(found, appended):
    remaining = iter(appended)
    return all(any(record == candidate for candidate in remaining) for record in found)


@st.composite
def damaged_logs(draw):
    """Records appended after an optional snapshot, and one damage to them."""
    snapshot = draw(st.none() | WAL_RECORDS)
    records = draw(st.lists(WAL_RECORDS, max_size=6))
    frames = [FileGossipLog._frame(record) for record in records]
    wal_size = sum(len(frame) for frame in frames)
    kinds = ["truncate"]
    if records:
        kinds.append("flip-wal")
    if snapshot is not None:
        kinds.append("flip-snapshot")
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        offset = draw(st.integers(0, wal_size))
    elif kind == "flip-wal":
        offset = draw(st.integers(0, wal_size - 1))
    else:
        offset = draw(st.integers(0, len(FileGossipLog._frame(snapshot)) - 1))
    mask = draw(st.integers(1, 255))
    return snapshot, records, frames, kind, offset, mask


@settings(max_examples=300, deadline=None)
@given(damaged_logs())
def test_replay_survives_any_truncation_or_byte_flip(case):
    snapshot, records, frames, kind, offset, mask = case
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "node.wal")
        log = FileGossipLog(path, fsync="never", hub=MetricsHub())
        if snapshot is not None:
            log.write_snapshot(snapshot)
        for record in records:
            log.append(record)
        log.close()
        damaged = path + ".snap" if kind == "flip-snapshot" else path
        with open(damaged, "r+b") as handle:
            if kind == "truncate":
                handle.truncate(offset)
            else:
                handle.seek(offset)
                byte = handle.read(1)[0]
                handle.seek(offset)
                handle.write(bytes([byte ^ mask]))
        result = FileGossipLog(path, fsync="never", hub=MetricsHub()).replay()

    assert _is_subsequence(result.records, records)
    if kind == "flip-snapshot":
        assert result.snapshot is None and result.snapshot_corrupt
        assert result.records == records
        assert result.corrupt_records == 0 and not result.truncated_tail
        return
    assert result.snapshot == snapshot and not result.snapshot_corrupt
    ends = [sum(len(frame) for frame in frames[: index + 1]) for index in range(len(frames))]
    if kind == "truncate":
        complete = sum(1 for end in ends if end <= offset)
        assert result.records == records[:complete]
        assert result.truncated_tail == (offset not in [0] + ends)
        assert result.corrupt_records == 0
        return
    damaged_index = next(index for index, end in enumerate(ends) if offset < end)
    start = ends[damaged_index] - len(frames[damaged_index])
    assert result.records[:damaged_index] == records[:damaged_index]
    if offset - start >= 4:
        # CRC or payload byte: exactly the damaged record is lost.
        assert result.records == records[:damaged_index] + records[damaged_index + 1 :]
        assert result.corrupt_records == 1 and not result.truncated_tail
    else:
        # Length field: the damaged record and possibly the tail are lost.
        assert _is_subsequence(result.records[damaged_index:], records[damaged_index + 1 :])
        assert result.corrupt_records or result.truncated_tail


class TestDurabilityPolicy:
    def test_defaults_valid(self):
        policy = DurabilityPolicy()
        assert policy.mode == "memory"
        assert policy.catch_up

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"mode": "tape"}, "mode"),
            ({"mode": "file"}, "directory"),
            ({"fsync": "sometimes"}, "fsync"),
            ({"snapshot_every": 0}, "snapshot_every"),
        ],
    )
    def test_validation_names_the_key(self, overrides, key):
        with pytest.raises(ParamError) as excinfo:
            DurabilityPolicy(**overrides)
        assert excinfo.value.key == key

    def test_from_value_rejects_unknown_keys(self):
        with pytest.raises(ParamError) as excinfo:
            DurabilityPolicy.from_value({"snapshot_cadence": 5})
        assert excinfo.value.key == "snapshot_cadence"

    def test_from_value_to_value_roundtrip(self):
        policy = DurabilityPolicy.from_value(
            {"snapshot_every": 32, "catch_up": False}
        )
        assert policy.snapshot_every == 32
        assert DurabilityPolicy.from_value(policy.to_value()) == policy

    def test_with_overrides(self):
        policy = DurabilityPolicy().with_overrides(catch_up=False)
        assert not policy.catch_up
        with pytest.raises(ParamError):
            policy.with_overrides(nope=1)

    def test_make_log_memory(self):
        assert isinstance(DurabilityPolicy().make_log("n1"), MemoryGossipLog)

    def test_make_log_file_slugifies(self, tmp_path):
        policy = DurabilityPolicy(mode="file", directory=str(tmp_path))
        log = policy.make_log("sim://node-1/app:urn:activity")
        assert isinstance(log, FileGossipLog)
        assert os.path.dirname(log.path) == str(tmp_path)
        assert "/" not in os.path.basename(log.path).replace(".wal", "")
        log.close()


def test_snapshot_cadence_tracked_by_base_class():
    log = MemoryGossipLog()
    for index in range(5):
        log.append({"type": "pub_seq", "value": index})
    assert log.appends_since_snapshot == 5
    log.write_snapshot({})
    assert log.appends_since_snapshot == 0


def test_replay_result_clean_flag():
    assert ReplayResult().clean
    assert not ReplayResult(corrupt_records=1).clean
    assert not ReplayResult(truncated_tail=True).clean
    assert not ReplayResult(snapshot_corrupt=True).clean
