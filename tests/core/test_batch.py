"""Tests for multi-rumor batched envelopes: codec, chunking, interop, WAL.

The codec tests exercise the byte-level assemble/split path in isolation;
the end-to-end tests run whole groups with batching on and assert that the
batched wire path disseminates, interoperates with unbatched peers, and
survives crash-recovery replay.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import GossipConfig, ParamError
from repro.core.batch import (
    BATCH_MARKER,
    BatchControl,
    BatchError,
    batch_has_control,
    build_batch,
    control_from_element,
    is_batch_frame,
    scan_batch_activity,
    scan_batch_control,
    scan_batch_holder,
    split_batch,
    strip_declaration,
)
from repro.core.params import GossipParams
from repro.obs.hub import default_hub
from repro.soap import namespaces as ns


FRAMES = [
    b"<?xml version='1.0' encoding='utf-8'?>\n<frame n='0'>alpha</frame>",
    b"<frame n='1'>beta &amp; gamma</frame>",
    b"<frame n='2'/>",
]

# Reset around every test by the shared autouse fixture in conftest.py.
BATCH_STATS = default_hub().batch


# -- codec --------------------------------------------------------------------


class TestCodec:
    def test_round_trip_frames(self):
        data = build_batch("urn:act", "sim://node-1/gossip", FRAMES)
        assert is_batch_frame(data)
        assert split_batch(data) == [strip_declaration(f) for f in FRAMES]

    def test_scan_attributes(self):
        data = build_batch("urn:act:a&b", "sim://node<odd>/gossip", FRAMES)
        assert scan_batch_activity(data) == "urn:act:a&b"
        assert scan_batch_holder(data) == "sim://node<odd>/gossip"
        assert not batch_has_control(data)

    def test_empty_batch(self):
        data = build_batch("urn:act", "sim://n/gossip", [])
        assert split_batch(data) == []

    def test_strip_declaration(self):
        assert strip_declaration(FRAMES[0]).startswith(b"<frame")
        assert strip_declaration(b"<no-decl/>") == b"<no-decl/>"

    def test_legacy_frame_has_no_marker(self):
        # Interop invariant: unbatched traffic must never look like a batch.
        for frame in FRAMES:
            assert BATCH_MARKER not in frame
            assert not is_batch_frame(frame)

    def test_split_rejects_corrupt_sizes(self):
        data = build_batch("urn:act", "sim://n/gossip", FRAMES)
        sizes_at = data.find(b"<g:Sizes>") + len(b"<g:Sizes>")
        corrupted = data[:sizes_at] + b"9999 " + data[sizes_at:]
        with pytest.raises(BatchError):
            split_batch(corrupted)

    def test_split_rejects_non_numeric_sizes(self):
        data = build_batch("urn:act", "sim://n/gossip", FRAMES)
        with pytest.raises(BatchError):
            split_batch(data.replace(b"<g:Sizes>", b"<g:Sizes>bogus "))

    def test_control_round_trip(self):
        control = BatchControl(
            ads=[(["id-1", "id-2"], 3), (["id-3"], 1)],
            feedback=["id-4", "id & escaped"],
            digest=(["id-5", "id-6"], "req"),
        )
        data = build_batch("urn:act", "sim://n/gossip", FRAMES, control)
        assert batch_has_control(data)
        scanned = scan_batch_control(data)
        assert scanned is not None
        assert scanned.ads == control.ads
        assert scanned.feedback == control.feedback
        assert scanned.digest == control.digest
        # The rumors still split out unchanged around the control tail.
        assert split_batch(data) == [strip_declaration(f) for f in FRAMES]

    def test_control_only_batch(self):
        control = BatchControl(digest=(["id-1"], "rsp"))
        data = build_batch("urn:act", "sim://n/gossip", [], control)
        assert split_batch(data) == []
        scanned = scan_batch_control(data)
        assert scanned.digest == (["id-1"], "rsp")
        assert scanned.section_count() == 1

    def test_scan_control_rejects_foreign_tail(self):
        data = build_batch("urn:act", "sim://n/gossip", FRAMES)
        mangled = data.replace(
            b"</g:Rumors>", b"</g:Rumors><g:Unknown/>"
        )
        assert scan_batch_control(mangled) is None


# -- parameter validation -----------------------------------------------------


class TestParams:
    def test_batch_rumors_floor(self):
        with pytest.raises(ParamError) as excinfo:
            GossipParams(max_batch_rumors=0)
        assert excinfo.value.key == "max_batch_rumors"

    def test_batch_bytes_floor(self):
        with pytest.raises(ParamError) as excinfo:
            GossipParams(max_batch_bytes=512)
        assert excinfo.value.key == "max_batch_bytes"

    def test_defaults_disable_batching(self):
        assert GossipParams().max_batch_rumors == 1


# -- engine chunking ----------------------------------------------------------


def make_group(n=16, seed=11, run_setup=True, **params):
    group = GossipConfig(
        n_disseminators=n,
        seed=seed,
        params=dict({"fanout": 3, "rounds": 6}, **params),
        auto_tune=False,
    ).build()
    if run_setup:
        group.setup(settle=1.0, eager_join=True)
    return group


def engine_of(group, node):
    return node.gossip_layer.engine_for(group.activity_id)


class TestChunking:
    def test_count_cap(self):
        group = make_group(max_batch_rumors=3)
        engine = engine_of(group, group.initiator)
        frames = [b"x" * 10 for _ in range(7)]
        chunks = engine._chunk_frames(frames)
        assert [len(chunk) for chunk in chunks] == [3, 3, 1]

    def test_byte_cap(self):
        group = make_group(max_batch_rumors=64, max_batch_bytes=1024)
        engine = engine_of(group, group.initiator)
        frames = [b"x" * 400 for _ in range(5)]
        chunks = engine._chunk_frames(frames)
        # 400-byte frames against a 1024-byte cap: two per chunk.
        assert [len(chunk) for chunk in chunks] == [2, 2, 1]

    def test_oversized_frame_ships_alone(self):
        group = make_group(max_batch_rumors=64, max_batch_bytes=1024)
        engine = engine_of(group, group.initiator)
        frames = [b"x" * 5000, b"y" * 10]
        chunks = engine._chunk_frames(frames)
        assert [len(chunk) for chunk in chunks] == [1, 1]


# -- end-to-end ---------------------------------------------------------------


class TestEndToEnd:
    def test_batched_dissemination_delivers(self):
        group = make_group(max_batch_rumors=16)
        mids = [group.publish({"tick": index}) for index in range(10)]
        group.run_for(10.0)
        assert all(group.delivered_fraction(mid) == 1.0 for mid in mids)
        assert BATCH_STATS.batches_sent.value > 0
        assert BATCH_STATS.rumors_batched.value > BATCH_STATS.batches_sent.value
        assert BATCH_STATS.batches_received.value > 0
        assert BATCH_STATS.rumors_unpacked.value > 0

    def test_batching_reduces_envelopes(self):
        sent = {}
        for batch in (1, 16):
            group = make_group(seed=9, fanout=4, rounds=8, max_batch_rumors=batch)
            before = group.metrics.counter("soap.sent").value
            mids = [group.publish({"tick": index}) for index in range(10)]
            group.run_for(10.0)
            assert all(group.delivered_fraction(mid) == 1.0 for mid in mids)
            sent[batch] = group.metrics.counter("soap.sent").value - before
        assert sent[16] * 5 <= sent[1]

    def test_unbatched_group_sends_no_batch_frames(self):
        group = make_group()  # max_batch_rumors defaults to 1
        mid = group.publish({"tick": 0})
        group.run_for(6.0)
        assert group.delivered_fraction(mid) == 1.0
        assert BATCH_STATS.batches_sent.value == 0
        assert BATCH_STATS.batches_received.value == 0

    def test_single_rumor_falls_back_to_legacy_frame(self):
        # A batching sender with exactly one rumor and no control ships a
        # plain legacy frame, so unbatched receivers need no new code.
        group = make_group(max_batch_rumors=16)
        mid = group.publish({"tick": 0})
        group.run_for(6.0)
        assert group.delivered_fraction(mid) == 1.0
        assert BATCH_STATS.legacy_singletons.value > 0
        assert BATCH_STATS.batches_sent.value == 0

    def test_duplicate_batch_skipped_before_parse(self):
        group = make_group(max_batch_rumors=16)
        mids = [group.publish({"tick": index}) for index in range(5)]
        group.run_for(10.0)
        node = group.disseminators[0]
        engine = engine_of(group, node)
        frames = [engine.store.get(mid).data for mid in mids]
        batch = build_batch(
            group.activity_id, "sim://replayer/gossip", frames
        )
        skipped_before = BATCH_STATS.batches_skipped_preparse.value
        node.runtime.receive(batch, source="sim://replayer")
        assert BATCH_STATS.batches_skipped_preparse.value == skipped_before + 1

    def test_batched_push_pull_repairs(self):
        # The batched digest exchange ("req" -> frames + "rsp") must still
        # reconcile: lossy push leaves gaps that pull repairs.
        group = make_group(
            n=24, max_batch_rumors=16, style="push-pull", period=0.5
        )
        mids = [group.publish({"tick": index}) for index in range(6)]
        group.run_for(15.0)
        assert all(group.delivered_fraction(mid) == 1.0 for mid in mids)


# -- crash recovery -----------------------------------------------------------


class TestDurability:
    def test_wal_replay_of_batched_run(self):
        group = GossipConfig(
            n_disseminators=16,
            seed=7,
            durability=True,
            params={
                "style": "push",
                "fanout": 3,
                "rounds": 6,
                "max_batch_rumors": 16,
            },
        ).build()
        group.setup(settle=1.0, eager_join=True)
        mids = [group.publish({"k": index}) for index in range(5)]
        group.run_for(5.0)
        assert all(group.delivered_fraction(mid) == 1.0 for mid in mids)
        victim = group.disseminators[0]
        victim.crash()
        group.run_for(1.0)
        victim.restart(amnesia=False)
        # The WAL stores the embedded legacy frames, not batch carriers:
        # replay restores every rumor without any network round trip.
        assert victim.replayed_messages >= len(mids)
        for mid in mids:
            assert victim.has_delivered(mid)


# -- the control codec, proven against the parsed path ------------------------

# Any character XML 1.0 can carry, minus "\r" (a parser normalizes it to
# "\n", so the two paths legitimately differ on it).
XML_TEXT = st.text(
    st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="\r\ufffe\uffff"
        + "".join(chr(c) for c in range(0x20) if c not in (0x9, 0xA)),
    ),
    max_size=12,
)
# Attribute values keep "\r" too: the writer sends it as a character
# reference, which a parser does not normalize.
ATTR_TEXT = st.text(
    st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="\ufffe\uffff"
        + "".join(chr(c) for c in range(0x20) if c not in (0x9, 0xA, 0xD)),
    ),
    max_size=12,
)
IDS = st.lists(XML_TEXT | st.sampled_from(["a&b", "<id>", 'q"uote', "naïve-ü"]), max_size=5)
CONTROLS = st.builds(
    BatchControl,
    ads=st.lists(st.tuples(IDS, st.integers(0, 99)), max_size=3),
    feedback=IDS,
    digest=st.none() | st.tuples(IDS, st.sampled_from(["req", "rsp"])),
    summary=st.none() | st.tuples(st.integers(0, 10**18 - 1), st.integers(0, 2**64 - 1)),
)


def batch_element(data):
    return ET.fromstring(data).find(f"{{{ns.SOAP11_ENV}}}Body")[0]


def summary_frame(attributes, repeat=1):
    data = build_batch("urn:act", "sim://n/gossip", [], BatchControl(summary=(3, 10)))
    section = b'<g:Summary n="3" h="000000000000000a"/>'
    assert section in data
    return data.replace(section, b"<g:Summary %s/>" % attributes * repeat)


class TestControlCodecProperties:
    @given(control=CONTROLS, with_frames=st.booleans())
    def test_scan_equals_input_equals_parsed_path(self, control, with_frames):
        data = build_batch(
            "urn:act", "sim://n/gossip", FRAMES if with_frames else [], control
        )
        if control.empty():
            assert not batch_has_control(data)
            return
        assert scan_batch_control(data) == control
        assert control_from_element(batch_element(data)) == control

    @given(
        control=CONTROLS,
        activity=ATTR_TEXT,
        holder=ATTR_TEXT,
        with_frames=st.booleans(),
    )
    @example(
        control=BatchControl(summary=(1, 2)),
        activity='urn:act:"quoted"',
        holder="sim://n/gossip\t\n\r&<>'",
        with_frames=False,
    )
    def test_scanned_attributes_equal_input_equal_parsed_path(
        self, control, activity, holder, with_frames
    ):
        # A '"', a tab or a newline in either value must survive the byte
        # scan, or the frame's control is dropped unapplied.
        data = build_batch(activity, holder, FRAMES if with_frames else [], control)
        element = batch_element(data)
        assert scan_batch_activity(data) == element.get("activity") == activity
        assert scan_batch_holder(data) == element.get("holder") == holder
        if not control.empty():
            assert scan_batch_control(data) == control_from_element(element) == control

    @given(control=CONTROLS, data=st.data())
    def test_damaged_frames_never_raise(self, control, data):
        frame = build_batch("urn:act", "sim://n/gossip", FRAMES[:1], control)
        cut = data.draw(st.integers(0, len(frame)))
        assert isinstance(scan_batch_control(frame[:cut]), (BatchControl, type(None)))
        at = data.draw(st.integers(0, len(frame) - 1))
        flipped = frame[:at] + bytes([data.draw(st.integers(0, 255))]) + frame[at + 1 :]
        assert isinstance(scan_batch_control(flipped), (BatchControl, type(None)))

    @pytest.mark.parametrize(
        "attributes",
        [
            b'n="3" h="xyz"',  # non-hex
            b'n="3" h="0x1f"',
            b'n="3" h="1_f"',
            b'n="3" h="00000000000000001"',  # 17 digits
            b'n="-3" h="0a"',
            b'n="+3" h="0a"',
            b'n="three" h="0a"',
            b'n="3.0" h="0a"',
            b'n="\xd9\xa3" h="0a"',  # ARABIC-INDIC DIGIT THREE: int() takes it
            b'n="' + b"9" * 30 + b'" h="0a"',
            b'n="" h="0a"',
            b'n="3" h=""',
            b'n="3"',
            b'h="0a"',
        ],
    )
    def test_malformed_summary_is_no_summary_on_either_path(self, attributes):
        data = summary_frame(attributes)
        assert scan_batch_control(data) is None
        assert control_from_element(batch_element(data)).summary is None

    def test_repeated_summary_is_no_summary_on_either_path(self):
        data = summary_frame(b'n="3" h="0a"', repeat=2)
        assert scan_batch_control(data) is None
        assert control_from_element(batch_element(data)).summary is None
        assert scan_batch_control(summary_frame(b'n="3" h="0a"')).summary == (3, 10)
