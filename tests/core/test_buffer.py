"""Tests for the message store, including property tests on eviction."""

from hashlib import blake2b

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.buffer import MessageStore, id_hash


def test_add_and_get():
    store = MessageStore()
    assert store.add("m1", b"data", 1.0, "origin")
    stored = store.get("m1")
    assert stored.data == b"data"
    assert stored.received_at == 1.0
    assert stored.origin == "origin"


def test_duplicate_add_returns_false_and_keeps_first():
    store = MessageStore()
    store.add("m1", b"first", 1.0, "a")
    assert not store.add("m1", b"second", 2.0, "b")
    assert store.get("m1").data == b"first"


def test_is_new():
    store = MessageStore()
    assert store.is_new("m1")
    store.add("m1", b"", 0.0, "o")
    assert not store.is_new("m1")


def test_capacity_evicts_fifo():
    store = MessageStore(capacity=2)
    store.add("m1", b"1", 0.0, "o")
    store.add("m2", b"2", 0.0, "o")
    store.add("m3", b"3", 0.0, "o")
    assert store.get("m1") is None
    assert store.get("m2") is not None
    assert store.digest() == ["m2", "m3"]


def test_evicted_identity_stays_seen():
    store = MessageStore(capacity=1)
    store.add("m1", b"1", 0.0, "o")
    store.add("m2", b"2", 0.0, "o")
    # m1 was evicted but re-adding is still a duplicate.
    assert not store.add("m1", b"1", 1.0, "o")
    assert "m1" in store
    assert store.seen_count == 2


def test_digest_order_is_insertion_order():
    store = MessageStore()
    for index in range(5):
        store.add(f"m{index}", b"", 0.0, "o")
    assert store.digest() == [f"m{index}" for index in range(5)]


def test_missing_from_and_not_in():
    store = MessageStore()
    store.add("a", b"", 0.0, "o")
    store.add("b", b"", 0.0, "o")
    assert store.missing_from(["b", "c", "d"]) == ["c", "d"]
    assert store.not_in(["b", "c"]) == ["a"]


def test_missing_from_respects_seen_not_just_retained():
    store = MessageStore(capacity=1)
    store.add("a", b"", 0.0, "o")
    store.add("b", b"", 0.0, "o")  # evicts a's payload
    # We have *seen* a, so we do not want it again.
    assert store.missing_from(["a"]) == []


def test_invalid_capacity():
    with pytest.raises(ValueError):
        MessageStore(capacity=0)


def test_seen_capacity_bounds_dedup_memory():
    store = MessageStore(capacity=4, seen_capacity=8)
    for index in range(100):
        store.add(f"m{index}", b"", 0.0, "o")
    # Rotation keeps the seen-set bounded by two generations.
    assert store.seen_count <= 2 * store.seen_capacity
    assert store.rotations > 0


def test_rotation_never_forgets_retained_payloads():
    store = MessageStore(capacity=4, seen_capacity=8)
    for index in range(1000):
        store.add(f"m{index}", b"", 0.0, "o")
        # Regression: a message whose payload is still retained must never
        # be treated as new again, no matter how many rotations happened.
        for retained_id in store.digest():
            assert retained_id in store
            assert not store.add(retained_id, b"again", 1.0, "o")


def test_identity_remembered_within_retention_window():
    store = MessageStore(capacity=2, seen_capacity=8)
    store.add("old", b"", 0.0, "o")
    # Fewer than seen_capacity newer identities: "old" must still dedup
    # even though its payload was evicted long ago.
    for index in range(7):
        store.add(f"new{index}", b"", 0.0, "o")
    assert store.get("old") is None
    assert not store.is_new("old")
    assert not store.add("old", b"", 1.0, "o")


def test_mark_seen_remembers_without_retaining():
    store = MessageStore(capacity=2)
    store.mark_seen("ghost")
    assert not store.is_new("ghost")
    assert store.get("ghost") is None
    assert store.missing_from(["ghost", "other"]) == ["other"]
    store.mark_seen("ghost")  # idempotent
    assert store.seen_count == 1


def test_seen_identities_lists_both_generations():
    store = MessageStore(capacity=2, seen_capacity=2)
    store.add("a", b"", 0.0, "o")
    store.add("b", b"", 0.0, "o")
    store.add("c", b"", 0.0, "o")  # rotates
    assert store.rotations == 1
    assert set(store.seen_identities()) >= {"a", "b", "c"}


def test_seen_capacity_must_cover_capacity():
    with pytest.raises(ValueError):
        MessageStore(capacity=10, seen_capacity=5)


def test_default_seen_capacity_scales_with_capacity():
    assert MessageStore(capacity=4).seen_capacity == 1024
    assert MessageStore(capacity=1000).seen_capacity == 4000


@given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=60),
       st.integers(min_value=1, max_value=10))
def test_invariants_under_arbitrary_adds(message_ids, capacity):
    store = MessageStore(capacity=capacity)
    for message_id in message_ids:
        store.add(message_id, b"x", 0.0, "o")
    # Retention never exceeds capacity.
    assert len(store) <= capacity
    # Seen set equals the distinct identities added.
    assert store.seen_count == len(set(message_ids))
    # Everything retained has been seen.
    for message_id in store.digest():
        assert message_id in store
    # The retained set is exactly the most recent distinct ids.
    distinct_in_order = list(dict.fromkeys(message_ids))
    assert store.digest() == distinct_in_order[-capacity:] if len(
        distinct_in_order
    ) >= capacity else distinct_in_order


# -- summary(): a count and an order-independent hash of the retained ids ------


def summary_from_scratch(store):
    value = 0
    for message_id in store.digest():
        value ^= id_hash(message_id)
    return len(store.digest()), value


def test_id_hash_is_a_fixed_function_of_the_text():
    # Pinned values: every process and every implementation must agree,
    # which Python's per-process hash() would not.
    assert id_hash("") == 0xE4A6A0577479B2B4
    assert id_hash("urn:ws-gossip:msg:1") == int.from_bytes(
        blake2b(b"urn:ws-gossip:msg:1", digest_size=8).digest(), "big"
    )
    assert MessageStore().summary() == (0, 0)


STORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.text(max_size=6)),
        st.tuples(st.just("mark_seen"), st.text(max_size=6)),
        st.tuples(st.just("restore"), st.none()),
    ),
    max_size=80,
)


@given(STORE_OPS, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6))
def test_summary_tracks_digest_through_any_history(ops, capacity, seen_slack):
    # A small seen_capacity makes the seen-set rotate (and forget), so an
    # evicted id can come back as new; duplicates come from the short ids.
    store = MessageStore(capacity=capacity, seen_capacity=capacity + seen_slack)
    for op, message_id in ops:
        if op == "add":
            store.add(message_id, b"x", 0.0, "o")
        elif op == "mark_seen":
            store.mark_seen(message_id)
        else:
            # What WAL replay does: seen identities first, then payloads.
            restored = MessageStore(store.capacity, store.seen_capacity)
            for seen in store.seen_identities():
                if store.get(seen) is None:
                    restored.mark_seen(seen)
            for message in store.messages():
                restored.add(message.message_id, message.data, 0.0, message.origin)
            assert restored.summary() == store.summary()
            store = restored
        assert store.summary() == summary_from_scratch(store)


@given(st.lists(st.text(max_size=8), unique=True, max_size=40), st.randoms(use_true_random=False))
def test_summary_is_independent_of_arrival_order(message_ids, rng):
    first, second = MessageStore(), MessageStore()
    for message_id in message_ids:
        first.add(message_id, b"x", 0.0, "o")
    shuffled = list(message_ids)
    rng.shuffle(shuffled)
    for message_id in shuffled:
        second.add(message_id, b"y", 1.0, "p")
    assert first.summary() == second.summary()
    second.add("a ninth character", b"", 0.0, "o")
    assert first.summary() != second.summary()
