"""The property the parse cache and the stores rely on: nothing mutates a
shared tree in place.

Every receiver of equal wire bytes gets an envelope built on one cached
element tree, and every store keeps the cache's bytes object.  Were any
code path to edit a header or body element in place, later receivers
would see a tree that no longer matches its bytes.  After seeded runs
that exercise batching, ordered push-pull under loss, lazy push and
trace context, each cached tree must serialize exactly as a fresh parse
of its key does.  (Not as the key itself: batch-codec frames use
``soap``/``wsa``/``g`` prefixes that ElementTree would not choose.)

The same runs hold the cache's decoded views -- the WS-Addressing and
``Gossip`` headers every receiver of a frame shares -- to a decode of
an uncached parse of the key: a receiver that mutated a shared view, or a
view stored from a mutated envelope, would show here.
"""

import pytest

import repro.soap.envelope as envelope_module
from repro import GossipConfig
from repro.core.message import GossipHeader
from repro.soap.envelope import UNDECODED, Envelope, clear_parse_cache
from repro.wsa.addressing import AddressingHeaders
from repro.xmlutil import canonical_bytes, parse_bytes

CONFIGS = {
    "push-batched": dict(
        params={"fanout": 4, "rounds": 6, "max_batch_rumors": 16},
    ),
    "push-pull-ordered-lossy": dict(
        params={"style": "push-pull", "fanout": 3, "rounds": 5, "ordered": True,
                "period": 0.5},
        loss_rate=0.1,
    ),
    "lazy-push": dict(
        params={"style": "lazy-push", "fanout": 3, "rounds": 6},
    ),
    "telemetry": dict(
        params={"fanout": 4, "rounds": 6, "max_batch_rumors": 8},
        telemetry=True,
    ),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cached_trees_still_match_their_bytes(name, seed):
    clear_parse_cache()
    group = GossipConfig(
        n_disseminators=30, seed=seed, auto_tune=False, **CONFIGS[name]
    ).build()
    group.setup(settle=1.0, eager_join=True)
    published = [group.publish({"n": index, "seed": seed}) for index in range(5)]
    group.run_for(4.0)
    assert all(group.delivered_fraction(gossip_id) > 0.5 for gossip_id in published)

    cache = dict(envelope_module._PARSE_CACHE)
    assert cache  # the run really shared parses
    decoded_views = 0
    for key, decoded in cache.items():
        assert decoded.data == key
        assert canonical_bytes(decoded.root) == canonical_bytes(parse_bytes(key))
        fresh = Envelope.from_element(parse_bytes(key))
        assert fresh.decoded is None  # decodes from the tree, not the memo
        if decoded.addressing is not None:
            decoded_views += 1
            assert decoded.addressing == AddressingHeaders.extract(fresh)
        if decoded.gossip is not UNDECODED:
            decoded_views += 1
            assert decoded.gossip == GossipHeader.from_envelope(fresh)
    assert decoded_views  # the receivers really shared decodes
