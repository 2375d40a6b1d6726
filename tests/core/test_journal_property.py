"""Engine WAL property: a durable restart rebuilds what was lost.

Two engines with the same seed take the same sequence of steps --
publications (plain and FIFO-ordered), fresh arrivals (plain and
ordered, in any order), feedback that cools hot rumors, periodic rounds
that spend their budgets -- each keeping a memory journal compacted
every 2-4 appends.  At each crash step one twin
restarts without amnesia (``prepare_restart(amnesia=False)``); after the
replay its store ids, seen set, ``store.summary()``, FIFO counters,
publication counter and hot set must equal the twin that never crashed.
Both go on from there, so later steps also check that a restored engine
keeps journaling correctly.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro.core.engine import GossipEngine
from repro.core.message import GossipHeader, GossipStyle
from repro.core.params import GossipParams
from repro.core.store import DurabilityPolicy
from repro.obs.hub import MetricsHub
from repro.soap.envelope import Envelope
from repro.soap.runtime import SoapRuntime
from repro.transport.base import LoopbackTransport
from repro.wsa.addressing import AddressingHeaders

from tests.core.test_engine import FakeScheduler, make_context

ORIGIN = "test://origin/app"
STEPS = st.lists(
    st.one_of(
        st.just(("publish",)),
        st.just(("ordered_publish",)),
        st.tuples(st.just("arrival"), st.integers(0, 40)),
        st.tuples(st.just("ordered_arrival"), st.integers(0, 6)),
        st.tuples(st.just("feedback"), st.integers(0, 40)),
        st.just(("round",)),
        st.just(("crash",)),
    ),
    max_size=30,
)


def make_engine(snapshot_every, capacity, ordered):
    hub = MetricsHub()
    transport = LoopbackTransport()
    runtime = SoapRuntime("test://node", transport, metrics=hub)
    transport.register(runtime)
    engine = GossipEngine(
        runtime=runtime,
        scheduler=FakeScheduler(),
        context=make_context(),
        app_address="test://node/app",
        params=GossipParams(
            style=GossipStyle.FEEDBACK, fanout=2, rounds=3,
            buffer_capacity=capacity, ordered=ordered, stop_probability=0.5,
        ),
        rng=random.Random(9),
        durability=DurabilityPolicy(snapshot_every=snapshot_every),
    )
    rejoin(engine)
    return engine


def rejoin(engine):
    engine.registered = True
    engine.view = ["test://peer0/app", "test://peer1/app"]


def arrival(message_id, sequence=None):
    envelope = Envelope()
    header = GossipHeader(
        activity="urn:wscoord:activity:test",
        message_id=message_id,
        origin=ORIGIN,
        hops=3,
        sequence=sequence,
    )
    envelope.add_header(header.to_element())
    AddressingHeaders(
        to="test://node/app", action="urn:app/Event", message_id="urn:uuid:x"
    ).apply(envelope)
    return Envelope.from_bytes(envelope.to_bytes()), header


class _Ids:
    """Deterministic gossip ids, so both twins publish the same ones."""

    def __init__(self):
        self.count = 0
        self.current = None

    def next(self):
        self.count += 1
        self.current = f"urn:ws-gossip:msg:local-{self.count}"
        return self.current


@pytest.fixture(scope="module")
def ids():
    ids = _Ids()
    original = engine_module.new_gossip_message_id
    engine_module.new_gossip_message_id = lambda: ids.current
    yield ids
    engine_module.new_gossip_message_id = original


def state(engine):
    return (
        sorted(engine.store.digest()),
        engine.store.seen_identities(),
        engine.store.summary(),
        engine._fifo.counters(),
        engine._publish_sequence,
        engine._hot,
    )


@settings(max_examples=60, deadline=None)
@given(
    steps=STEPS,
    snapshot_every=st.integers(2, 4),
    capacity=st.integers(2, 8),
    ordered=st.booleans(),
)
def test_durable_restart_equals_the_uncrashed_twin(
    ids, steps, snapshot_every, capacity, ordered
):
    crashed = make_engine(snapshot_every, capacity, ordered)
    twin = make_engine(snapshot_every, capacity, ordered)
    both = (crashed, twin)
    known = []
    for step in steps:
        kind = step[0]
        if kind in ("publish", "ordered_publish"):
            message_id = ids.next()
            known.append(message_id)
            for engine in both:
                base = engine.params
                engine.params = replace(base, ordered=kind == "ordered_publish" or base.ordered)
                engine.publish("urn:app/Event", {"n": len(known)})
                engine.params = base
        elif kind in ("arrival", "ordered_arrival"):
            if kind == "arrival" and known and step[1] < len(known):
                message_id, sequence = known[step[1]], None  # a duplicate
            else:
                message_id = f"urn:ws-gossip:msg:remote-{kind}-{step[1]}"
                sequence = step[1] if kind == "ordered_arrival" else None
                known.append(message_id)
            for engine in both:
                envelope, header = arrival(message_id, sequence)
                engine.on_gossip(envelope, header, source=None)
        elif kind == "feedback":
            cooled = known[step[1] % len(known):] if known else []
            for engine in both:
                engine.on_feedback(cooled)
        elif kind == "round":
            for engine in both:
                engine._periodic_round()
        else:
            crashed.prepare_restart(amnesia=False)
            rejoin(crashed)
            assert state(crashed) == state(twin), steps
    assert state(crashed) == state(twin)
