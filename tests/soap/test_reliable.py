"""Tests for the WS-RM-style reliability layer."""

import pytest

from repro.core.scheduling import ProcessScheduler
from repro.simnet.events import Simulator
from repro.simnet.network import Network
from repro.soap.reliable import ReliableLayer, install_reliability
from repro.soap.service import Service, operation
from repro.transport.inmem import WsProcess


class CountingService(Service):
    def __init__(self):
        super().__init__()
        self.received = []

    @operation("urn:t/Event")
    def event(self, context, value):
        self.received.append(value)
        return None


class ReliableNode(WsProcess):
    def __init__(self, name, network, retry_interval=0.3, max_retries=8):
        super().__init__(name, network)
        self.service = CountingService()
        self.runtime.add_service("/app", self.service)
        self.rm = install_reliability(
            self.runtime,
            ProcessScheduler(self),
            retry_interval=retry_interval,
            max_retries=max_retries,
        )


def make_pair(loss_rate=0.0, seed=1, **rm_kwargs):
    sim = Simulator(seed=seed)
    network = Network(sim, loss_rate=loss_rate)
    a = ReliableNode("a", network, **rm_kwargs)
    b = ReliableNode("b", network, **rm_kwargs)
    a.start()
    b.start()
    return sim, network, a, b


def test_lossless_delivery_exactly_once():
    sim, network, a, b = make_pair()
    a.runtime.send("sim://b/app", "urn:t/Event", value={"n": 1})
    sim.run_until(5.0)
    assert b.service.received == [{"n": 1}]
    assert a.rm.unacked_count == 0
    assert network.metrics.counter("rm.retransmit").value == 0


def test_heavy_loss_is_repaired():
    sim, network, a, b = make_pair(loss_rate=0.5, seed=3, max_retries=20)
    for index in range(10):
        a.runtime.send("sim://b/app", "urn:t/Event", value={"n": index})
    sim.run_until(30.0)
    assert sorted(item["n"] for item in b.service.received) == list(range(10))
    # Exactly once despite retransmissions.
    assert len(b.service.received) == 10
    assert network.metrics.counter("rm.retransmit").value > 0


def test_duplicates_are_consumed():
    sim, network, a, b = make_pair(seed=4)
    # Loss on the ack path only: b receives fine, a keeps retransmitting.
    network.set_link_loss("b", "a", 1.0)
    a.runtime.send("sim://b/app", "urn:t/Event", value={"n": 1})
    sim.run_until(3.0)
    assert b.service.received == [{"n": 1}]  # app saw it once
    assert network.metrics.counter("rm.duplicate").value > 0


def test_gives_up_after_max_retries():
    sim, network, a, b = make_pair(seed=5, max_retries=3, retry_interval=0.2)
    network.set_link_loss("a", "b", 1.0)
    a.runtime.send("sim://b/app", "urn:t/Event", value={"n": 1})
    sim.run_until(10.0)
    assert b.service.received == []
    assert a.rm.unacked_count == 0
    assert network.hub.health.dead_letters.value == 1
    assert network.metrics.counter("rm.retransmit").value == 3


def test_give_up_emits_dead_letter():
    sim, network, a, b = make_pair(seed=5, max_retries=2, retry_interval=0.2)
    dead = []
    a.rm.on_dead_letter = lambda destination, number, data: dead.append(
        (destination, number, data)
    )
    network.set_link_loss("a", "b", 1.0)
    a.runtime.send("sim://b/app", "urn:t/Event", value={"n": 1})
    sim.run_until(10.0)
    assert a.rm.dead_letters == 1
    assert len(dead) == 1
    destination, number, data = dead[0]
    assert destination == "sim://b/app"
    assert number == 0
    assert data.startswith(b"<")  # the abandoned wire bytes, recoverable


def test_reliability_does_not_survive_receiver_crash():
    """RM repairs loss, not failure -- the E12 distinction."""
    sim, network, a, b = make_pair(seed=6, max_retries=4, retry_interval=0.2)
    b.crash()
    a.runtime.send("sim://b/app", "urn:t/Event", value={"n": 1})
    sim.run_until(10.0)
    assert b.service.received == []
    assert network.hub.health.dead_letters.value == 1


def test_unsequenced_traffic_passes_through():
    sim, network, a, b = make_pair()
    # A node without the RM layer sends to one with it.
    plain = WsProcess("plain", network)
    plain.start()
    plain.runtime.send("sim://b/app", "urn:t/Event", value={"n": 9})
    sim.run_until(2.0)
    assert {"n": 9} in b.service.received


def test_two_way_reliability_with_replies():
    sim, network, a, b = make_pair(loss_rate=0.4, seed=7, max_retries=20)

    class Echo(Service):
        @operation("urn:t/Echo")
        def echo(self, context, value):
            return {"echo": value}

    b.runtime.add_service("/echo", Echo())
    replies = []
    a.runtime.send(
        "sim://b/echo", "urn:t/Echo", value=5,
        on_reply=lambda context, value: replies.append(value),
    )
    sim.run_until(30.0)
    assert replies == [{"echo": 5}]


def test_parameter_validation():
    sim, network, a, b = make_pair()
    with pytest.raises(ValueError):
        ReliableLayer(a.runtime, ProcessScheduler(a), retry_interval=0.0)
    with pytest.raises(ValueError):
        ReliableLayer(a.runtime, ProcessScheduler(a), max_retries=-1)
