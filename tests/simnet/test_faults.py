"""Tests for fault injection."""

import pytest

from repro.simnet.events import Simulator
from repro.simnet.faults import ChurnGenerator, FaultPlan
from repro.simnet.network import Network
from repro.simnet.process import Process


def make_cluster(count, seed=1):
    sim = Simulator(seed=seed)
    network = Network(sim)
    nodes = [Process(f"n{index}", network) for index in range(count)]
    for node in nodes:
        node.start()
    return sim, network, nodes


def test_crash_and_recover_schedule():
    sim, network, nodes = make_cluster(2)
    plan = FaultPlan(network)
    plan.crash_at(1.0, "n0").restart_at(2.0, "n0", amnesia=False)
    plan.apply()
    sim.run_until(1.5)
    assert not nodes[0].is_running
    sim.run_until(2.5)
    assert nodes[0].is_running
    assert nodes[1].is_running


class StatefulNode(Process):
    """A node with volatile state, for crash-semantics assertions."""

    def __init__(self, name, network):
        super().__init__(name, network)
        self.memory = []
        self.restarts = []

    def reset_state(self, amnesia):
        if amnesia:
            self.memory = []

    def on_restart(self, amnesia):
        self.restarts.append((round(self.sim.now, 9), amnesia))


def test_restart_at_amnesia_discards_state():
    sim = Simulator(seed=1)
    network = Network(sim)
    node = StatefulNode("n0", network)
    node.start()
    node.memory.append("precious")
    plan = FaultPlan(network)
    plan.crash_at(1.0, "n0").restart_at(2.0, "n0", amnesia=True)
    plan.apply()
    sim.run_until(2.5)
    assert node.is_running
    assert node.memory == []  # crash, not pause
    assert node.restarts == [(2.0, True)]


def test_restart_at_durable_keeps_state():
    sim = Simulator(seed=1)
    network = Network(sim)
    node = StatefulNode("n0", network)
    node.start()
    node.memory.append("precious")
    plan = FaultPlan(network)
    plan.crash_at(1.0, "n0").restart_at(2.0, "n0", amnesia=False)
    plan.apply()
    sim.run_until(2.5)
    assert node.memory == ["precious"]
    assert node.restarts == [(2.0, False)]


def test_restart_of_running_node_crashes_it_first():
    sim = Simulator(seed=1)
    network = Network(sim)
    node = StatefulNode("n0", network)
    node.start()
    node.memory.append("precious")
    node.restart(amnesia=True)
    assert node.is_running
    assert node.memory == []


def test_crash_fraction_composes_with_restart_after():
    sim, network, nodes = make_cluster(10, seed=2)
    plan = FaultPlan(network)
    plan.crash_fraction_at(
        1.0, 0.3, [node.name for node in nodes], restart_after=1.5
    )
    victims = plan.last_victims
    assert len(victims) == 3
    plan.apply()
    sim.run_until(2.0)
    assert sum(1 for node in nodes if not node.is_running) == 3
    assert all(not network.process(name).is_running for name in victims)
    sim.run_until(3.0)
    # Every victim restarted at crash time + restart_after.
    assert all(node.is_running for node in nodes)


def test_crash_fraction_victims_deterministic_per_seed():
    def victims(seed):
        sim, network, nodes = make_cluster(10, seed=seed)
        plan = FaultPlan(network)
        plan.crash_fraction_at(1.0, 0.5, [node.name for node in nodes])
        return plan.last_victims

    assert victims(11) == victims(11)
    assert victims(11) != victims(12)


def test_crash_fraction_picks_expected_count():
    sim, network, nodes = make_cluster(10)
    plan = FaultPlan(network)
    plan.crash_fraction_at(1.0, 0.3, [node.name for node in nodes])
    plan.apply()
    sim.run_until(2.0)
    crashed = sum(1 for node in nodes if not node.is_running)
    assert crashed == 3


def test_crash_fraction_rejects_bad_fraction():
    sim, network, nodes = make_cluster(2)
    with pytest.raises(ValueError):
        FaultPlan(network).crash_fraction_at(1.0, 1.5, ["n0"])


def test_partition_and_heal_schedule():
    sim, network, nodes = make_cluster(2)
    plan = FaultPlan(network)
    plan.partition_at(1.0, [["n0"], ["n1"]]).heal_at(2.0)
    plan.apply()
    sim.run_until(1.5)
    assert network.partitioned("n0", "n1")
    sim.run_until(2.5)
    assert not network.partitioned("n0", "n1")


def test_apply_twice_rejected():
    sim, network, nodes = make_cluster(1)
    plan = FaultPlan(network)
    plan.crash_at(1.0, "n0")
    plan.apply()
    with pytest.raises(RuntimeError):
        plan.apply()


def test_crash_of_unknown_node_is_ignored():
    sim, network, nodes = make_cluster(1)
    plan = FaultPlan(network)
    plan.crash_at(1.0, "ghost")
    plan.apply()
    sim.run()  # must not raise


def test_churn_crashes_and_recovers():
    sim, network, nodes = make_cluster(10, seed=3)
    churn = ChurnGenerator(
        network=network,
        candidates=[node.name for node in nodes],
        rate=5.0,
        recover_delay=0.5,
    )
    churn.start(until=10.0)
    sim.run_until(10.0)
    # Churn happened: some crash events fired...
    crashes = sum(1 for node in nodes if node.state.value in ("crashed", "running"))
    assert crashes == 10
    # ...and the system isn't permanently dead: run past recovery delays.
    sim.run_until(15.0)
    running = sum(1 for node in nodes if node.is_running)
    assert running >= 8


def test_loss_and_corruption_schedule():
    sim, network, nodes = make_cluster(2)
    plan = FaultPlan(network)
    plan.loss_at(1.0, 0.25).corrupt_at(2.0, 0.1).loss_at(3.0, 0.0).corrupt_at(3.0, 0.0)
    plan.apply()
    sim.run_until(1.5)
    assert network.loss_rate == 0.25
    sim.run_until(2.5)
    assert network.corruption_rate == 0.1
    sim.run_until(3.5)
    assert network.loss_rate == 0.0
    assert network.corruption_rate == 0.0


def test_lossy_and_slow_link_schedule():
    sim, network, nodes = make_cluster(2)
    plan = FaultPlan(network)
    plan.lossy_link_at(1.0, "n0", "n1", 1.0)
    plan.slow_link_at(1.0, "n1", "n0", 0.5)
    plan.apply()
    sim.run_until(1.5)
    message = network.send("n0", "n1", b"gone")
    assert message.dropped and message.drop_reason == "loss"
    start = sim.now
    reply = network.send("n1", "n0", b"slow")
    sim.run_until(start + 1.0)
    assert reply.deliver_time == pytest.approx(start + 0.5)


def test_fault_rate_validation():
    sim, network, nodes = make_cluster(1)
    plan = FaultPlan(network)
    with pytest.raises(ValueError):
        plan.loss_at(1.0, 1.5)
    with pytest.raises(ValueError):
        plan.lossy_link_at(1.0, "n0", "n0", -0.1)
    with pytest.raises(ValueError):
        plan.corrupt_at(1.0, 2.0)
    with pytest.raises(ValueError):
        plan.flaky_sends_at(1.0, ["n0"], 7.0)


def test_flaky_sends_fail_at_the_transport():
    from repro.transport.inmem import WsProcess, sim_address

    sim = Simulator(seed=5)
    network = Network(sim)
    a, b = WsProcess("a", network), WsProcess("b", network)
    a.start(), b.start()
    outcomes = []
    a.runtime.transport.add_outcome_listener(outcomes.append)
    plan = FaultPlan(network)
    plan.flaky_sends_at(1.0, ["a"], 1.0, until=2.0)
    plan.apply()
    sim.run_until(1.5)
    a.runtime.transport.send(sim_address("b", "/x"), b"<x/>")
    sim.run_until(1.6)
    assert [o.error for o in outcomes] == ["flaky"]
    sim.run_until(2.5)  # hook cleared at `until`
    a.runtime.transport.send(sim_address("b", "/x"), b"<x/>")
    sim.run_until(2.6)
    assert outcomes[-1].ok


def _churn_schedule(seed):
    """Crash times per node for one seeded churn run."""
    crash_log = []

    class Recorder(Process):
        def on_crash(self):
            crash_log.append((round(self.sim.now, 9), self.name))

    sim = Simulator(seed=seed)
    network = Network(sim)
    nodes = [Recorder(f"n{index}", network) for index in range(8)]
    for node in nodes:
        node.start()
    churn = ChurnGenerator(
        network=network,
        candidates=[node.name for node in nodes],
        rate=4.0,
        recover_delay=0.5,
    )
    churn.start(until=10.0)
    sim.run_until(12.0)
    return crash_log


def test_churn_is_deterministic_per_seed():
    first = _churn_schedule(seed=42)
    second = _churn_schedule(seed=42)
    assert first  # churn actually happened
    assert first == second
    assert _churn_schedule(seed=43) != first


def test_partition_heal_schedule_is_deterministic_per_seed():
    def run(seed):
        sim, network, nodes = make_cluster(4, seed=seed)
        delivered = []
        plan = FaultPlan(network)
        plan.partition_at(1.0, [["n0", "n1"], ["n2", "n3"]]).heal_at(3.0)
        plan.apply()
        for when in (0.5, 1.5, 2.5, 3.5):
            sim.call_at(
                when,
                lambda: delivered.append(
                    (
                        round(network.sim.now, 9),
                        network.send("n0", "n2", b"x").dropped,
                    )
                ),
            )
        sim.run_until(5.0)
        return delivered

    first = run(seed=7)
    assert [dropped for _, dropped in first] == [False, True, True, False]
    assert first == run(seed=7)


def test_churn_rejects_nonpositive_rate():
    sim, network, nodes = make_cluster(2)
    churn = ChurnGenerator(network=network, candidates=["n0"], rate=0.0)
    with pytest.raises(ValueError):
        churn.start()


def test_loss_ramp_steps_through_and_holds_end_rate():
    sim, network, nodes = make_cluster(2)
    plan = FaultPlan(network)
    plan.loss_ramp_at(1.0, 0.1, 0.5, duration=4.0, steps=4)
    plan.apply()
    sim.run_until(1.1)
    assert network.loss_rate == pytest.approx(0.1)
    sim.run_until(3.1)  # halfway: 2 of 4 steps done
    assert network.loss_rate == pytest.approx(0.3)
    sim.run_until(5.1)
    assert network.loss_rate == pytest.approx(0.5)  # exactly end_rate
    sim.run_until(9.0)
    assert network.loss_rate == pytest.approx(0.5)  # and it stays there


def test_loss_ramp_composes_with_loss_at_restore():
    sim, network, nodes = make_cluster(2)
    plan = FaultPlan(network)
    plan.loss_ramp_at(1.0, 0.0, 0.2, duration=2.0)
    plan.loss_at(4.0, 0.0)
    plan.apply()
    sim.run_until(3.5)
    assert network.loss_rate == pytest.approx(0.2)
    sim.run_until(4.5)
    assert network.loss_rate == 0.0


def test_loss_ramp_validation():
    sim, network, nodes = make_cluster(1)
    plan = FaultPlan(network)
    with pytest.raises(ValueError):
        plan.loss_ramp_at(1.0, -0.1, 0.5, 2.0)
    with pytest.raises(ValueError):
        plan.loss_ramp_at(1.0, 0.1, 1.5, 2.0)
    with pytest.raises(ValueError):
        plan.loss_ramp_at(1.0, 0.1, 0.5, -2.0)
    with pytest.raises(ValueError):
        plan.loss_ramp_at(1.0, 0.1, 0.5, 2.0, steps=0)


def test_jitter_swaps_default_latency_and_restores_at_until():
    from repro.simnet.latency import GaussianJitterLatency

    sim, network, nodes = make_cluster(2)
    original = network.latency
    plan = FaultPlan(network)
    plan.jitter_at(1.0, mean=0.05, sigma=0.02, until=3.0)
    plan.apply()
    sim.run_until(1.5)
    assert isinstance(network.latency, GaussianJitterLatency)
    assert network.latency.mean() == pytest.approx(0.05)
    sim.run_until(3.5)
    assert network.latency is original


def test_jitter_restore_skips_if_model_was_replaced_meanwhile():
    from repro.simnet.latency import FixedLatency, GaussianJitterLatency

    sim, network, nodes = make_cluster(2)
    replacement = FixedLatency(0.2)
    plan = FaultPlan(network)
    plan.jitter_at(1.0, mean=0.05, sigma=0.02, until=3.0)
    plan.apply()
    sim.run_until(2.0)
    network.latency = replacement  # operator override mid-jitter
    sim.run_until(3.5)
    # The un-jitter must not clobber a model it did not install over.
    assert network.latency is replacement


def test_churn_restart_discards_memory_pause_keeps_it():
    def run(restart):
        sim = Simulator(seed=9)
        network = Network(sim)
        nodes = [StatefulNode(f"n{index}", network) for index in range(6)]
        for node in nodes:
            node.start()
            node.memory.append("precious")
        churn = ChurnGenerator(
            network=network,
            candidates=[node.name for node in nodes],
            rate=6.0,
            recover_delay=0.2,
            restart=restart,
        )
        churn.start(until=5.0)
        sim.run_until(8.0)
        return nodes

    paused = run(restart=False)
    assert all(node.memory == ["precious"] for node in paused)
    assert all(node.restarts == [] for node in paused)

    restarted = run(restart=True)
    victims = [node for node in restarted if node.restarts]
    assert victims, "seeded churn produced no restarts"
    assert all(node.memory == [] for node in victims)
    assert all(amnesia for node in victims for _, amnesia in node.restarts)


def test_churn_restart_durable_replays_state():
    sim = Simulator(seed=9)
    network = Network(sim)
    nodes = [StatefulNode(f"n{index}", network) for index in range(6)]
    for node in nodes:
        node.start()
        node.memory.append("precious")
    churn = ChurnGenerator(
        network=network,
        candidates=[node.name for node in nodes],
        rate=6.0,
        recover_delay=0.2,
        restart=True,
        amnesia=False,
    )
    churn.start(until=5.0)
    sim.run_until(8.0)
    victims = [node for node in nodes if node.restarts]
    assert victims
    assert all(node.memory == ["precious"] for node in victims)
    assert all(not amnesia for node in victims for _, amnesia in node.restarts)


def test_churn_stops_at_until():
    sim, network, nodes = make_cluster(5, seed=4)
    churn = ChurnGenerator(
        network=network,
        candidates=[node.name for node in nodes],
        rate=10.0,
        recover_delay=0.1,
    )
    churn.start(until=2.0)
    sim.run_until(2.0)
    events_at_cutoff = sim.events_executed
    sim.run_until(10.0)
    # Only pending recoveries may fire after the cutoff; activity dies out.
    assert sim.events_executed - events_at_cutoff <= 10
