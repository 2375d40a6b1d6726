"""WS-Gossip over real HTTP on localhost.

The exact middleware that runs in the simulator binds here to real
ephemeral-port HTTP servers sharing one event loop: a Coordinator, an
Initiator, three Disseminators and one completely unchanged Consumer.
Real SOAP envelopes travel over real sockets.

Run:  python examples/http_deployment.py
"""

import random
import time

from repro.core.aiodeploy import (
    AsyncConsumerNode,
    AsyncCoordinatorNode,
    AsyncGossipNode,
)

ACTION = "urn:stock/tick"


def wait_for(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise TimeoutError(f"timed out waiting for {what}")


def gossip_node(name: str, seed: int) -> AsyncGossipNode:
    return AsyncGossipNode(
        name, action=ACTION, transport="http", rng=random.Random(seed)
    )


def main() -> None:
    coordinator = AsyncCoordinatorNode(seed=1)
    initiator = gossip_node("initiator", seed=2)
    disseminators = [gossip_node(f"d{index}", seed=3 + index) for index in range(3)]
    consumer = AsyncConsumerNode(action=ACTION)
    nodes = [coordinator, initiator, *disseminators, consumer]
    try:
        for node in nodes:
            node.start()
        print(f"coordinator listening on {coordinator.base_address}")
        for node in (initiator, *disseminators, consumer):
            print(f"app endpoint: {node.app_address}")

        engines = []
        initiator.activate(
            coordinator.activation_address,
            parameters={"fanout": 3, "rounds": 4},
            on_ready=lambda engine: engines.append(engine),
        )
        wait_for(lambda: bool(engines), what="activation")
        activity_id = engines[0].activity_id
        print(f"\nactivity: {activity_id}")

        for node in (*disseminators, consumer):
            node.subscribe(coordinator.subscription_address, activity_id)
        wait_for(
            lambda: len(coordinator.coordinator.activity(activity_id).participants)
            >= 5,
            what="subscriptions",
        )
        initiator.refresh_view(activity_id)
        wait_for(lambda: len(engines[0].view) >= 3, what="peer view")

        gossip_id = initiator.publish(activity_id, {"symbol": "SWX", "price": 84.2})
        receivers = [*disseminators, consumer]
        wait_for(
            lambda: all(node.has_delivered(gossip_id) for node in receivers),
            what="full delivery",
        )
        print("\nevery node received the tick over real HTTP:")
        for node in disseminators:
            joined = node.gossip_layer.engine_for(activity_id) is not None
            print(f"  {node.app_address}: delivered; gossip layer joined: {joined}")
        print(f"  {consumer.app_address}: {consumer.deliveries[-1][1]}")
        print("\nconsumer stack was completely unchanged -- it just saw a "
              "plain SOAP invocation.")
    finally:
        for node in nodes:
            node.stop()


if __name__ == "__main__":
    main()
