"""The overload=None no-op guarantee: a wire-trace identity check.

The overload-protection subsystem (docs/RESILIENCE.md, "Overload and
backpressure") is strictly opt-in: with ``GossipConfig(overload=None)``
(the default) every new code path must be dormant, leaving the simulated
wire trace *identical* to the pre-overload behavior -- same sends, same
order, same bytes.

The baseline digests in ``tests/baselines/trace_identity.json`` were
first captured immediately before the overload subsystem landed, and
regenerated once since, for the deliberate wire change of 2.1.0: every
engine sends through the outbox, so an unbatched engine is a batch of
one (summary-first pull, digest catch-up, byte-spliced forwards; see
docs/WIRE.md).  This test replays the same seeded scenarios and asserts
the byte-exact trace digest still matches.  Regenerate (only when an
*intentional* wire-visible change lands) with::

    PYTHONPATH=src python tests/integration/test_trace_identity.py --regen

The only nondeterminism on the wire is ``uuid.uuid4()`` (message ids,
activity ids); each scenario patches it with a seeded counter, after
which the whole trace -- order included -- is reproducible bit for bit.

:data:`ADDED_SCENARIOS` reach the send paths the first three never do
(pull, anti-entropy, feedback, FIFO ordering, a durable crash-restart,
overload protection, full telemetry sampling).  Their digests were
captured before the engine's style table and subsystem stages replaced
its per-style branches and ``None`` checks, and sit under ``"added"``
in the same baseline file; the three ``"digests"`` were not touched.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import uuid
from pathlib import Path

from repro.core.api import GossipConfig
from repro.simnet.network import Network

BASELINE_PATH = (
    Path(__file__).resolve().parent.parent / "baselines" / "trace_identity.json"
)

#: Seeded scenarios covering the send-path variety: eager push, the
#: periodic push-pull digests (with the health layer on), and lazy-push
#: advertisements / fetches.
SCENARIOS = (
    {
        "name": "push",
        "config": dict(
            n_disseminators=16,
            seed=11,
            params={"style": "push", "fanout": 3, "rounds": 5},
        ),
    },
    {
        "name": "push_pull_health",
        "config": dict(
            n_disseminators=12,
            seed=23,
            health=True,
            params={
                "style": "push-pull",
                "fanout": 3,
                "rounds": 4,
                "period": 0.5,
            },
        ),
    },
    {
        "name": "lazy_push",
        "config": dict(
            n_disseminators=12,
            seed=37,
            params={
                "style": "lazy-push",
                "fanout": 3,
                "rounds": 4,
                "period": 0.5,
            },
        ),
    },
)


def _crash_restart_d3(group, index: int) -> None:
    """Crash ``d3`` after the first publication and restart it (no
    amnesia: the WAL replays) after the second."""
    node = group.disseminators[3]
    if index == 1:
        node.crash()
    elif index == 2:
        node.restart(amnesia=False)


def _crash_d5(group, index: int) -> None:
    """Crash ``d5`` for good after the first publication."""
    if index == 1:
        group.disseminators[5].crash()


#: Seeded scenarios for the paths :data:`SCENARIOS` never reach.  The
#: optional ``fault`` hook runs before each publication with the group
#: and the publication's index.
ADDED_SCENARIOS = (
    {
        "name": "pull",
        "config": dict(
            n_disseminators=12,
            seed=41,
            params={"style": "pull", "fanout": 3, "rounds": 4, "period": 0.5},
        ),
    },
    {
        "name": "anti_entropy",
        "config": dict(
            n_disseminators=12,
            seed=43,
            params={
                "style": "anti-entropy",
                "fanout": 3,
                "rounds": 4,
                "period": 0.5,
            },
        ),
    },
    {
        "name": "feedback",
        "config": dict(
            n_disseminators=12,
            seed=47,
            params={
                "style": "feedback",
                "fanout": 3,
                "rounds": 4,
                "period": 0.5,
                "stop_probability": 0.5,
            },
        ),
    },
    {
        "name": "ordered_push",
        "config": dict(
            n_disseminators=12,
            seed=53,
            params={"style": "push", "fanout": 3, "rounds": 5, "ordered": True},
        ),
    },
    {
        "name": "durable_crash_restart",
        "config": dict(
            n_disseminators=12,
            seed=59,
            durability={"mode": "memory", "snapshot_every": 4},
            params={
                "style": "push-pull",
                "fanout": 3,
                "rounds": 4,
                "period": 0.5,
            },
        ),
        "fault": _crash_restart_d3,
    },
    {
        "name": "overload",
        "config": dict(
            n_disseminators=12,
            seed=61,
            overload=True,
            params={
                "style": "push-pull",
                "fanout": 3,
                "rounds": 4,
                "period": 0.5,
            },
        ),
    },
    {
        # A bound small enough that the shed ladder and its latch fire.
        "name": "overload_shedding",
        "config": dict(
            n_disseminators=12,
            seed=61,
            overload={"outbox_bound": 4},
            params={
                "style": "push-pull",
                "fanout": 3,
                "rounds": 4,
                "period": 0.5,
            },
        ),
    },
    {
        "name": "push_pull_batched",
        "config": dict(
            n_disseminators=12,
            seed=71,
            params={
                "style": "push-pull",
                "fanout": 3,
                "rounds": 4,
                "period": 0.5,
                "max_batch_rumors": 8,
            },
        ),
    },
    {
        # The controller reads suspicion through the engines' health; a
        # crashed peer makes it nonzero.
        "name": "adaptive_health",
        "config": dict(
            n_disseminators=12,
            seed=73,
            adaptive=True,
            health=True,
            params={"style": "push", "fanout": 3, "rounds": 4, "period": 0.5},
        ),
        "fault": _crash_d5,
    },
    {
        "name": "telemetry_full",
        "config": dict(
            n_disseminators=12,
            seed=67,
            telemetry={"sample_rate": 1.0},
            params={"style": "push", "fanout": 3, "rounds": 5},
        ),
    },
)


def scenario_digest(overrides: dict, fault=None) -> str:
    """Run one seeded scenario, hashing every network send in order."""
    records = []
    counter = itertools.count(1)
    original_uuid4 = uuid.uuid4
    uuid.uuid4 = lambda: uuid.UUID(int=next(counter))
    try:
        # Built through the config (not GossipGroup directly) so overrides
        # can exercise build-path knobs like ``shards=1``.
        group = GossipConfig(**overrides).build()
        original_send = Network.send

        def recording_send(self, source, destination, payload, size=0):
            if self is group.network:
                body = (
                    bytes(payload)
                    if isinstance(payload, (bytes, bytearray))
                    else repr(payload).encode("utf-8")
                )
                records.append(
                    b"%.9f|%s|%s|%s"
                    % (
                        self.sim.now,
                        source.encode("utf-8"),
                        destination.encode("utf-8"),
                        body,
                    )
                )
            return original_send(self, source, destination, payload, size=size)

        Network.send = recording_send
        try:
            group.setup()
            for index in range(4):
                if fault is not None:
                    fault(group, index)
                group.publish({"symbol": "QIM", "seq": index})
                group.run_for(1.5)
            group.run_for(4.0)
        finally:
            Network.send = original_send
    finally:
        uuid.uuid4 = original_uuid4

    digest = hashlib.sha256()
    for record in records:
        digest.update(record)
        digest.update(b"\n")
    return f"{len(records)}:{digest.hexdigest()}"


def compute_digests(scenarios=SCENARIOS) -> dict:
    return {
        scenario["name"]: scenario_digest(
            dict(scenario["config"]), scenario.get("fault")
        )
        for scenario in scenarios
    }


def test_shards_1_trace_is_byte_identical():
    # The sharded-simulator dispatch must be a strict no-op at shards=1:
    # GossipConfig(shards=1).build() takes the plain single-process path
    # and its wire trace stays byte-for-byte the checked-in baseline.
    baseline = json.loads(BASELINE_PATH.read_text())
    for scenario in SCENARIOS:
        overrides = dict(scenario["config"], shards=1)
        assert scenario_digest(overrides) == baseline["digests"][scenario["name"]], (
            f"shards=1 changed the wire trace of {scenario['name']!r}"
        )


def test_telemetry_none_trace_is_byte_identical():
    # The live telemetry plane (GossipConfig(telemetry=...)) must be a
    # strict no-op when disabled: with telemetry=None no Trace section is
    # serialized, no sampling rng is drawn, and the wire trace stays
    # byte-for-byte the checked-in baseline.
    baseline = json.loads(BASELINE_PATH.read_text())
    for scenario in SCENARIOS:
        overrides = dict(scenario["config"], telemetry=None)
        assert scenario_digest(overrides) == baseline["digests"][scenario["name"]], (
            f"telemetry=None changed the wire trace of {scenario['name']!r}"
        )


def test_default_config_trace_matches_pre_overload_baseline():
    baseline = json.loads(BASELINE_PATH.read_text())
    assert compute_digests() == baseline["digests"], (
        "the wire trace with overload=None diverged from the pre-overload "
        "baseline; the overload subsystem must be a strict no-op when "
        "disabled (regenerate the baseline only for intentional wire "
        "changes: python tests/integration/test_trace_identity.py --regen)"
    )


def test_added_scenarios_match_baseline():
    baseline = json.loads(BASELINE_PATH.read_text())
    assert compute_digests(ADDED_SCENARIOS) == baseline["added"]


if __name__ == "__main__":
    import sys

    digests = compute_digests()
    added = compute_digests(ADDED_SCENARIOS)
    if "--regen" in sys.argv:
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "comment": (
                        "Byte-exact wire-trace digests per seeded scenario. "
                        "Regenerated for the 2.1.0 wire change: an unbatched "
                        "engine is a batch of one (every send goes through "
                        "the outbox: summary-first pull, digest catch-up, "
                        "byte-spliced forwards). "
                        "See tests/integration/test_trace_identity.py."
                    ),
                    "digests": digests,
                    "added": added,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"wrote {BASELINE_PATH}")
    for name, value in {**digests, **added}.items():
        print(f"{name}: {value}")
