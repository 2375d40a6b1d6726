"""The knob budget: every settable field name, pinned.

The paper's configuration surface is fanout and rounds; everything else
a deployment can set is listed here, class by class -- the 11
``GossipParams`` fields that ride the RegisterResponse, plus 27 across
the four subsystem policies and ``GossipConfig``.  A setting no program
varies belongs in a module constant next to the code that reads it, so
a new knob must show up as a reviewed diff of this file, and its
addition names its non-test caller (a program, benchmark, perf workload
or example that sets a non-default value) in CHANGES.md.
"""

from dataclasses import fields

import pytest

from repro.core.api import GossipConfig
from repro.core.health import HealthPolicy
from repro.core.overload import OverloadPolicy
from repro.core.params import GossipParams
from repro.core.store import DurabilityPolicy
from repro.core.telemetry import TelemetryPolicy

BUDGET = {
    GossipParams: [
        "fanout", "rounds", "style", "period", "peer_sample_size",
        "buffer_capacity", "jitter", "ordered", "stop_probability",
        "max_batch_rumors", "max_batch_bytes",
    ],
    OverloadPolicy: ["outbox_bound", "ingest_capacity"],
    HealthPolicy: ["suspicion_threshold", "half_life", "breaker_threshold"],
    TelemetryPolicy: ["sample_rate"],
    DurabilityPolicy: ["mode", "directory", "fsync", "snapshot_every", "catch_up"],
    GossipConfig: [
        "n_disseminators", "n_consumers", "seed", "shards", "latency",
        "loss_rate", "params", "auto_tune", "target_reliability", "action",
        "trace", "health", "durability", "adaptive", "overload", "telemetry",
    ],
}


@pytest.mark.parametrize("cls", list(BUDGET), ids=lambda cls: cls.__name__)
def test_settable_fields_are_exactly_the_budget(cls):
    assert [f.name for f in fields(cls)] == BUDGET[cls]


def test_budget_totals():
    assert len(BUDGET[GossipParams]) == 11
    assert sum(len(names) for cls, names in BUDGET.items() if cls is not GossipParams) == 27
