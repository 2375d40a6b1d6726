"""Exporters: JSONL round-trip, Prometheus text format, /v1/metrics."""

import io
import re
import urllib.request

import pytest

from repro.obs.export import (
    dump_jsonl,
    hub_snapshot,
    load_jsonl,
    prometheus_text,
)
from repro.obs.hub import COUNTER_GROUPS, MetricsHub


@pytest.fixture
def populated_hub():
    hub = MetricsHub(name="export-test")
    # Labeled increments aggregate into the unlabeled hub counter, so
    # soap.sent reads 7 hub-wide.
    hub.labeled_counter("soap.sent", {"node": "n0"}).inc(4)
    hub.labeled_counter("soap.sent", {"node": "n1"}).inc(3)
    hub.gauge("view.size").set(16)
    hub.histogram("net.latency").observe(0.01)
    hub.histogram("net.latency").observe(0.03)
    hub.wire.serialize_count.inc(5)
    hub.batch.batches_sent.inc(2)
    return hub


def test_snapshot_sections(populated_hub):
    snapshot = hub_snapshot(populated_hub)
    assert snapshot["counters"]["soap.sent"] == 7
    assert snapshot["gauges"]["view.size"] == 16
    assert snapshot["wire"]["serialize_count"] == 5
    assert snapshot["batch"]["batches_sent"] == 2
    assert snapshot["histograms"]["net.latency"]["count"] == 2
    labeled = {
        (record["name"], record["labels"]["node"]): record["value"]
        for record in snapshot["labeled_counters"]
    }
    assert labeled[("soap.sent", "n0")] == 4
    assert labeled[("soap.sent", "n1")] == 3


def test_jsonl_round_trip(populated_hub):
    stream = io.StringIO()
    count = dump_jsonl(populated_hub, stream)
    assert count == len(stream.getvalue().splitlines())
    records = load_jsonl(io.StringIO(stream.getvalue()))
    by_kind = {}
    for record in records:
        by_kind.setdefault(record["kind"], []).append(record)
    counters = {
        record["name"]: record["value"]
        for record in by_kind["counter"]
        if "labels" not in record
    }
    assert counters["soap.sent"] == 7
    # Counter-group fields are plain counters named <group>.<field>.
    assert counters["wire.serialize_count"] == 5
    assert counters["batch.batches_sent"] == 2
    assert "stat" not in by_kind


def test_jsonl_rejects_garbage():
    with pytest.raises(ValueError, match="line 2"):
        load_jsonl(io.StringIO('{"kind": "counter", "name": "x", "value": 1}\nnope\n'))


# A line of the Prometheus text exposition format (0.0.4): metric name,
# optional {labels}, a value.
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\")*\})?"
    r" -?[0-9.e+-]+(\.[0-9]+)?$"
)
_COMMENT = re.compile(r"^# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* ?.*$")


def assert_valid_prometheus(text):
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line:
            continue
        assert _COMMENT.match(line) or _SAMPLE.match(line), line


def test_prometheus_text_parses(populated_hub):
    text = prometheus_text(populated_hub)
    assert_valid_prometheus(text)
    assert "repro_soap_sent 7" in text
    assert 'repro_soap_sent{node="n0"} 4' in text
    assert "repro_view_size 16" in text
    assert "repro_wire_serialize_count 5" in text
    # Histograms render as summaries with quantile labels.
    assert 'repro_net_latency{quantile="0.5"}' in text
    assert "repro_net_latency_count 2" in text


def test_prometheus_families_lead_with_help_and_type(populated_hub):
    text = prometheus_text(populated_hub)
    lines = text.splitlines()
    # Every family is introduced by its HELP/TYPE pair, typed correctly.
    for family, kind in (
        ("repro_soap_sent", "counter"),
        ("repro_view_size", "gauge"),
        ("repro_net_latency", "summary"),
        ("repro_wire_serialize_count", "counter"),
    ):
        help_index = lines.index(
            next(l for l in lines if l.startswith(f"# HELP {family} "))
        )
        assert lines[help_index + 1] == f"# TYPE {family} {kind}"


def test_prometheus_exports_every_counter_group_field():
    # Every declared field is a family, at 0 when never counted, under
    # the name, HELP line and TYPE the stat-group export always had.
    hub = MetricsHub(name="groups")
    hub.recovery.restarts.inc(3)
    lines = prometheus_text(hub).splitlines()
    for group, fields in COUNTER_GROUPS.items():
        for field in fields:
            family = f"repro_{group}_{field}"
            value = 3 if (group, field) == ("recovery", "restarts") else 0
            index = lines.index(f"# HELP {family} Value of {group}.{field}.")
            assert lines[index + 1] == f"# TYPE {family} counter"
            assert lines[index + 2] == f"{family} {value}"


def test_prometheus_name_sanitization_and_label_escaping():
    hub = MetricsHub(name="escape-test")
    hub.counter("gossip.dedup-preparse").inc()
    hub.labeled_counter("odd", {"node": 'quote"back\\slash\nnewline'}).inc()
    text = prometheus_text(hub)
    assert_valid_prometheus(text)
    assert "repro_gossip_dedup_preparse 1" in text
    assert '\\"' in text and "\\\\" in text and "\\n" in text


def test_metrics_endpoint_serves_prometheus():
    from repro.transport.aio import AsyncHttpNode, shared_loop

    with AsyncHttpNode(loop=shared_loop()) as node:
        node.hub.counter("soap.sent").inc(3)
        url = f"{node.base_address}/v1/metrics"
        with urllib.request.urlopen(url, timeout=5.0) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            body = response.read().decode("utf-8")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{node.base_address}/nope", timeout=5.0)
        assert err.value.code == 404
    assert_valid_prometheus(body)
    assert "repro_soap_sent 3" in body


def test_jsonl_and_snapshot_carry_controller_decisions():
    from repro.obs.export import dump_jsonl, hub_snapshot, load_jsonl

    from repro.core.control import ControlDecision, EpochSignals

    hub = MetricsHub(name="decisions")
    hub.control.epochs.inc(2)
    hub.control.boosts.inc(1)
    hub.decisions.append(
        ControlDecision(
            time=4.0, epoch=2, action="boost",
            reasons=["delivery 0.900 < SLO 0.99"],
            signals=EpochSignals(delivery=0.9, suspicion=0.2),
            fanout=5, rounds=7, style="push-pull", max_batch_rumors=32,
        )
    )
    snapshot = hub_snapshot(hub)
    assert snapshot["control"]["boosts"] == 1
    assert snapshot["decisions"][0]["action"] == "boost"

    stream = io.StringIO()
    dump_jsonl(hub, stream)
    records = load_jsonl(io.StringIO(stream.getvalue()))
    decisions = [r for r in records if r["kind"] == "decision"]
    assert len(decisions) == 1
    assert decisions[0]["action"] == "boost"
    assert decisions[0]["fanout"] == 5
    assert decisions[0]["signals"]["delivery"] == 0.9
    assert decisions[0]["reasons"] == ["delivery 0.900 < SLO 0.99"]
