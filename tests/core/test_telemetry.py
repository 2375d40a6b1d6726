"""The wire-level trace context plane: policy, frame format, splices.

Covers the opt-in surface of ``GossipConfig(telemetry=...)``: the
validated :class:`TelemetryPolicy`, the ``<g:Trace>`` section carried
inside the ``Gossip`` header, the in-place byte splices the forward hot
path uses, and publish-time head sampling.  The byte-identity of
``telemetry=None`` runs is gated separately by
``tests/integration/test_trace_identity.py``.
"""

import xml.etree.ElementTree as ET

import pytest

from repro.core.api import GossipConfig
from repro.core.message import (
    GossipHeader,
    GossipStyle,
    TraceContext,
    splice_forward,
    splice_hops,
    splice_trace_path,
)
from repro.core.params import ParamError
from repro.core.telemetry import TelemetryPolicy
from repro.soap.envelope import Envelope


class TestTelemetryPolicy:
    def test_defaults_validate(self):
        policy = TelemetryPolicy()
        assert 0.0 <= policy.sample_rate <= 1.0
        assert policy.to_value() == {"sample_rate": 0.1}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_rate", -0.1),
            ("sample_rate", 1.5),
        ],
    )
    def test_invalid_field_names_the_key(self, field, value):
        with pytest.raises(ParamError) as excinfo:
            TelemetryPolicy(**{field: value})
        assert field in str(excinfo.value)

    def test_to_value_from_value_roundtrip(self):
        policy = TelemetryPolicy(sample_rate=0.25)
        assert TelemetryPolicy.from_value(policy.to_value()) == policy

    def test_from_value_rejects_non_map(self):
        with pytest.raises(ParamError):
            TelemetryPolicy.from_value("0.5")

    def test_from_value_names_the_malformed_key(self):
        with pytest.raises(ParamError) as excinfo:
            TelemetryPolicy.from_value({"sample_rate": "soon"})
        assert "sample_rate" in str(excinfo.value)

    def test_from_value_fills_defaults(self):
        policy = TelemetryPolicy.from_value({})
        assert policy.sample_rate == TelemetryPolicy().sample_rate


class TestConfigCoercion:
    def test_true_becomes_default_policy(self):
        config = GossipConfig(n_disseminators=3, telemetry=True)
        assert config.telemetry == TelemetryPolicy()

    def test_dict_is_parsed(self):
        config = GossipConfig(
            n_disseminators=3, telemetry={"sample_rate": 0.5}
        )
        assert isinstance(config.telemetry, TelemetryPolicy)
        assert config.telemetry.sample_rate == 0.5

    def test_policy_instance_passes_through(self):
        policy = TelemetryPolicy(sample_rate=0.3)
        config = GossipConfig(n_disseminators=3, telemetry=policy)
        assert config.telemetry is policy

    def test_none_stays_off(self):
        assert GossipConfig(n_disseminators=3).telemetry is None

    def test_invalid_value_raises(self):
        with pytest.raises(ParamError) as excinfo:
            GossipConfig(n_disseminators=3, telemetry=5)
        assert "telemetry" in str(excinfo.value)


class TestTraceContext:
    def test_element_roundtrip(self):
        trace = TraceContext(origin="http://n0/app", publish_ts=12.5, path=3)
        parsed = TraceContext.from_element(trace.to_element())
        assert parsed == trace

    def test_unsampled_flag_survives(self):
        trace = TraceContext(
            origin="o", publish_ts=1.0, path=0, sampled=False
        )
        assert TraceContext.from_element(trace.to_element()).sampled is False

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda e: e.attrib.pop("o"),
            lambda e: e.attrib.pop("t"),
            lambda e: e.set("t", "not-a-float"),
            lambda e: setattr(e, "text", "minus"),
            lambda e: setattr(e, "text", "-2"),
        ],
    )
    def test_malformed_sections_parse_to_none(self, mutate):
        element = TraceContext(origin="o", publish_ts=1.0).to_element()
        mutate(element)
        assert TraceContext.from_element(element) is None

    def test_advanced_increments_path(self):
        trace = TraceContext(origin="o", publish_ts=1.0, path=2)
        assert trace.advanced().path == 3
        assert trace.path == 2  # frozen original untouched


def _frame_bytes(header):
    """A frame carrying ``header``, as the publish path writes it."""
    envelope = Envelope(body=ET.Element("{urn:app}Event"))
    envelope.add_header(header.to_element())
    return envelope.to_bytes()


def _parsed_header(data):
    return GossipHeader.from_envelope(Envelope.from_bytes(data))


def _traced_header_bytes(hops=5, path=2):
    header = GossipHeader(
        activity="urn:act",
        message_id="urn:uuid:m1",
        origin="http://n0/app",
        hops=hops,
        style=GossipStyle.PUSH,
        trace=TraceContext(origin="http://n0/app", publish_ts=7.25, path=path),
    )
    return header, _frame_bytes(header)


class TestSplices:
    def test_splice_trace_path_rewrites_only_the_path(self):
        header, data = _traced_header_bytes(path=2)
        spliced = splice_trace_path(data, 3)
        assert spliced is not None
        parsed = _parsed_header(spliced)
        assert parsed.trace.path == 3
        assert parsed.hops == header.hops

    def test_splice_forward_matches_two_single_splices(self):
        _, data = _traced_header_bytes(hops=5, path=2)
        combined = splice_forward(data, 4, 3)
        sequential = splice_trace_path(splice_hops(data, 4), 3)
        assert combined == sequential

    def test_splice_forward_parses_back(self):
        _, data = _traced_header_bytes(hops=9, path=0)
        parsed = _parsed_header(splice_forward(data, 8, 1))
        assert parsed.hops == 8
        assert parsed.trace.path == 1

    def test_splice_forward_grows_and_shrinks_digit_runs(self):
        _, data = _traced_header_bytes(hops=10, path=9)
        parsed = _parsed_header(splice_forward(data, 9, 10))
        assert parsed.hops == 9
        assert parsed.trace.path == 10

    def test_splice_forward_without_trace_returns_none(self):
        header = GossipHeader(
            activity="urn:act", message_id="m", origin="o", hops=4
        )
        data = _frame_bytes(header)
        assert splice_forward(data, 3, 1) is None
        assert splice_hops(data, 3) is not None  # hops splice still applies

    def test_splice_forward_rejects_malformed_bytes(self):
        assert splice_forward(b"<not-gossip/>", 3, 1) is None
        _, data = _traced_header_bytes()
        truncated = data[: data.find(b":Trace ") + 8]
        assert splice_forward(truncated, 3, 1) is None


class TestHeaderWithTrace:
    def test_header_roundtrip_carries_trace(self):
        header, data = _traced_header_bytes()
        assert _parsed_header(data).trace == header.trace

    def test_decremented_advances_trace_path(self):
        header, _ = _traced_header_bytes(hops=5, path=2)
        stepped = header.decremented()
        assert stepped.hops == 4
        assert stepped.trace.path == 3

    def test_decremented_without_trace_stays_traceless(self):
        header = GossipHeader(
            activity="urn:act", message_id="m", origin="o", hops=1
        )
        assert header.decremented().trace is None


class TestHeadSampling:
    def _run(self, sample_rate):
        group = GossipConfig(
            n_disseminators=11,
            seed=4,
            params={"style": "push", "fanout": 4, "rounds": 5},
            auto_tune=False,
            telemetry={"sample_rate": sample_rate},
        ).build()
        group.setup()
        message_id = group.publish({"n": 1})
        group.run_for(10.0)
        assert group.delivered_fraction(message_id) >= 0.99
        return group.hub.counters().get("telemetry.samples", 0)

    def test_zero_sample_rate_records_no_wire_samples(self):
        assert self._run(0.0) == 0

    def test_full_sample_rate_records_wire_samples(self):
        assert self._run(1.0) > 0
