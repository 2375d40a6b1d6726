"""The one knob spec: every knob set declared through ``Knobs`` behaves alike.

One table over the six classes (``GossipParams`` and the five subsystem
policies): round trip, unknown keys, bounds (NaN included), strict casts,
and the ``GossipConfig`` coercion of the five subsystem fields.  The
per-class test modules keep the cases particular to one class.
"""

import enum
import typing
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.api import GossipConfig
from repro.core.control import AdaptivePolicy
from repro.core.health import HealthPolicy
from repro.core.overload import OverloadPolicy
from repro.core.params import GossipParams, ParamError
from repro.core.store import DurabilityPolicy
from repro.core.telemetry import TelemetryPolicy

SUBSYSTEMS = [
    ("health", HealthPolicy),
    ("durability", DurabilityPolicy),
    ("adaptive", AdaptivePolicy),
    ("overload", OverloadPolicy),
    ("telemetry", TelemetryPolicy),
]
CLASSES = [GossipParams] + [cls for _, cls in SUBSYSTEMS]
BOOL_FIELDS = [
    (GossipParams, "ordered"),
    (DurabilityPolicy, "catch_up"),
    (AdaptivePolicy, "escalate"),
]


def typed_fields(cls):
    hints = typing.get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls)]


def bounds(f):
    return f.metadata.get("bounds", (None,) * 5)


def parse(cls, **entries):
    """``from_value`` over a complete map, so GossipParams' required keys
    never mask the entry under test."""
    return cls.from_value({**cls().to_value(), **entries})


# -- round trip -------------------------------------------------------------


def field_values(f, hint):
    ge, gt, le, lt, choices = bounds(f)
    if choices is not None:
        return st.sampled_from(choices)
    if hint is bool:
        return st.booleans()
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return st.sampled_from(list(hint))
    low = gt if gt is not None else ge
    high = lt if lt is not None else le
    if hint is int:
        low = 1 if low is None else low
        return st.integers(min_value=low, max_value=low + 63)
    if hint is float:
        return st.floats(
            min_value=low, max_value=1e6 if high is None else high,
            exclude_min=gt is not None, exclude_max=lt is not None,
        )
    return st.one_of(st.none(), st.text(min_size=1, max_size=8))  # Optional[str]


@st.composite
def instances(draw, cls):
    overrides = draw(st.fixed_dictionaries({}, optional={
        f.name: field_values(f, hint) for f, hint in typed_fields(cls)
    }))
    try:
        return cls(**overrides)
    except ParamError:  # a cross-field rule; bounds hold by construction
        assume(False)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_from_value_inverts_to_value(cls):
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(instances(cls))
    def round_trip(knobs):
        assert cls.from_value(knobs.to_value()) == knobs

    round_trip()


# -- unknown keys -------------------------------------------------------------


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_unknown_key_is_named_by_from_value_and_with_overrides(cls):
    with pytest.raises(ParamError) as excinfo:
        parse(cls, bogus_knob=1)
    assert excinfo.value.key == "bogus_knob"
    with pytest.raises(ParamError) as excinfo:
        cls().with_overrides(bogus_knob=1)
    assert excinfo.value.key == "bogus_knob"


# -- bounds -------------------------------------------------------------------

#: Every bounded field of each class, with one value outside its bounds.
OUT_OF_RANGE = {
    GossipParams: {
        "fanout": 0, "rounds": 0, "period": 0.0, "buffer_capacity": 0,
        "jitter": -0.1, "stop_probability": 1.5, "max_batch_rumors": 0,
        "max_batch_bytes": 1023,
    },
    HealthPolicy: {
        "suspicion_threshold": 0.0, "failure_weight": 0.0,
        "success_relief": -1.0, "half_life": 0.0, "boost_cap": 0.5,
        "max_retries": -1, "retry_backoff": 0.0, "breaker_threshold": 0,
        "breaker_reset": 0.0,
    },
    DurabilityPolicy: {
        "mode": "tape", "fsync": "sometimes", "fsync_every": 0,
        "snapshot_every": 0, "catch_up_peers": 0, "catch_up_rounds": 0,
    },
    OverloadPolicy: {
        "outbox_bound": 0, "ingest_capacity": 0, "high_watermark": 1.5,
        "low_watermark": 0.0, "shed_digest": 0.0, "shed_feedback": 1.5,
        "shed_pull": 1.5, "admission_rate": 0.0, "admission_burst": 0,
        "retry_after": 0.0,
    },
    AdaptivePolicy: {
        "slo_delivery": 1.5, "epoch": 0.0, "min_fanout": 0, "min_rounds": 0,
        "min_batch_rumors": 0, "shrink_margin": -0.1, "suspicion_high": 0.0,
        "failure_high": 2.0, "duplicate_high": 0.0, "burst_high": 1.0,
        "burst_min_publishes": 0, "cooldown_epochs": -1, "pressure_high": 0.0,
    },
    TelemetryPolicy: {
        "sample_rate": 1.5, "max_path_length": 0, "clock_skew_guard": -1.0,
        "epoch": 0.0, "slo_delivery": 1.0, "window": 0.0,
    },
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_out_of_range_table_covers_every_declared_bound(cls):
    declared = {f.name for f in fields(cls) if "bounds" in f.metadata}
    assert declared == set(OUT_OF_RANGE[cls])


@pytest.mark.parametrize("cls, name, value", [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}")
    for cls, table in OUT_OF_RANGE.items()
    for name, value in table.items()
])
def test_out_of_range_and_nan_name_the_field(cls, name, value):
    for bad in (value, float("nan")):
        with pytest.raises(ParamError) as excinfo:
            cls(**{name: bad})
        assert excinfo.value.key == name
        assert name in str(excinfo.value)


# -- strict casts -------------------------------------------------------------


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, name, id=f"{cls.__name__}.{name}") for cls, name in BOOL_FIELDS
])
def test_bool_fields_read_true_and_false_only(cls, name):
    assert getattr(parse(cls, **{name: "false"}), name) is False
    assert getattr(parse(cls, **{name: "TRUE"}), name) is True
    for value in ("no", 1):
        with pytest.raises(ParamError) as excinfo:
            parse(cls, **{name: value})
        assert excinfo.value.key == name


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in CLASSES
    for f, hint in typed_fields(cls)
    if hint is int
])
def test_int_fields_reject_fractions_but_read_digit_strings(cls, name):
    default = getattr(cls(), name)
    assert getattr(parse(cls, **{name: str(default)}), name) == default
    with pytest.raises(ParamError) as excinfo:
        parse(cls, **{name: default + 0.7})
    assert excinfo.value.key == name


# -- GossipConfig coercion ----------------------------------------------------


@pytest.mark.parametrize("name, cls", SUBSYSTEMS, ids=[name for name, _ in SUBSYSTEMS])
def test_config_coerces_each_subsystem_field_alike(name, cls):
    def coerced(value):
        return getattr(GossipConfig(**{name: value}), name)

    assert coerced(None) is None
    assert coerced(False) is None
    assert coerced(True) == cls()
    assert coerced(cls().to_value()) == cls()
    policy = cls()
    assert coerced(policy) is policy
    for value, key in ((42, name), ({"bogus_knob": 1}, "bogus_knob")):
        with pytest.raises(ParamError) as excinfo:
            coerced(value)
        assert excinfo.value.key == key
