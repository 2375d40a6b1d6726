"""The one knob spec: every knob set declared through ``Knobs`` behaves alike.

One table over the five classes (``GossipParams`` and the four subsystem
policies): round trip, unknown keys, bounds (NaN included), strict casts,
the ``GossipConfig`` coercion of the four policy fields, and the keys
4.0.0 turned into module constants.  The per-class test modules keep the
cases particular to one class.
"""

import enum
import typing
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import api, control, health, overload, store, telemetry
from repro.core.api import GossipConfig
from repro.core.health import HealthPolicy
from repro.core.overload import OverloadPolicy
from repro.core.params import GossipParams, ParamError
from repro.core.store import DurabilityPolicy
from repro.core.telemetry import TelemetryPolicy

SUBSYSTEMS = [
    ("health", HealthPolicy),
    ("durability", DurabilityPolicy),
    ("overload", OverloadPolicy),
    ("telemetry", TelemetryPolicy),
]
CLASSES = [GossipParams] + [cls for _, cls in SUBSYSTEMS]
BOOL_FIELDS = [
    (GossipParams, "ordered"),
    (DurabilityPolicy, "catch_up"),
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
        "suspicion_threshold": 0.0, "half_life": 0.0, "breaker_threshold": 0,
    },
    DurabilityPolicy: {"mode": "tape", "fsync": "sometimes", "snapshot_every": 0},
    OverloadPolicy: {"outbox_bound": 0, "ingest_capacity": 0},
    TelemetryPolicy: {"sample_rate": 1.5},
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


# -- keys removed in 4.0.0 ----------------------------------------------------

#: Every setting 4.0.0 turned into a module constant: (the config field that
#: took it -- ``None`` for a ``GossipConfig`` keyword --, key, the default it
#: had, the constant now in force -- ``None`` where the behaviour is fixed).
REMOVED = [
    ("adaptive", "slo_delivery", 0.99, control.SLO_DELIVERY),
    ("adaptive", "epoch", 2.0, control.EPOCH),
    ("adaptive", "min_fanout", 2, control.MIN_FANOUT),
    ("adaptive", "max_fanout", 10, control.MAX_FANOUT),
    ("adaptive", "min_rounds", 3, control.MIN_ROUNDS),
    ("adaptive", "max_rounds", 12, control.MAX_ROUNDS),
    ("adaptive", "fanout_ceiling", 12, control.FANOUT_CEILING),
    ("adaptive", "escalate", True, None),
    ("adaptive", "min_batch_rumors", 1, control.MIN_BATCH_RUMORS),
    ("adaptive", "max_batch_rumors", 64, control.MAX_BATCH_RUMORS),
    ("adaptive", "shrink_margin", 0.005, control.SHRINK_MARGIN),
    ("adaptive", "suspicion_high", 0.10, control.SUSPICION_HIGH),
    ("adaptive", "failure_high", 0.02, control.FAILURE_HIGH),
    ("adaptive", "duplicate_high", 1.5, control.DUPLICATE_HIGH),
    ("adaptive", "burst_high", 3.0, control.BURST_HIGH),
    ("adaptive", "burst_min_publishes", 4, control.BURST_MIN_PUBLISHES),
    ("adaptive", "cooldown_epochs", 3, control.COOLDOWN_EPOCHS),
    ("adaptive", "pressure_high", 0.8, control.PRESSURE_HIGH),
    ("overload", "high_watermark", 0.8, overload.HIGH_WATERMARK),
    ("overload", "low_watermark", 0.5, overload.LOW_WATERMARK),
    ("overload", "shed_digest", 0.6, overload.SHED_THRESHOLDS["digest"]),
    ("overload", "shed_feedback", 0.75, overload.SHED_THRESHOLDS["feedback"]),
    ("overload", "shed_pull", 0.9, overload.SHED_THRESHOLDS["pull"]),
    ("overload", "admission_rate", 500.0, overload.ADMISSION_RATE),
    ("overload", "admission_burst", 64, overload.ADMISSION_BURST),
    ("overload", "retry_after", 1.0, overload.RETRY_AFTER),
    ("health", "failure_weight", 1.0, health.FAILURE_WEIGHT),
    ("health", "success_relief", 1.0, health.SUCCESS_RELIEF),
    ("health", "boost_cap", 2.0, health.BOOST_CAP),
    ("health", "max_retries", 1, health.MAX_RETRIES),
    ("health", "retry_backoff", 0.05, health.RETRY_BACKOFF),
    ("health", "breaker_reset", 5.0, health.BREAKER_RESET),
    ("telemetry", "max_path_length", 32, telemetry.MAX_PATH_LENGTH),
    ("telemetry", "clock_skew_guard", 2.0, telemetry.CLOCK_SKEW_GUARD),
    ("telemetry", "epoch", 2.0, control.EPOCH),
    ("telemetry", "slo_delivery", 0.99, control.SLO_DELIVERY),
    ("telemetry", "window", 30.0, api.SLO_WINDOW),
    ("durability", "fsync_every", 64, store.FSYNC_EVERY),
    ("durability", "catch_up_peers", 3, store.CATCH_UP_PEERS),
    ("durability", "catch_up_rounds", 3, store.CATCH_UP_ROUNDS),
    (None, "rumor_tracing", True, None),  # always on
    (None, "shard_map", None, None),  # the stable hash partition only
]


def test_42_settings_were_removed():
    assert len(REMOVED) == len({(field, key) for field, key, _, _ in REMOVED}) == 42


@pytest.mark.parametrize("field, key, default, constant", [
    pytest.param(*entry, id=f"{entry[0] or 'config'}.{entry[1]}") for entry in REMOVED
])
def test_removed_key_raises_param_error_naming_it(field, key, default, constant):
    """The old default, passed where the key used to go, is refused by
    name; the constant that replaced it keeps that default."""
    if constant is not None:
        assert constant == default
    with pytest.raises(ParamError) as excinfo:
        if field is None:
            GossipConfig(**{key: default})
        else:
            GossipConfig(**{field: {key: default}})
    assert excinfo.value.key == key
    if field == "adaptive":
        assert "adaptive=True" in str(excinfo.value)
        return
    with pytest.raises(ParamError) as excinfo:
        if field is None:
            GossipConfig().with_overrides(**{key: default})
        else:
            dict(SUBSYSTEMS)[field]().with_overrides(**{key: default})
    assert excinfo.value.key == key


def test_adaptive_is_a_bool():
    assert GossipConfig().adaptive is False
    assert GossipConfig(adaptive=None).adaptive is False
    assert GossipConfig(adaptive=True).adaptive is True
    with pytest.raises(ParamError) as excinfo:
        GossipConfig(adaptive={"epoch": 2.0})
    assert excinfo.value.key == "epoch"
    assert "adaptive=True" in str(excinfo.value)
    for value in ({}, 1, "yes"):
        with pytest.raises(ParamError) as excinfo:
            GossipConfig(adaptive=value)
        assert excinfo.value.key == "adaptive"
