"""GossipConfig: the immutable deployment description behind GossipGroup."""

import dataclasses

import pytest

from repro import GossipConfig, GossipGroup, ParamError
from repro.core.message import GossipStyle
from repro.core.params import GossipParams

PARAMS = {"fanout": 2, "rounds": 4, "peer_sample_size": 6}


def test_defaults_match_legacy_constructor_defaults():
    config = GossipConfig()
    assert config.n_disseminators == 8
    assert config.n_consumers == 0
    assert config.seed == 0
    assert config.loss_rate == 0.0
    assert config.auto_tune is True
    assert config.target_reliability == 0.99
    assert config.trace is False


def test_frozen():
    config = GossipConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 1


def test_params_are_copied_not_aliased():
    source = {"fanout": 4}
    config = GossipConfig(params=source)
    source["fanout"] = 99
    assert config.params["fanout"] == 4


def test_dict_round_trip():
    config = GossipConfig(n_disseminators=5, seed=3, params={"fanout": 2})
    assert GossipConfig.from_dict(config.to_dict()) == config


def test_from_dict_rejects_unknown_key():
    with pytest.raises(ParamError) as excinfo:
        GossipConfig.from_dict({"n_disseminators": 4, "fan_out": 3})
    assert excinfo.value.key == "fan_out"
    assert "fan_out" in str(excinfo.value)


def test_with_overrides():
    base = GossipConfig(n_disseminators=4, seed=1)
    derived = base.with_overrides(seed=2, loss_rate=0.1)
    assert derived.seed == 2
    assert derived.loss_rate == 0.1
    assert derived.n_disseminators == 4
    assert base.seed == 1  # original untouched


def test_with_overrides_rejects_unknown_key():
    with pytest.raises(ParamError) as excinfo:
        GossipConfig().with_overrides(n_dissemanators=4)
    assert excinfo.value.key == "n_dissemanators"


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"n_disseminators": -1}, "n_disseminators"),
        ({"n_consumers": -2}, "n_consumers"),
        ({"loss_rate": 1.5}, "loss_rate"),
        ({"target_reliability": 0.0}, "target_reliability"),
    ],
)
def test_validation_names_offending_field(kwargs, key):
    with pytest.raises(ParamError) as excinfo:
        GossipConfig(**kwargs)
    assert excinfo.value.key == key
    # ParamError is a ValueError, so pre-existing broad handlers still work.
    assert isinstance(excinfo.value, ValueError)


def test_gossip_params_preview():
    config = GossipConfig(params={"fanout": 4, "rounds": 6, "style": "pull"})
    params = config.gossip_params()
    assert params.fanout == 4
    assert params.rounds == 6
    assert params.style is GossipStyle.PULL
    assert isinstance(params, GossipParams)


@pytest.mark.parametrize(
    "legacy",
    [
        {"n_disseminators": 3},
        {"seed": 11},
        {"params": {"fanout": 2}},
        {"loss_rate": 0.1, "trace": True},
    ],
)
def test_legacy_kwargs_raise_type_error(legacy):
    # 7.0.0: the rejected keyword soup is gone from the signature; only
    # config= (and the shard worker's shard=) remain.
    with pytest.raises(TypeError, match=sorted(legacy)[0]):
        GossipGroup(**legacy)
    with pytest.raises(TypeError):
        GossipGroup(GossipConfig())  # config is keyword-only


def test_config_constructor_does_not_warn(recwarn):
    group = GossipGroup(config=GossipConfig(n_disseminators=3))
    assert group.config.n_disseminators == 3
    assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


def test_build_is_equivalent_to_constructor():
    config = GossipConfig(n_disseminators=3, seed=5)
    assert config.build().config == GossipGroup(config=config).config


def _run_once(group):
    group.setup(settle=1.0)
    message_id = group.publish({"tick": 1})
    group.run_for(5.0)
    return group.delivered_fraction(message_id), group.message_counts()


def test_seeded_run_equivalence_build_vs_constructor():
    """``config.build()`` and ``GossipGroup(config=...)`` are the same
    deployment: a seeded run through either is identical."""
    config = GossipConfig(
        n_disseminators=7, seed=13, params=PARAMS, auto_tune=False
    )
    assert _run_once(config.build()) == _run_once(GossipGroup(config=config))
