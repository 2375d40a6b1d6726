"""Gossip parameters, and the one way every knob set is declared.

The paper (Section 2) names the two key parameters:

* **Fanout (f)** -- number of targets each process selects per gossip step.
* **Rounds (r)** -- maximum number of times a message is forwarded before
  being ignored.

This module adds the operational knobs a deployment needs around them
(period between proactive rounds, peer-sample size, buffer capacity) and
validates everything in one place.

:class:`Knobs` is the base every validated knob set -- :class:`GossipParams`
and the five subsystem policies -- is declared through: fields carry their
bounds (:func:`knob`), and validation, parsing, serialisation, overrides
and ``GossipConfig`` coercion are derived from those declarations.
"""

from __future__ import annotations

import enum
import re
import typing
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from repro.core.message import GossipStyle


class ParamError(ValueError):
    """A gossip parameter is missing or malformed.

    Subclasses :class:`ValueError` so existing broad handlers keep
    working; carries the offending ``key`` so callers (coordinator faults,
    error messages) can name it.
    """

    def __init__(self, key: str, message: str) -> None:
        super().__init__(message)
        self.key = key


def knob(
    default: Any,
    *,
    ge: Any = None,
    gt: Any = None,
    le: Any = None,
    lt: Any = None,
    choices: Optional[tuple] = None,
) -> Any:
    """A :class:`Knobs` field: its default plus the bounds every value must meet."""
    return field(default=default, metadata={"bounds": (ge, gt, le, lt, choices)})


def _within(value: Any, ge: Any, gt: Any, le: Any, lt: Any, choices: Any) -> bool:
    # Every comparison is phrased so that NaN fails it.
    if choices is not None:
        return value in choices
    return (
        (ge is None or value >= ge)
        and (gt is None or value > gt)
        and (le is None or value <= le)
        and (lt is None or value < lt)
    )


def _wording(ge: Any, gt: Any, le: Any, lt: Any, choices: Any) -> str:
    """How a bound reads in an error message: ``positive``, ``in (0, 1]``..."""
    if choices is not None:
        return f"one of {choices}"
    low = gt if gt is not None else ge
    high = lt if lt is not None else le
    if low is not None and high is not None:
        return (
            f"in {'(' if gt is not None else '['}{low:g}, "
            f"{high:g}{')' if lt is not None else ']'}"
        )
    if high is not None:
        return f"{'<' if lt is not None else '<='} {high:g}"
    if low == 0:
        return "positive" if gt is not None else "non-negative"
    return f"{'>' if gt is not None else '>='} {low:g}"


def _to_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise ValueError("expected a bool, 'true' or 'false'")


def _to_int(value: Any) -> int:
    result = int(value)
    if not isinstance(value, str) and result != value:
        raise ValueError("not an integer")
    return result


def _caster(hint: Any) -> Callable[[Any], Any]:
    """The strict cast for one declared field type."""
    if hint is bool:
        return _to_bool
    if hint is int:
        return _to_int
    if type(None) in typing.get_args(hint):  # Optional[X]
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        cast = _caster(inner)
        return lambda value: None if value is None else cast(value)
    return hint  # float, str and enums cast by calling the type


def _label(owner: type) -> str:
    """``AdaptivePolicy`` -> ``adaptive policy``, for error messages."""
    return re.sub(r"(?<!^)(?=[A-Z])", " ", owner.__name__).lower()


def reject_unknown_keys(
    owner: type, known: Iterable[str], given: Iterable[str]
) -> None:
    """Raise :class:`ParamError` naming the first of ``given`` not in ``known``."""
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ParamError(
            unknown[0], f"unknown {_label(owner)} key(s): {', '.join(unknown)}"
        )


class Knobs:
    """Base of a frozen dataclass of validated knobs.

    Subclasses declare fields -- bounded ones through :func:`knob` -- and,
    only for rules that span fields, override :meth:`_check`.  Everything
    else is derived from the declarations, resolved once per class:

    * construction checks every bound (NaN fails them all) and raises
      :class:`ParamError` naming the field;
    * :meth:`to_value` serialises in field order (enums as their value);
    * :meth:`from_value` parses a partial mapping over the defaults with
      strict casts by declared type, rejecting unknown keys;
    * :meth:`with_overrides` and :meth:`coerce` are the two other ways in.
    """

    @classmethod
    def _spec(cls):
        """(cast per field in declaration order, bound checks) for ``cls``."""
        spec = cls.__dict__.get("_knob_spec")
        if spec is None:
            hints = typing.get_type_hints(cls)
            casts = {f.name: _caster(hints[f.name]) for f in fields(cls)}
            checks = [
                (f.name, f.metadata["bounds"])
                for f in fields(cls)
                if "bounds" in f.metadata
            ]
            spec = cls._knob_spec = (casts, checks)
        return spec

    def __post_init__(self) -> None:
        for name, bounds in self._spec()[1]:
            value = getattr(self, name)
            if not _within(value, *bounds):
                raise ParamError(
                    name, f"{name} must be {_wording(*bounds)}: {value!r}"
                )
        self._check()

    def _check(self) -> None:
        """Cross-field rules; the default has none."""

    def to_value(self) -> Dict[str, Any]:
        """Serialize to a plain mapping, field order, enums as their value."""
        result = {}
        for name in self._spec()[0]:
            value = getattr(self, name)
            result[name] = value.value if isinstance(value, enum.Enum) else value
        return result

    @classmethod
    def _parse(cls, value: Any) -> Dict[str, Any]:
        casts = cls._spec()[0]
        if not isinstance(value, Mapping):
            raise ParamError(cls.__name__, f"{_label(cls)} map expected, got {value!r}")
        reject_unknown_keys(cls, casts, value)
        parsed = {}
        for key, raw in value.items():
            try:
                parsed[key] = casts[key](raw)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParamError(key, f"invalid {key!r}: {raw!r} ({exc})") from exc
        return parsed

    @classmethod
    def from_value(cls, value: Mapping[str, Any]):
        """Parse a (partial) mapping over the defaults.

        Raises:
            ParamError: naming the unknown, malformed or out-of-range key.
        """
        return cls(**cls._parse(value))

    def with_overrides(self, **overrides: Any):
        """A copy with the given fields replaced (unknown keys raise)."""
        reject_unknown_keys(type(self), self._spec()[0], overrides)
        return replace(self, **overrides)

    @classmethod
    def coerce(cls, key: str, value: Any):
        """A config field's value as an instance: None/False mean off
        (``None``), True the defaults, a dict its fields over the defaults."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_value(value)
        raise ParamError(
            key,
            f"{key} must be None, False, True, a dict of its fields, or an instance "
            f"of {cls.__name__}: {value!r}",
        )


@dataclass(frozen=True)
class GossipParams(Knobs):
    """Validated gossip configuration.

    Attributes:
        fanout: targets selected per gossip step (``f`` in the paper).
        rounds: forwarding budget per message (``r``); a message arriving
            with no remaining rounds is consumed but not forwarded
            (infect-and-die).
        style: which gossip variant the engine runs.
        period: seconds between proactive rounds (pull digests,
            anti-entropy exchanges, peer refresh).  Push gossip forwards
            reactively and only uses the period for peer refresh.
        peer_sample_size: how many peers the coordinator hands out per
            registration; must be >= fanout.
        buffer_capacity: per-activity message store size (FIFO eviction).
        jitter: uniform extra delay added to periodic timers, decorrelating
            rounds across nodes.
        ordered: enforce per-origin FIFO delivery (holdback buffer; see
            :mod:`repro.core.ordering`).
        stop_probability: feedback-style only -- probability of losing
            interest in a rumor per duplicate feedback received.
        max_batch_rumors: upper bound on rumors/control entries coalesced
            into one batched envelope (lpbcast-style piggybacking).  ``1``
            (the default) disables batching entirely: every frame is a
            legacy single-rumor envelope.
        max_batch_bytes: upper bound on a batch's payload bytes; a batch
            is cut when either cap is hit.  A single oversized rumor still
            ships (alone) -- the cap bounds coalescing, not message size.
    """

    fanout: int = knob(3, ge=1)
    rounds: int = knob(5, ge=1)
    style: GossipStyle = GossipStyle.PUSH
    period: float = knob(1.0, gt=0)
    peer_sample_size: int = 12
    buffer_capacity: int = knob(1024, ge=1)
    jitter: float = knob(0.1, ge=0)
    ordered: bool = False
    stop_probability: float = knob(0.5, gt=0, le=1)
    max_batch_rumors: int = knob(1, ge=1)
    max_batch_bytes: int = knob(262144, ge=1024)

    def _check(self) -> None:
        if not self.peer_sample_size >= self.fanout:
            raise ParamError(
                "peer_sample_size",
                f"peer_sample_size ({self.peer_sample_size}) must be >= "
                f"fanout ({self.fanout})",
            )

    @classmethod
    def from_value(cls, value: Mapping[str, Any]) -> "GossipParams":
        """Parse from a RegisterResponse payload (the wire form).

        The seven pre-batching keys are required; the rest default, so a
        RegisterResponse from an older coordinator leaves ordering,
        feedback tuning and batching at their defaults.
        """
        if isinstance(value, Mapping):
            for key in ("fanout", "rounds", "style", "period",
                        "peer_sample_size", "buffer_capacity", "jitter"):
                if key not in value:
                    raise ParamError(key, f"missing gossip parameter {key!r}")
        return super().from_value(value)

    @classmethod
    def from_activation(
        cls, parameters: Mapping[str, Any], base: Optional["GossipParams"] = None
    ) -> "GossipParams":
        """Build parameters from a (partial) activation dict over ``base``.

        Every key is optional; the base (default-constructed when omitted)
        supplies the rest.  Keys that are not gossip parameters are
        ignored: activation maps come from remote initiators and carry
        coordinator options too (``auto_tune``).  Raises
        :class:`ParamError` naming the offending key on any malformed
        entry.
        """
        if not isinstance(parameters, Mapping):
            raise ParamError(
                "parameters", f"activation parameter map expected, got {parameters!r}"
            )
        casts = cls._spec()[0]
        known = {key: value for key, value in parameters.items() if key in casts}
        return replace(base if base is not None else cls(), **cls._parse(known))

    def with_style(self, style: GossipStyle) -> "GossipParams":
        """A copy with a different style."""
        return replace(self, style=style)

    def with_fanout(self, fanout: int) -> "GossipParams":
        """A copy with a different fanout."""
        return replace(self, fanout=fanout)

    def with_rounds(self, rounds: int) -> "GossipParams":
        """A copy with a different rounds budget."""
        return replace(self, rounds=rounds)
