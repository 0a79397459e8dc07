"""Serializable simulator configurations: ConfigSpec and SpecGrid.

A :class:`ConfigSpec` is the one declarative description of a simulated
point: a model kind plus a sorted tuple of ``(dotted-key, JSON scalar)``
settings that differ from that model's canonical defaults.  It is the
shared currency of the harness -- :class:`~repro.harness.runner.
ExperimentRunner` memo keys, :class:`~repro.harness.cache.ResultCache`
disk keys, the runner's fan-out task payloads, and the CLI's ``--set``
flags all carry specs: one canonical form names every configuration.

Guarantees:

* **Validated at construction.**  Unknown keys and ill-typed values raise
  :class:`~repro.uarch.params.ConfigError` with a did-you-mean hint from
  the registry -- before any worker spawns.
* **Canonical.**  Settings equal to the model's defaults are dropped and
  the rest sorted, so equal parameters always produce an equal spec,
  equal canonical JSON, and an equal :attr:`spec_hash`.
* **Round-trippable.**  ``ConfigSpec.from_json(spec.canonical_json())``
  is identity, and ``spec.to_params()`` rebuilds the exact CoreParams.

A :class:`SpecGrid` declares a sweep cross-product (models x per-key value
axes) and expands it deterministically; :func:`describe_points` summarises
any batch of points for the ledger's ``sweep.begin`` span.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Tuple

from ..uarch.params import ConfigError, CoreParams, ModelKind
from . import registry
from .registry import coerce_value, decode_value, split_key

__all__ = ["ConfigSpec", "SpecGrid", "describe_points"]

Setting = Tuple[str, object]

# Per-model canonical defaults, for default-dropping.  Keyed by ModelKind.
_MODEL_DEFAULTS: Dict[ModelKind, CoreParams] = {}


def _defaults_for(model: ModelKind) -> CoreParams:
    params = _MODEL_DEFAULTS.get(model)
    if params is None:
        params = _MODEL_DEFAULTS[model] = CoreParams().with_model(model)
    return params


def _normalize(model: ModelKind, raw: Mapping[str, object],
               parse_strings: bool = False) -> Tuple[Setting, ...]:
    """Validate, coerce, default-drop, and sort raw dotted settings."""
    defaults = _defaults_for(model)
    settings: Dict[str, object] = {}
    for key, value in raw.items():
        slot, fname = split_key(key)
        canon = coerce_value(slot, fname, value, parse_strings=parse_strings)
        default = coerce_value(slot, fname,
                               registry.default_value(defaults, key))
        if canon == default and type(canon) is type(default):
            continue
        settings[key] = canon
    return tuple(sorted(settings.items()))


@dataclass(frozen=True)
class ConfigSpec:
    """A validated, canonical, hashable simulator configuration.

    ``settings`` is a sorted tuple of ``(dotted-key, canonical scalar)``
    pairs holding only departures from the model's defaults.  Construct
    via :meth:`create` (which validates and canonicalises); the raw
    constructor trusts its arguments and is meant for rebuilding a spec
    from already-canonical settings.
    """

    model: ModelKind
    settings: Tuple[Setting, ...] = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def create(cls, model: ModelKind,
               settings: Mapping[str, object] = (),
               parse_strings: bool = False) -> "ConfigSpec":
        """Build a spec from dotted settings, validating every key/value."""
        model = ModelKind(model)
        return cls(model, _normalize(model, dict(settings),
                                     parse_strings=parse_strings))

    # -- materialisation ---------------------------------------------------

    def to_params(self) -> CoreParams:
        """The exact CoreParams this spec describes."""
        params = _defaults_for(self.model)
        by_slot: Dict[str, Dict[str, object]] = {}
        for key, value in self.settings:
            slot, fname = split_key(key)
            by_slot.setdefault(slot.name, {})[fname] = \
                decode_value(slot, fname, value)
        core_kwargs = by_slot.pop("core", {})
        for slot_name, slot_kwargs in by_slot.items():
            core_kwargs[slot_name] = replace(
                getattr(params, slot_name), **slot_kwargs)
        return replace(params, **core_kwargs) if core_kwargs else params

    def setting_dict(self) -> Dict[str, object]:
        """The settings as a plain dict (canonical scalars)."""
        return dict(self.settings)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"model": self.model.value,
                "settings": {key: value for key, value in self.settings}}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ConfigSpec":
        try:
            model = ModelKind(payload["model"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError("bad spec payload: missing or invalid "
                              "'model' in %r" % (payload,), key="model")
        settings = payload.get("settings", {})
        if not isinstance(settings, Mapping):
            raise ConfigError("bad spec payload: 'settings' must be a "
                              "mapping, got %r" % (settings,),
                              key="settings")
        return cls.create(model, settings)

    def canonical_json(self) -> str:
        """Deterministic JSON form: sorted keys, no whitespace drift."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ConfigSpec":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigError("bad spec JSON: %s" % exc)
        if not isinstance(payload, Mapping):
            raise ConfigError("bad spec JSON: expected an object, got %r"
                              % (payload,))
        return cls.from_dict(payload)

    @property
    def spec_hash(self) -> str:
        """Stable short hash of the canonical JSON form."""
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:16]

    def describe(self) -> str:
        """Human-oriented one-liner: ``dmdp core.rob_entries=512 ...``."""
        parts = [self.model.value]
        parts.extend("%s=%s" % (key, value) for key, value in self.settings)
        return " ".join(parts)


class SpecGrid:
    """A declared sweep cross-product: models x per-key value axes.

    Expansion order is deterministic: model-major, then axes in their
    declared order, each axis cycling through its declared values
    (``itertools.product`` semantics).  Every point is validated at grid
    construction, so a typoed axis key fails before any expansion -- and
    long before any worker spawns.
    """

    def __init__(self, models: Iterable[ModelKind],
                 axes: Mapping[str, Iterable[object]] = (),
                 parse_strings: bool = False):
        self.models: Tuple[ModelKind, ...] = tuple(
            ModelKind(model) for model in models)
        if not self.models:
            raise ConfigError("spec grid needs at least one model")
        self.axes: Dict[str, Tuple[object, ...]] = {}
        for key, values in dict(axes).items():
            values = tuple(values)
            if not values:
                raise ConfigError("spec grid axis %r has no values" % key,
                                  key=key)
            slot, fname = split_key(key)
            self.axes[key] = tuple(
                coerce_value(slot, fname, value, parse_strings=parse_strings)
                for value in values)
        self._points = tuple(
            ConfigSpec.create(model, dict(zip(self.axes, combo)))
            for model in self.models
            for combo in itertools.product(*self.axes.values()))

    @classmethod
    def create(cls, models, axes=(), parse_strings=False) -> "SpecGrid":
        return cls(models, axes, parse_strings=parse_strings)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def expand(self) -> Tuple[ConfigSpec, ...]:
        """All points of the cross-product, in deterministic order."""
        return self._points


def describe_points(points) -> Dict[str, object]:
    """Summarise ``(workload, ConfigSpec)`` pairs for ``sweep.begin``.

    First-seen ordering throughout; ``axes`` collects, per dotted key,
    every non-default value observed across the batch, so a grid-shaped
    batch round-trips its declared axes.
    """
    workloads: List[str] = []
    models: List[str] = []
    axes: Dict[str, List[object]] = {}
    count = 0
    for workload, spec in points:
        count += 1
        if workload not in workloads:
            workloads.append(workload)
        if spec.model.value not in models:
            models.append(spec.model.value)
        for key, value in spec.settings:
            seen = axes.setdefault(key, [])
            if value not in seen:
                seen.append(value)
    return {"workloads": workloads, "models": models, "axes": axes,
            "points": count}
