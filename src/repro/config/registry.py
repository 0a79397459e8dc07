"""The config-space registry: named component slots over the parameter
dataclasses.

Every tunable of the timing model lives on one frozen dataclass --
:class:`~repro.uarch.params.CoreParams` and its nested
:class:`~repro.uarch.params.PredictorParams` (the dependence predictor +
T-SSBF verification filter sizing), :class:`~repro.uarch.params.CacheParams`
(L1D/L2 geometry), and :class:`~repro.uarch.params.EnergyParams` (per-event
costs).  This module names those dataclasses as *slots* and exposes their
fields as dotted settings (``core.rob_entries``, ``predictor.tssbf_entries``,
``l1d.size_bytes``, ``energy.sq_cam_search``) with resolved types, defaults,
validation, and did-you-mean suggestions -- the vocabulary shared by
:class:`~repro.config.spec.ConfigSpec`, the sweep engine's cache keys, and
the CLI's ``--set`` / ``repro config`` surface.

The registry is derived from the dataclasses at import time, so adding a
field to any parameter dataclass automatically registers it; there is no
second list to keep in sync.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Tuple

from ..uarch import params as params_mod
from ..uarch.params import (CacheParams, ConfigError, CoreParams,
                            EnergyParams, PredictorParams)

__all__ = [
    "ConfigError", "SlotInfo", "SLOTS", "slot_names", "get_slot",
    "split_key", "coerce_value", "decode_value", "default_value",
    "suggest_keys", "all_keys",
]

# CoreParams fields that are not scalar settings of the ``core`` slot:
# ``model`` is the spec's own axis, the rest are whole slots of their own.
_CORE_EXCLUDED = frozenset({"model", "l1d", "l2", "predictor", "energy"})


@dataclass(frozen=True)
class SlotInfo:
    """One named component slot: a parameter dataclass and its fields."""

    name: str
    dataclass_type: type
    description: str
    types: Mapping[str, type]        # field name -> resolved scalar type


def _resolve_types(dc: type, exclude=frozenset()) -> Dict[str, type]:
    hints = typing.get_type_hints(dc, vars(params_mod))
    return {f.name: hints[f.name] for f in fields(dc)
            if f.name not in exclude}


SLOTS: Dict[str, SlotInfo] = {
    "core": SlotInfo(
        "core", CoreParams,
        "top-level core/scheduler/store-buffer configuration "
        "(widths, windows, latencies, consistency, policies)",
        _resolve_types(CoreParams, _CORE_EXCLUDED)),
    "predictor": SlotInfo(
        "predictor", PredictorParams,
        "dependence predictor + T-SSBF verification filter sizing "
        "(NoSQ/DMDP structures, paper Section V)",
        _resolve_types(PredictorParams)),
    "l1d": SlotInfo(
        "l1d", CacheParams,
        "L1 data cache geometry and timing",
        _resolve_types(CacheParams)),
    "l2": SlotInfo(
        "l2", CacheParams,
        "L2 cache geometry and timing",
        _resolve_types(CacheParams)),
    "energy": SlotInfo(
        "energy", EnergyParams,
        "per-event dynamic energy costs (the Fig. 15 event model)",
        _resolve_types(EnergyParams)),
}


def slot_names() -> Tuple[str, ...]:
    return tuple(SLOTS)


def get_slot(name: str) -> SlotInfo:
    slot = SLOTS.get(name)
    if slot is None:
        hint, suggestions = _hint(name, list(SLOTS))
        raise ConfigError("unknown config slot %r%s (slots: %s)"
                          % (name, hint, ", ".join(SLOTS)),
                          key=name, suggestions=suggestions)
    return slot


def all_keys() -> List[str]:
    """Every dotted setting key the registry accepts, sorted."""
    return sorted("%s.%s" % (slot.name, field)
                  for slot in SLOTS.values() for field in slot.types)


def split_key(key: str) -> Tuple[SlotInfo, str]:
    """Resolve a dotted ``slot.field`` key; raises a did-you-mean
    :class:`ConfigError` on an unknown slot or field."""
    slot_name, sep, field = key.partition(".")
    if not sep:
        raise ConfigError(
            "bad setting key %r (expected SLOT.FIELD, e.g. "
            "core.rob_entries)" % key, key=key)
    slot = get_slot(slot_name)
    if field not in slot.types:
        hint, suggestions = suggest_keys(key)
        raise ConfigError(
            "unknown field %r in slot %r%s" % (field, slot.name, hint),
            key=key, suggestions=suggestions)
    return slot, field


def _hint(key: str, candidates) -> Tuple[str, Tuple[str, ...]]:
    """``(" (did you mean ...?)", suggestions)`` for an unknown key."""
    import difflib      # deferred: only a bad key needs it
    matches = []
    for match in difflib.get_close_matches(key, candidates, n=3,
                                           cutoff=0.6):
        if match not in matches:
            matches.append(match)
    if not matches:
        return "", ()
    return (" (did you mean %s?)"
            % " or ".join(repr(m) for m in matches), tuple(matches))


def suggest_keys(key: str) -> Tuple[str, Tuple[str, ...]]:
    """Did-you-mean hint for an unknown dotted (or bare) setting key.

    Exact field-name matches in other slots beat fuzzy matches: a typo
    like ``tssbf_entries`` (a real field, wrong slot) suggests
    ``predictor.tssbf_entries`` outright.
    """
    bare = key.rpartition(".")[2]
    exact = ["%s.%s" % (slot.name, bare) for slot in SLOTS.values()
             if bare in slot.types]
    if exact:
        return (" (did you mean %s?)"
                % " or ".join(repr(m) for m in exact), tuple(exact))
    return _hint(key, all_keys())


# -- value coercion ----------------------------------------------------------


def coerce_value(slot: SlotInfo, field: str, value,
                 parse_strings: bool = False):
    """Canonical JSON-scalar form of a setting value, or ConfigError.

    Enums canonicalise to their value string, ints stay ints, floats
    accept ints (``3`` and ``3.0`` produce one canonical value for a
    float field -- the memo-key/disk-key drift of old), bools are strict.
    With ``parse_strings`` (the CLI path) string inputs are parsed by the
    field's type.
    """
    ftype = slot.types[field]
    key = "%s.%s" % (slot.name, field)
    if isinstance(ftype, type) and issubclass(ftype, enum.Enum):
        if isinstance(value, ftype):
            return value.value
        if isinstance(value, str):
            try:
                return ftype(value.strip().lower()
                             if parse_strings else value).value
            except ValueError:
                pass
        raise ConfigError(
            "bad value %r for %s (one of: %s)"
            % (value, key, ", ".join(m.value for m in ftype)), key=key)
    if ftype is bool:
        if isinstance(value, bool):
            return value
        if parse_strings and isinstance(value, str):
            low = value.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
        raise ConfigError("bad value %r for %s (expected true/false)"
                          % (value, key), key=key)
    if ftype is int:
        if isinstance(value, bool):
            raise ConfigError("bad value %r for %s (expected an integer)"
                              % (value, key), key=key)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if value.is_integer():
                return int(value)
            raise ConfigError(
                "bad value %r for %s (integer field, got a fractional "
                "float)" % (value, key), key=key)
        if parse_strings and isinstance(value, str):
            try:
                return int(value.strip(), 0)
            except ValueError:
                pass
        raise ConfigError("bad value %r for %s (expected an integer)"
                          % (value, key), key=key)
    if ftype is float:
        if isinstance(value, bool):
            raise ConfigError("bad value %r for %s (expected a number)"
                              % (value, key), key=key)
        if isinstance(value, (int, float)):
            return float(value)
        if parse_strings and isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError:
                pass
        raise ConfigError("bad value %r for %s (expected a number)"
                          % (value, key), key=key)
    raise ConfigError("field %s (type %s) is not settable from a scalar"
                      % (key, getattr(ftype, "__name__", ftype)), key=key)


def decode_value(slot: SlotInfo, field: str, value):
    """Canonical scalar -> the live field value (enum strings revive)."""
    ftype = slot.types[field]
    if isinstance(ftype, type) and issubclass(ftype, enum.Enum):
        return ftype(value)
    return value


def default_value(params: CoreParams, key: str):
    """The resolved default for a dotted key under ``params``."""
    slot_name, _, field = key.partition(".")
    holder = params if slot_name == "core" else getattr(params, slot_name)
    return getattr(holder, field)
