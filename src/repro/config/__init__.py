"""Config-space registry and spec DSL.

``registry`` names the parameter dataclasses as slots with dotted,
type-checked setting keys; ``spec`` builds validated, canonical,
hashable :class:`ConfigSpec` objects on top of it; ``ablations`` names
the paper's evaluation configurations.
"""

from ..uarch.params import ConfigError
from .ablations import ABLATIONS, ablation_spec
from .registry import (SLOTS, SlotInfo, all_keys, coerce_value,
                       default_value, get_slot, slot_names, split_key,
                       suggest_keys)
from .spec import ConfigSpec, describe_points

__all__ = [
    "ConfigError",
    "ConfigSpec",
    "describe_points",
    "ABLATIONS",
    "ablation_spec",
    "SLOTS",
    "SlotInfo",
    "all_keys",
    "coerce_value",
    "default_value",
    "get_slot",
    "slot_names",
    "split_key",
    "suggest_keys",
]
