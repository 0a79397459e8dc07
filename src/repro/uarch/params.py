"""Configuration for the timing simulator.

Defaults reconstruct the paper's baseline configuration (Section V,
Table III): an 8-wide out-of-order core with a 256-entry ROB, 320 physical
registers, constant 4-cycle L1D/store-queue/store-buffer access, a 16-entry
TSO store buffer with consecutive-store coalescing, and the NoSQ/DMDP
predictor sizing given in the text (T-SSBF 128 entries 4-way; store distance
predictor 2 tables x 1K entries x 4-way, 7-bit confidence, threshold 64,
8-bit branch history).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace


class ConfigError(ValueError):
    """An invalid simulator configuration: an unknown parameter name or an
    out-of-range/ill-typed value.

    Raised at *construction* time -- by :func:`model_params` for
    unknown field names, by the parameter
    dataclasses' own ``__post_init__`` checks, and by the
    :mod:`repro.config` spec layer -- so a typo fails fast with a
    did-you-mean message instead of surfacing as a ``TypeError`` five
    frames inside a worker process.  ``key`` names the offending field
    (when there is one) and ``suggestions`` lists near-matches.
    """

    def __init__(self, message: str, key=None, suggestions=()):
        super().__init__(message)
        self.key = key
        self.suggestions = tuple(suggestions)


class ModelKind(enum.Enum):
    """Store-load communication model (paper Section V)."""

    BASELINE = "baseline"   # unlimited SQ/LQ + Store Sets
    NOSQ = "nosq"           # store-queue-free, delayed low-confidence loads
    DMDP = "dmdp"           # store-queue-free, predicated low-confidence loads
    PERFECT = "perfect"     # oracle memory dependence


class Consistency(enum.Enum):
    """Memory consistency model enforced by the store buffer."""

    TSO = "tso"
    RMO = "rmo"


class ConfidencePolicy(enum.Enum):
    """Confidence counter update on a memory dependence misprediction.

    The paper's key policy difference (Section IV-E): NoSQ decrements by one
    (balanced); DMDP halves the counter (biased), trading extra predications
    for fewer full-recovery mispredictions.
    """

    BALANCED = "balanced"   # counter -= 1 on mispredict
    BIASED = "biased"       # counter >>= 1 on mispredict


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 4

    def __post_init__(self):
        for name in ("size_bytes", "assoc", "line_bytes", "hit_latency"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value <= 0:
                raise ConfigError(
                    "cache %s must be a positive integer, got %r"
                    % (name, value), key=name)
        way_bytes = self.assoc * self.line_bytes
        if self.size_bytes % way_bytes:
            raise ConfigError(
                "cache geometry %d B / (%d-way x %d B lines) leaves a "
                "fractional set count (%d %% %d == %d); size_bytes must "
                "be a multiple of assoc * line_bytes"
                % (self.size_bytes, self.assoc, self.line_bytes,
                   self.size_bytes, way_bytes, self.size_bytes % way_bytes),
                key="size_bytes")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class PredictorParams:
    """Sizing of the NoSQ/DMDP dependence-prediction structures (paper V)."""

    tssbf_entries: int = 128
    tssbf_assoc: int = 4
    # Ablations: untagged SSBF (Roth's original SVW filter) and the
    # TAGE-structured distance predictor (paper Section VII extension).
    tssbf_tagged: bool = True
    distance_entries: int = 1024       # per table (two tables)
    distance_assoc: int = 4
    confidence_bits: int = 7
    confidence_threshold: int = 63     # > threshold => high confidence
    confidence_init: int = 64
    history_bits: int = 8
    max_distance: int = 63             # 6-bit distance field

    def __post_init__(self):
        for name in ("tssbf_entries", "tssbf_assoc", "distance_entries",
                     "distance_assoc", "confidence_bits"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value <= 0:
                raise ConfigError(
                    "predictor %s must be a positive integer, got %r"
                    % (name, value), key=name)
        ceiling = (1 << self.confidence_bits) - 1
        for name in ("confidence_threshold", "confidence_init"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or not 0 <= value <= ceiling:
                raise ConfigError(
                    "predictor %s must lie in [0, %d] for a %d-bit "
                    "confidence counter, got %r"
                    % (name, ceiling, self.confidence_bits, value),
                    key=name)


@dataclass(frozen=True)
class EnergyParams:
    """Per-event dynamic energies, arbitrary units (~pJ).

    Relative magnitudes follow McPAT-style intuition: associative (CAM)
    searches cost far more than RAM reads, DRAM accesses dominate, and
    front-end work is charged per fetched instruction so squash/refetch
    naturally costs energy.
    """

    fetch_decode: float = 8.0          # per fetched instruction
    rename: float = 3.0                # per renamed micro-op
    iq_dispatch: float = 2.0           # IQ write
    iq_issue: float = 2.5              # wakeup + select
    rf_read: float = 1.2               # per source operand
    rf_write: float = 1.5              # per destination write
    alu_op: float = 2.0
    mul_op: float = 6.0
    fp_op: float = 8.0
    agen_op: float = 1.5
    branch_op: float = 1.5
    rob_entry: float = 1.0             # allocate + retire
    l1_access: float = 10.0
    l2_access: float = 30.0
    dram_access: float = 120.0
    sq_cam_search: float = 18.0        # baseline: per-load associative search
    sq_write: float = 3.0
    lq_cam_search: float = 14.0        # baseline: per-store violation check
    lq_write: float = 2.5
    store_buffer_op: float = 2.0
    tssbf_access: float = 3.0
    distance_pred_access: float = 2.5
    store_sets_access: float = 2.0
    bpred_access: float = 2.0
    recovery_overhead: float = 40.0    # per squash event (map rebuild etc.)


@dataclass(frozen=True)
class CoreParams:
    """Full timing-model configuration."""

    model: ModelKind = ModelKind.BASELINE
    consistency: Consistency = Consistency.TSO

    # Widths and windows.
    fetch_width: int = 8
    rename_width: int = 8
    issue_width: int = 8
    retire_width: int = 8
    rob_entries: int = 256
    iq_entries: int = 96
    num_pregs: int = 320

    # Functional units: class -> (count, latency).
    alu_units: int = 6
    mul_units: int = 2
    fp_units: int = 4
    branch_units: int = 2
    agen_units: int = 4
    load_ports: int = 2
    store_ports: int = 1

    alu_latency: int = 1
    mul_latency: int = 4
    fp_latency: int = 4
    branch_latency: int = 1
    agen_latency: int = 1

    # Memory hierarchy.
    l1d: CacheParams = field(default_factory=lambda: CacheParams(
        size_bytes=32 * 1024, assoc=8, hit_latency=4))
    l2: CacheParams = field(default_factory=lambda: CacheParams(
        size_bytes=1024 * 1024, assoc=16, hit_latency=12))
    dram_latency: int = 180           # row-conflict service time
    dram_row_hit_latency: int = 110    # open-row hit service time
    dram_banks: int = 8
    l1_mshrs: int = 8                  # outstanding L1 misses
    prefetch_next_line: bool = False   # simple next-line prefetcher

    # Store buffer (retired stores awaiting commit; paper Section VI-e).
    store_buffer_entries: int = 16
    store_coalescing: bool = True

    # Branch prediction front end.
    bpred_table_bits: int = 14
    btb_entries: int = 2048
    frontend_depth: int = 8            # refill bubbles after redirect
    recovery_penalty: int = 10         # full squash penalty (refetch delay)

    # Baseline store-queue behaviour.
    sq_search_latency: int = 4         # constant SQ/SB access (paper VI-b)

    # Dependence prediction (NoSQ/DMDP).
    predictor: PredictorParams = field(default_factory=PredictorParams)
    confidence_policy: ConfidencePolicy = ConfidencePolicy.BALANCED
    silent_store_aware: bool = True    # update predictor on every re-execution
    use_tage_predictor: bool = False   # TAGE-like distance predictor

    energy: EnergyParams = field(default_factory=EnergyParams)

    def with_model(self, model: ModelKind) -> "CoreParams":
        """Derive the canonical configuration for a given model.

        NoSQ uses the balanced confidence policy, DMDP the biased one
        (paper Section V, model descriptions 1 and 2).
        """
        policy = (ConfidencePolicy.BIASED if model is ModelKind.DMDP
                  else ConfidencePolicy.BALANCED)
        return replace(self, model=model, confidence_policy=policy)


_CORE_FIELD_NAMES = None


def _check_override_names(overrides) -> None:
    """Reject unknown override names with a did-you-mean ConfigError.

    Before this check, a typo surfaced as a bare ``TypeError`` from
    ``dataclasses.replace`` (often deep inside a worker process), or --
    worse -- silently landed on a valid field of a different dataclass.
    The suggestion text comes from the config-space registry (imported
    lazily: the registry itself imports this module).
    """
    global _CORE_FIELD_NAMES
    if _CORE_FIELD_NAMES is None:
        _CORE_FIELD_NAMES = frozenset(f.name for f in fields(CoreParams))
    unknown = sorted(k for k in overrides if k not in _CORE_FIELD_NAMES)
    if not unknown:
        return
    from ..config.registry import suggest_overrides
    hint, suggestions = suggest_overrides(unknown)
    raise ConfigError(
        "unknown parameter override%s %s%s"
        % ("s" if len(unknown) > 1 else "",
           ", ".join(repr(name) for name in unknown), hint),
        key=unknown[0], suggestions=suggestions)


def model_params(model: ModelKind, **overrides) -> CoreParams:
    """Canonical parameters for one of the four evaluated models, with
    optional CoreParams fields replaced by name."""
    params = CoreParams().with_model(model)
    if not overrides:
        return params
    _check_override_names(overrides)
    return replace(params, **overrides)
