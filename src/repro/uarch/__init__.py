"""Cycle-level microarchitecture: pipeline, predictors, memory system."""

from .params import (
    CacheParams,
    ConfidencePolicy,
    ConfigError,
    Consistency,
    CoreParams,
    EnergyParams,
    ModelKind,
    PredictorParams,
    model_params,
)
from .stats import LoadKind, LowConfOutcome, SimStats, SquashCause
from .branch import BranchPredictor, Btb, GShare, ReturnAddressStack
from .cachesim import Dram, MemoryHierarchy, SetAssocCache
from .tlb import Tlb
from .regfile import PhysRegFile, RegfileError
from .ssn import SsnState, StoreRegisterBuffer
from .tssbf import Tssbf, TssbfResult, UntaggedSsbf
from .distance_predictor import DistancePrediction, StoreDistancePredictor
from .tage_predictor import TageDistancePredictor
from .storesets import StoreSets
from .storebuffer import StoreBuffer, StoreBufferEntry
from .uops import DynInstr, LoadInfo, StoreInfo, Uop, UopKind, UopState
from .pipeline import SimulationError, Simulator
from .models import ALL_MODELS, run_all_models, run_model, trace_program

__all__ = [
    "CacheParams", "ConfidencePolicy", "ConfigError", "Consistency",
    "CoreParams",
    "EnergyParams", "ModelKind", "PredictorParams", "model_params",
    "LoadKind", "LowConfOutcome", "SimStats", "SquashCause",
    "BranchPredictor", "Btb", "GShare", "ReturnAddressStack",
    "Dram", "MemoryHierarchy", "SetAssocCache", "Tlb",
    "PhysRegFile", "RegfileError", "SsnState", "StoreRegisterBuffer",
    "Tssbf", "TssbfResult", "UntaggedSsbf", "DistancePrediction",
    "StoreDistancePredictor", "TageDistancePredictor",
    "StoreSets", "StoreBuffer", "StoreBufferEntry",
    "DynInstr", "LoadInfo", "StoreInfo", "Uop", "UopKind", "UopState",
    "SimulationError", "Simulator",
    "ALL_MODELS", "run_all_models", "run_model", "trace_program",
]
