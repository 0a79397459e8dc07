"""Convenience entry points for the four evaluated models.

The :class:`~repro.uarch.pipeline.Simulator` is fully driven by
:class:`~repro.uarch.params.CoreParams`; this module provides the canonical
per-model configurations of paper Section V and a one-call runner.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..isa import Program
from ..kernel import FunctionalCpu, PackedTrace
from ..kernel.trace import MAX_TRACE_INSTRUCTIONS, TraceEntry
from .params import CoreParams, ModelKind
from .pipeline import Simulator
from .stats import SimStats

ALL_MODELS = (ModelKind.BASELINE, ModelKind.NOSQ, ModelKind.DMDP,
              ModelKind.PERFECT)


def trace_program(program: Program,
                  max_instructions: int = MAX_TRACE_INSTRUCTIONS
                  ) -> PackedTrace:
    """Run the functional simulator and return the dynamic trace."""
    return FunctionalCpu(program).run_trace(max_instructions=max_instructions)


def run_model(program: Program, trace: Sequence[TraceEntry],
              model: ModelKind, params: Optional[CoreParams] = None
              ) -> SimStats:
    """Simulate ``trace`` under one store-load communication model.

    ``params`` supplies a base configuration (its ``model`` and confidence
    policy are overridden to the canonical ones for ``model``).
    """
    params = (CoreParams() if params is None else params).with_model(model)
    return Simulator(program, trace, params).run()


def run_all_models(program: Program,
                   trace: Optional[Sequence[TraceEntry]] = None,
                   models=ALL_MODELS) -> Dict[ModelKind, SimStats]:
    """Simulate the same trace under every requested model.  Over a
    packed trace the models share one precompute bundle: the first run
    builds it and leaves it on the trace."""
    if trace is None:
        trace = trace_program(program)
    return {model: run_model(program, trace, model) for model in models}
