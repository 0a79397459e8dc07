"""Functional simulation substrate: memory, interpreter CPU, dynamic traces."""

from .memory import SparseMemory
from .cpu import (ExecutionError, FunctionalCpu, alu_result, sign_extend,
                  to_signed, to_unsigned)
from .trace import MAX_TRACE_INSTRUCTIONS, TraceEntry, trace_summary
from .tracestore import (TRACE_FORMAT_VERSION, ColumnarTraceRecorder,
                         PackedTrace, TraceDecodeError, TraceEncodeError,
                         load_trace, pack_trace, run_trace_packed)

__all__ = [
    "SparseMemory", "ExecutionError", "FunctionalCpu", "alu_result",
    "sign_extend", "to_signed", "to_unsigned",
    "MAX_TRACE_INSTRUCTIONS", "TraceEntry", "trace_summary",
    "TRACE_FORMAT_VERSION", "ColumnarTraceRecorder", "PackedTrace",
    "TraceDecodeError", "TraceEncodeError", "load_trace", "pack_trace",
    "run_trace_packed",
]
