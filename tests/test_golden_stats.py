"""Golden-stats equivalence suite.

``tests/golden/golden_stats.json`` pins the full ``SimStats.to_dict()``
image of every model kind over a deterministic workload sample, generated
from the simulator *before* the hot-loop optimisations (event-driven cycle
skipping, decode template cache, object diet) landed.  These tests run the
current simulator directly -- no result cache, no harness memo -- and
assert byte-identical statistics, so any behavioural drift in performance
work fails loudly instead of silently changing paper numbers.

Regenerate (only for intentional behaviour changes):
``PYTHONPATH=src python tools/gen_golden_stats.py``.
"""

import json
from pathlib import Path

import pytest

from repro.kernel import FunctionalCpu
from repro.obs.tracer import RecordingTracer
from repro.uarch import ModelKind, model_params
from repro.uarch.pipeline import Simulator
from repro.workloads import get_workload

# Tracers are read-only observers: the pinned statistics must hold with
# tracing off (no tracer) and with full event recording on.
TRACERS = {"null": lambda: None, "recording": RecordingTracer}

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_stats.json"

with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

_TRACES = {}


def _trace_for(workload):
    """Build each workload's program/trace once per test session."""
    if workload not in _TRACES:
        meta = GOLDEN["workloads"][workload]
        program = get_workload(workload).build(meta["iterations"])
        trace = FunctionalCpu(program).run_trace(max_instructions=5_000_000)
        assert len(trace) == meta["trace_length"], (
            "workload %r drifted: trace length %d != pinned %d"
            % (workload, len(trace), meta["trace_length"]))
        _TRACES[workload] = (program, trace)
    return _TRACES[workload]


def _points():
    for key in sorted(GOLDEN["points"]):
        workload, model = key.split("/")
        yield pytest.param(workload, ModelKind(model), id=key)


@pytest.mark.parametrize("tracer_kind", sorted(TRACERS))
@pytest.mark.parametrize("workload, model", _points())
def test_stats_match_pinned_golden(workload, model, tracer_kind):
    program, trace = _trace_for(workload)
    stats = Simulator(program, trace, model_params(model),
                      tracer=TRACERS[tracer_kind]()).run()
    got = stats.to_dict()
    want = GOLDEN["points"]["%s/%s" % (workload, model.value)]
    if got != want:
        diff = {k: (want.get(k), got.get(k))
                for k in set(want) | set(got) if want.get(k) != got.get(k)}
        pytest.fail("SimStats diverged from golden for %s/%s (tracer=%s): %r"
                    % (workload, model.value, tracer_kind, diff))


def test_golden_covers_every_model():
    models = {key.split("/")[1] for key in GOLDEN["points"]}
    assert models == {m.value for m in ModelKind}
