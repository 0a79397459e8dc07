"""Observability: pipeline tracing, structured metrics, trace export.

See DESIGN.md section 10.  The timing simulator takes an optional
:class:`~.tracer.PipelineTracer` (without an enabled one, the only
hot-loop cost is one attribute check per guard site);
:class:`~.tracer.RecordingTracer` captures per-MicroOp stage timestamps
and DMDP-specific events, which the exporters turn into
Konata-compatible text (:func:`.konata.write_konata`), JSONL event
streams (:func:`.jsonl.write_jsonl`), or a structured metrics report
(:func:`.metrics.build_metrics`).  The sweep ledger is
:mod:`.ledger`, and the live progress view :mod:`.progress`.

Import each name from the module that defines it: the package imports
none of them, so a run loads only the tracer and the ledger it uses, not
the exporters, the report or the progress renderer.
"""
