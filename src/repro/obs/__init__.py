"""repro.obs — stdlib-only distributed tracing for the serving stack.

One traced operation carries a :class:`TraceContext` across process
hops in the ``X-Repro-Trace`` header; each process records named
:class:`Span` sections into a lock-guarded :class:`SpanRecorder`
(JSONL files via ``--trace``), and :mod:`repro.obs.assemble` joins the
files back into per-trace trees with per-stage p50/p99 and a
critical-path breakdown (``repro trace``).

This package must stay importable by every layer — core sessions
included — so it depends on nothing beyond the standard library.
"""

from repro.obs.context import (
    SPAN_ID_CHARS,
    TRACE_HEADER,
    TRACE_ID_CHARS,
    TraceContext,
    new_span_id,
    new_trace_id,
    parse_trace_header,
    start_trace,
)
from repro.obs.recorder import (
    ActiveTrace,
    Span,
    SpanRecorder,
    activate,
    current,
    parse_span_line,
    serving,
    span,
)
from repro.obs.assemble import (
    StageStats,
    Trace,
    assemble_traces,
    quantile,
    read_spans,
    render_trace,
    stage_stats,
)

__all__ = [
    "TRACE_HEADER",
    "TRACE_ID_CHARS",
    "SPAN_ID_CHARS",
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "parse_trace_header",
    "start_trace",
    "Span",
    "SpanRecorder",
    "ActiveTrace",
    "activate",
    "current",
    "serving",
    "span",
    "parse_span_line",
    "Trace",
    "StageStats",
    "read_spans",
    "assemble_traces",
    "quantile",
    "stage_stats",
    "render_trace",
]
