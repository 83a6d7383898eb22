"""Distributed tracing for the simulated federation (see docs/OBSERVABILITY.md)."""

from repro.tracing.asserts import (
    assert_overlapping,
    assert_serial,
    assert_span_tree,
    chain_hop_spans,
    check_span_invariants,
    find_spans,
    span_invariants,
)
from repro.tracing.export import (
    render_flamegraph,
    to_chrome_trace,
    to_chrome_trace_json,
)
from repro.tracing.tracer import (
    Span,
    Trace,
    TraceContext,
    NullTracer,
    Tracer,
    active_tracer,
    span_from_dict,
    trace_from_dict,
)

__all__ = [
    "Span",
    "Trace",
    "TraceContext",
    "NullTracer",
    "Tracer",
    "active_tracer",
    "span_from_dict",
    "trace_from_dict",
    "render_flamegraph",
    "to_chrome_trace",
    "to_chrome_trace_json",
    "assert_span_tree",
    "assert_serial",
    "assert_overlapping",
    "chain_hop_spans",
    "check_span_invariants",
    "find_spans",
    "span_invariants",
]
