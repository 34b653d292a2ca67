"""Observability for the Nephele simulation: spans, counters, histograms.

The clone path of the paper is a time claim - Fig 4's boot-vs-clone gap
and Fig 6's first-/second-stage split are both statements about where
virtual milliseconds go. This package records exactly that: a
:class:`~repro.obs.tracer.Tracer` produces nested spans keyed to the
virtual clock, name-keyed counters/histograms, and diffable JSON run
reports. When tracing is off, every probe routes to
:data:`~repro.obs.tracer.NULL_TRACER` and costs one no-op method call.

Span taxonomy (dotted, layer-first):

- ``sim.*`` - engine event dispatch
- ``clone.*`` - CLONEOP hypercall phases and the second stage
  (``clone.op``, ``clone.first_stage``, ``clone.second_stage.xenstore``, ...)
- ``boot.*`` - ``xl create`` phases (``boot.name_check``, ``boot.devices``, ...)
- ``xl.*`` - other toolstack verbs (destroy/save/restore)
- ``xenstore.*`` - daemon-side events (log rotation)
- ``vif.*`` / ``p9.*`` - device backend setup and clone shortcuts

Determinism pins go through :mod:`repro.obs.canonical`: one
:func:`fingerprint` (sha256 over canonical JSON) for every storm,
experiment and figure series, and :func:`first_difference` to name the
first divergent record when two fingerprints disagree.
"""

from repro.obs.canonical import first_difference, fingerprint, jsonify
from repro.obs.registry import (
    Counter,
    DEFAULT_BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import (
    diff_summaries,
    dump_report,
    format_summary,
    run_report,
)
from repro.obs.span import Span, SpanRing
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKET_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanRing",
    "Tracer",
    "diff_summaries",
    "dump_report",
    "fingerprint",
    "first_difference",
    "format_summary",
    "jsonify",
    "run_report",
]
