"""Runtime telemetry and leakage accounting.

Three pieces, designed to make the software/hardware timing contract
*observable* at run time (see ``docs/TELEMETRY.md``):

* :class:`~repro.telemetry.recorder.TraceRecorder` -- the one passive
  observation protocol threaded through the interpreter
  (:mod:`repro.semantics.full`), the mitigation runtime
  (:mod:`repro.semantics.mitigation`), every hardware model behind the
  :mod:`repro.hardware.interface` seam, the gateway and the attacks.
  ``None`` is the only "off" (one ``recorder is not None`` check per
  site).  Every sink implements it: :class:`RecordingTraceRecorder`
  (metrics), :class:`SpanRecorder` (timelines) and :class:`Profiler`
  (performance).  :class:`TeeRecorder` fans out, subscribing each sink
  only to the hooks it overrides; :func:`combine` picks ``None``, the
  single sink, or a tee.
* :class:`~repro.telemetry.metrics.MetricsRegistry` -- counters, gauges,
  histograms, and ordered series with a stable JSON export
  (schema ``repro.telemetry/1``).
* :class:`~repro.telemetry.leakage.DynamicLeakageMeter` -- Definition 2
  and the dynamic side of Theorem 2: fed each finished run, it counts the
  distinct relevant mitigation-deadline sequences and checks them against
  the static Sec. 7 bound.

On top of the raw stream sit the execution timelines
(:mod:`repro.telemetry.spans`: hierarchical spans plus the streaming
:class:`EventJournal`), the Perfetto-loadable Chrome trace-event export
(:mod:`repro.telemetry.export`), and the ``repro report`` audit renderer
(:mod:`repro.telemetry.report`).

The performance half lives in :mod:`repro.telemetry.profiling`: the
:class:`Profiler` sink attributing simulated cycles and wall-time to
subsystems, with streaming latency histograms and a Prometheus text
exposition.  How fast the simulator runs is measured outside the
package, by the repo benchmark ``perfbench/``.
"""

from .export import chrome_trace, write_chrome_trace
from .leakage import (
    DynamicLeakageMeter,
    LeakageBoundViolation,
)
from .metrics import SCHEMA, MetricsRegistry
from .profiling import (
    PROFILE_SCHEMA,
    Profiler,
    StreamingHistogram,
    prometheus_exposition,
)
from .recorder import (
    RecordingTraceRecorder,
    TeeRecorder,
    TraceRecorder,
    combine,
)
from .report import ReportError, load_document, render_metrics, render_report
from .spans import (
    EventJournal,
    Span,
    SpanRecorder,
    load_journal,
    spans_from_journal,
)

__all__ = [
    "DynamicLeakageMeter",
    "EventJournal",
    "LeakageBoundViolation",
    "MetricsRegistry",
    "PROFILE_SCHEMA",
    "Profiler",
    "RecordingTraceRecorder",
    "ReportError",
    "SCHEMA",
    "Span",
    "SpanRecorder",
    "StreamingHistogram",
    "TeeRecorder",
    "TraceRecorder",
    "chrome_trace",
    "combine",
    "load_document",
    "load_journal",
    "prometheus_exposition",
    "render_metrics",
    "render_report",
    "spans_from_journal",
    "write_chrome_trace",
]
