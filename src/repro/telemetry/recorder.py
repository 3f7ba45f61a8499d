"""The trace-recorder seam: runtime telemetry without semantic interference.

A :class:`TraceRecorder` observes one execution from the inside: the
run's charged steps with the cache/TLB/branch hit-miss counts the
hardware resolved for them, every ``sleep``, every per-level ``Miss``
transition of the mitigation runtime, every completed ``mitigate`` block
with its padding, and every request the gateway serves.  Recorders are
strictly passive.  ``None`` is the only "off" value: the interpreter, the
mitigation runtime, the hardware models and the gateway check
``recorder is not None`` (the hardware: ``hw is not None``) once per site
before doing *any* recording work, so an unobserved run pays one identity
check and recording can never perturb costs, state, or events (the
regression tests in ``tests/test_telemetry.py`` enforce both).

The hooks mirror the layers of the full semantics:

* :meth:`on_run_start` / :meth:`on_step` / :meth:`on_sleep` -- the
  interpreter starts and its clock advances (``on_step`` carrying the
  hit/miss burst of the :mod:`repro.hardware.interface` seam);
* :meth:`on_totals` -- the run's charged steps, machine cycles and
  hit/miss counts, summed, once per run before it ends;
* :meth:`on_mitigate_enter` / :meth:`on_miss_update` /
  :meth:`on_mitigation` -- the Fig. 6 runtime (epoch boundaries,
  ``Miss[l]`` increments, prediction settling, padding);
* :meth:`on_serve_start` / :meth:`on_request` / :meth:`on_serve_end` --
  the gateway (:mod:`repro.service.gateway`) serving a workload;
* :meth:`on_finish` -- the run completed with a final
  :class:`~repro.semantics.full.ExecutionResult`; :meth:`on_abort` -- it
  raised instead.

The sinks are :class:`RecordingTraceRecorder` (aggregates into a
:class:`~repro.telemetry.metrics.MetricsRegistry`),
:class:`~repro.telemetry.spans.SpanRecorder` (timelines) and
:class:`~repro.telemetry.profiling.Profiler` (cycle/wall attribution).
:class:`TeeRecorder` is the one fan-out: it subscribes each child only to
the hooks that child overrides, and :func:`combine` picks ``None``, the
single sink, or a tee.

Only the per-step sinks (spans and the journal behind them, the
profiler) receive ``on_step``; the metrics sink takes the run's totals
from ``on_totals``.  The interpreter applies the same :func:`overrides`
rule once per run: when no sink consumes ``on_step``, a recorded step
reads no clock and calls no hook, and the hardware counts straight into
the run's totals.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence, TYPE_CHECKING

from ..lattice import Label

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsRegistry


class TraceRecorder:
    """Base recorder: every hook is a no-op.  Sinks override the hooks
    they consume; instrumented code passes ``None`` instead of a recorder
    when nothing observes."""

    # -- interpreter-level hooks --------------------------------------------

    def on_run_start(self, attrs: Mapping[str, Any]) -> None:
        """A new execution is starting at global clock 0; ``attrs``
        describes the run configuration (hardware model, mitigation
        scheme/policy).  Span boundary for the run timeline."""

    def on_step(self, kind, cost: int, time: int, wall_ns: int,
                hw: Mapping[str, int]) -> None:
        """One charged evaluation step of ``kind`` costing ``cost`` cycles;
        ``time`` is the global clock *after* the charge and ``wall_ns``
        the host time the hardware model took to resolve it.  ``hw`` is
        the step's hardware burst (``{"l1d.hits": 2, ...}``, see
        ``docs/TELEMETRY.md``) in classification order; the interpreter
        clears it after the call, so copy it, never keep it.

        Only a sink that overrides this hook makes a run pay for it: with
        none, the interpreter reads no clock and calls nothing per step,
        and the steps reach the sinks only through :meth:`on_totals`."""

    def on_totals(self, steps: Mapping[str, int], cycles: int,
                  hw: Mapping[str, int]) -> None:
        """The run's charged steps, summed, once per run right before
        :meth:`on_finish` or :meth:`on_abort`: ``steps`` counts them by
        kind value (``{"assign": 4, ...}``), ``cycles`` is the machine
        cycles they cost and ``hw`` the run's hardware counts, each in
        first-seen order.  The interpreter clears both dicts after the
        call, so copy them, never keep them."""

    def on_sleep(self, duration: int, time: int) -> None:
        """A ``sleep`` advanced the clock by exactly ``duration`` cycles."""

    def on_finish(self, result) -> None:
        """The run completed with ``result`` (an ``ExecutionResult``)."""

    def on_abort(self, error: BaseException) -> None:
        """The run raised ``error`` (``max_steps`` exhausted, a runtime
        error) after starting; no :meth:`on_finish` follows."""

    # -- mitigation-runtime hooks -------------------------------------------

    def on_mitigate_enter(self, mit_id: str, level: Label, estimate: int,
                          prediction: int, time: int) -> None:
        """A ``mitigate`` block opened at global clock ``time`` with the
        evaluated ``estimate`` and the runtime's current ``prediction``
        for it.  Span boundary for the epoch timeline."""

    def on_miss_update(self, level: Optional[Label], misses: int) -> None:
        """``Miss[level]`` stepped to ``misses`` (S-UPDATE).  ``level`` is
        None under the global penalty policy (one shared counter)."""

    def on_mitigation(
        self,
        mit_id: str,
        level: Label,
        estimate: int,
        elapsed: int,
        padded: int,
        misses: int,
        pc_label: Optional[Label],
        end_time: int,
        wall_ns: int,
    ) -> None:
        """A ``mitigate`` block completed: its body took ``elapsed`` cycles
        and was padded to ``padded`` (``padded - elapsed`` pure padding);
        ``misses`` is ``Miss[level]`` after settling, which took
        ``wall_ns`` of host time."""

    # -- gateway hooks -------------------------------------------------------

    def on_serve_start(self) -> None:
        """The gateway's event loop is starting."""

    def on_request(self, response, wall_ns: int, meter) -> None:
        """The gateway served ``response`` (status ``ok``); its handler
        run took ``wall_ns`` of host time and ``meter`` is the tenant's
        :class:`~repro.telemetry.leakage.DynamicLeakageMeter` after it."""

    def on_serve_end(self, events: int) -> None:
        """The gateway's event loop drained after ``events`` events."""


#: Every hook of the protocol, by name.
HOOKS = tuple(name for name in vars(TraceRecorder) if name.startswith("on_"))


class RecordingTraceRecorder(TraceRecorder):
    """A recorder that aggregates into a metrics registry.

    It takes no ``on_step``: charged steps reach the ``steps.*``,
    ``cycles.machine`` and ``hw.*`` counters once per run, through
    :meth:`on_totals`; every other hook writes the registries directly.

    Parameters
    ----------
    registry:
        The :class:`~repro.telemetry.metrics.MetricsRegistry` to fill; a
        fresh one is created when omitted.
    mirrors:
        Further registries that receive every write made to ``registry``
        (the gateway's aggregate beside each tenant's own).
    """

    def __init__(
        self,
        registry: Optional["MetricsRegistry"] = None,
        mirrors: Sequence["MetricsRegistry"] = (),
    ):
        if registry is None:
            from .metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.registry = registry
        self._registries = (registry, *mirrors)

    # -- interpreter-level hooks --------------------------------------------

    def on_totals(self, steps: Mapping[str, int], cycles: int,
                  hw: Mapping[str, int]) -> None:
        counts = [(f"hw.{key}", n) for key, n in hw.items()]
        if steps:
            counts += [(f"steps.{kind}", n) for kind, n in steps.items()]
            counts += [("steps.total", sum(steps.values())),
                       ("cycles.machine", cycles)]
        for reg in self._registries:
            for name, count in counts:
                reg.inc(name, count)

    def on_sleep(self, duration: int, time: int) -> None:
        for reg in self._registries:
            reg.inc("steps.total")
            reg.inc("steps.sleep")
            reg.inc("cycles.sleep", duration)

    def on_finish(self, result) -> None:
        for reg in self._registries:
            reg.inc("runs")
            reg.inc("cycles.final", result.time)

    # -- mitigation-runtime hooks -------------------------------------------

    def on_miss_update(self, level: Optional[Label], misses: int) -> None:
        key = level.name if level is not None else "global"
        for reg in self._registries:
            reg.inc("mitigation.miss_updates")
            reg.set_gauge(f"miss.{key}", misses)
            reg.append_series(f"miss_trace.{key}", misses)

    def on_mitigate_enter(self, mit_id: str, level: Label, estimate: int,
                          prediction: int, time: int) -> None:
        for reg in self._registries:
            reg.inc("mitigation.entries")

    def on_mitigation(
        self,
        mit_id: str,
        level: Label,
        estimate: int,
        elapsed: int,
        padded: int,
        misses: int,
        pc_label: Optional[Label],
        end_time: int,
        wall_ns: int,
    ) -> None:
        padding = padded - elapsed
        for reg in self._registries:
            reg.inc("mitigation.completions")
            reg.inc("cycles.padding", padding)
            reg.observe("hist.mitigation.duration", padded)
            reg.observe("hist.mitigation.padding", padding)
            # Per-site breakdown for `repro report`.
            reg.inc(f"site.{mit_id}.completions")
            reg.inc(f"site.{mit_id}.cycles", padded)
            reg.inc(f"site.{mit_id}.padding", padding)


class TeeRecorder(TraceRecorder):
    """Fans one execution out to several recorders, so one run can feed a
    metrics registry, a span assembler and a profiler at the same time.

    At construction each hook is bound to exactly the children that
    override it: a hook one child consumes calls that child directly, a
    hook nobody consumes stays the inherited no-op.  ``None`` children are
    dropped for call-site convenience.
    """

    def __init__(self, *recorders: Optional[TraceRecorder]):
        self.recorders = tuple(r for r in recorders if r is not None)
        for hook in HOOKS:
            sinks = [getattr(r, hook) for r in self.recorders
                     if overrides(r, hook)]
            if len(sinks) == 1:
                setattr(self, hook, sinks[0])
            elif sinks:
                setattr(self, hook, _fan_out(sinks))


def overrides(recorder: TraceRecorder, hook: str) -> bool:
    """Whether ``recorder`` does anything on ``hook`` (a nested tee's
    bound children count; the base no-op does not)."""
    method = getattr(recorder, hook)
    return getattr(method, "__func__", None) is not getattr(TraceRecorder,
                                                            hook)


def _fan_out(sinks):
    def hook(*args, **kwargs) -> None:
        for sink in sinks:
            sink(*args, **kwargs)
    return hook


def combine(*recorders: Optional[TraceRecorder]) -> Optional[TraceRecorder]:
    """One recorder observing for all of ``recorders``: ``None`` when none
    is given, the sink itself when one is, else a :class:`TeeRecorder`."""
    sinks = [r for r in recorders if r is not None]
    if len(sinks) > 1:
        return TeeRecorder(*sinks)
    return sinks[0] if sinks else None
