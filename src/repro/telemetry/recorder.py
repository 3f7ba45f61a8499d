"""The trace-recorder seam: runtime telemetry without semantic interference.

A :class:`TraceRecorder` observes one execution from the inside: every
charged step, every ``sleep``, every per-level ``Miss`` transition of the
mitigation runtime, every cache/TLB/branch hit-miss the hardware resolves,
every completed ``mitigate`` block with its padding, and every request the
gateway serves.  Recorders are strictly passive.  ``None`` is the only "off"
value: the interpreter, the mitigation runtime, the hardware models, the
gateway and the attacks check ``recorder is not None`` once per site before
doing *any* recording work, so an unobserved run pays one identity check and
recording can never perturb costs, state, or events (the regression tests in
``tests/test_telemetry.py`` enforce both).

The hooks mirror the layers of the full semantics:

* :meth:`on_run_start` / :meth:`on_step` / :meth:`on_sleep` -- the
  interpreter starts and its clock advances;
* :meth:`on_mitigate_enter` / :meth:`on_miss_update` /
  :meth:`on_mitigation` -- the Fig. 6 runtime (epoch boundaries,
  ``Miss[l]`` increments, prediction settling, padding);
* :meth:`on_cache_access` / :meth:`on_branch` / :meth:`on_bypass` -- the
  machine environment behind the :mod:`repro.hardware.interface` seam;
* :meth:`on_attack_sample` / :meth:`on_attack_stat` -- the adversaries in
  :mod:`repro.attacks` observing timing and computing distinguishers;
* :meth:`on_serve_start` / :meth:`on_request` / :meth:`on_serve_end` --
  the gateway (:mod:`repro.service.gateway`) serving a workload;
* :meth:`on_finish` -- the run completed with a final
  :class:`~repro.semantics.full.ExecutionResult`.

The sinks are :class:`RecordingTraceRecorder` (aggregates into a
:class:`~repro.telemetry.metrics.MetricsRegistry` and optionally a
:class:`~repro.telemetry.leakage.DynamicLeakageMeter`),
:class:`~repro.telemetry.spans.SpanRecorder` (timelines) and
:class:`~repro.telemetry.profiling.Profiler` (cycle/wall attribution).
:class:`TeeRecorder` is the one fan-out: it subscribes each child only to
the hooks that child overrides, and :func:`combine` picks ``None``, the
single sink, or a tee.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, TYPE_CHECKING

from ..lattice import Label

if TYPE_CHECKING:  # pragma: no cover
    from .leakage import DynamicLeakageMeter
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

    def on_step(self, kind, cost: int, time: int, wall_ns: int) -> None:
        """One charged evaluation step of ``kind`` costing ``cost`` cycles;
        ``time`` is the global clock *after* the charge and ``wall_ns``
        the host time the hardware model took to resolve it."""

    def on_sleep(self, duration: int, time: int) -> None:
        """A ``sleep`` advanced the clock by exactly ``duration`` cycles."""

    def on_finish(self, result) -> None:
        """The run completed with ``result`` (an ``ExecutionResult``)."""

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

    # -- hardware hooks ------------------------------------------------------

    def on_cache_access(self, component: str, hit: bool) -> None:
        """One lookup in ``component`` (``l1d``, ``l2d``, ``l1i``, ``l2i``,
        ``dtlb``, ``itlb``) resolved as a hit or a miss."""

    def on_branch(self, taken: bool, mispredicted: bool) -> None:
        """A branch resolved against the predictor."""

    def on_bypass(self, accesses: int) -> None:
        """A step bypassed the cache (the partitioned design's
        ``lr != lw`` worst-case path) with ``accesses`` data accesses."""

    # -- adversary hooks -----------------------------------------------------

    def on_attack_sample(self, attack: str, probe: str, time: int) -> None:
        """An adversary (:mod:`repro.attacks`) observed one timing sample
        ``time`` for probe ``probe`` (e.g. ``pos2.sym7`` for a password
        guess, a block address for a cache probe)."""

    def on_attack_stat(self, attack: str, stat: str, value) -> None:
        """An attack computed one distinguisher statistic (threshold
        accuracy, fitted slope/correlation, candidates remaining, ...)."""

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
    """A recorder that aggregates into a metrics registry and, optionally,
    a dynamic leakage meter.

    Parameters
    ----------
    registry:
        The :class:`~repro.telemetry.metrics.MetricsRegistry` to fill; a
        fresh one is created when omitted.
    meter:
        An optional :class:`~repro.telemetry.leakage.DynamicLeakageMeter`;
        completed mitigations are fed to it and each :meth:`on_finish`
        closes one observed deadline sequence.
    """

    def __init__(
        self,
        registry: Optional["MetricsRegistry"] = None,
        meter: Optional["DynamicLeakageMeter"] = None,
    ):
        if registry is None:
            from .metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.registry = registry
        self.meter = meter

    # -- interpreter-level hooks --------------------------------------------

    def on_step(self, kind, cost: int, time: int, wall_ns: int) -> None:
        reg = self.registry
        reg.inc("steps.total")
        reg.inc(f"steps.{kind.value}")
        reg.inc("cycles.machine", cost)

    def on_sleep(self, duration: int, time: int) -> None:
        reg = self.registry
        reg.inc("steps.total")
        reg.inc("steps.sleep")
        reg.inc("cycles.sleep", duration)

    def on_finish(self, result) -> None:
        reg = self.registry
        reg.inc("runs")
        reg.inc("cycles.final", result.time)
        if self.meter is not None:
            self.meter.end_run(result.time)

    # -- mitigation-runtime hooks -------------------------------------------

    def on_miss_update(self, level: Optional[Label], misses: int) -> None:
        reg = self.registry
        key = level.name if level is not None else "global"
        reg.inc("mitigation.miss_updates")
        reg.set_gauge(f"miss.{key}", misses)
        reg.append_series(f"miss_trace.{key}", misses)

    def on_mitigate_enter(self, mit_id: str, level: Label, estimate: int,
                          prediction: int, time: int) -> None:
        self.registry.inc("mitigation.entries")

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
        reg = self.registry
        padding = padded - elapsed
        reg.inc("mitigation.completions")
        reg.inc("cycles.padding", padding)
        reg.observe("hist.mitigation.duration", padded)
        reg.observe("hist.mitigation.padding", padding)
        # Per-site breakdown for `repro report`.
        reg.inc(f"site.{mit_id}.completions")
        reg.inc(f"site.{mit_id}.cycles", padded)
        reg.inc(f"site.{mit_id}.padding", padding)
        if self.meter is not None:
            self.meter.observe(
                mit_id, level, estimate, padded, pc_label
            )

    # -- hardware hooks ------------------------------------------------------

    def on_cache_access(self, component: str, hit: bool) -> None:
        self.registry.inc(
            f"hw.{component}.{'hits' if hit else 'misses'}"
        )

    def on_branch(self, taken: bool, mispredicted: bool) -> None:
        self.registry.inc(
            "hw.branch.mispredictions" if mispredicted else "hw.branch.hits"
        )

    def on_bypass(self, accesses: int) -> None:
        self.registry.inc("hw.bypass.steps")
        self.registry.inc("hw.bypass.accesses", accesses)

    # -- adversary hooks ------------------------------------------------------

    def on_attack_sample(self, attack: str, probe: str, time: int) -> None:
        reg = self.registry
        reg.inc(f"attack.{attack}.samples")
        reg.append_series(f"attack_times.{attack}", time)

    def on_attack_stat(self, attack: str, stat: str, value) -> None:
        self.registry.set_gauge(f"attack.{attack}.{stat}", value)


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
                     if _overrides(r, hook)]
            if len(sinks) == 1:
                setattr(self, hook, sinks[0])
            elif sinks:
                setattr(self, hook, _fan_out(sinks))


def _overrides(recorder: TraceRecorder, hook: str) -> bool:
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
