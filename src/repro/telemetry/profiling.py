"""Continuous performance observability: the profiler sink.

This module is the *wall-clock* counterpart of the leakage telemetry: it
attributes **simulated cycles** and **host wall-time** to the subsystems
that spend them -- interpreter dispatch, each hardware model's access
path, mitigation epoch scheduling, and the gateway event loop -- so that
perf regressions become visible the way leakage regressions already are.

:class:`Profiler` is one more :class:`~repro.telemetry.recorder.TraceRecorder`
sink, attached as (or tee'd into) a run's ``recorder``:

* **Zero overhead when off.**  ``None`` is the only "off": with no recorder
  the interpreter hot path pays one identity check per site and reads no
  clock (``tests/test_recorder_off.py`` checks both).
* **Cycle attribution is exact.**  ``on_step`` charges ``hardware.<model>``,
  ``on_sleep`` ``interpreter.sleep`` and ``on_mitigation``
  ``mitigation.padding``, so per run ``hardware.* + interpreter.sleep +
  mitigation.padding`` equals the final global time (a Hypothesis
  property cross-checks this against :class:`~repro.telemetry.spans`
  run-span durations).  Wall-time attribution is best-effort (timer
  granularity): the interpreter times each hardware step and mitigation
  settlement when a recorder is attached, and ``interpreter.dispatch`` is
  the run's wall-time (``on_run_start`` to ``on_finish``) minus those
  nested sections.  The gateway hooks add ``gateway.handlers``,
  ``gateway.loop``, latency streams and budget burn-down.

The output surfaces are :meth:`Profiler.as_dict` (the ``profile``
section rendered by ``repro report``) and
:func:`prometheus_exposition` (Prometheus text format, version 0.0.4).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .recorder import TraceRecorder

#: Schema tag stamped into the ``profile`` document section.
PROFILE_SCHEMA = "repro.profile/1"

#: Quantiles every latency summary reports.
QUANTILES: Tuple[float, ...] = (0.50, 0.95, 0.99)


class StreamingHistogram:
    """A mergeable streaming histogram over non-negative integers.

    Values are binned HdrHistogram-style: exact buckets below
    ``2**sub_bits``, then log2 buckets keeping ``sub_bits`` bits of
    mantissa, so every reported quantile is a bucket lower bound within
    ``2**-sub_bits`` relative error of the true order statistic (0.8%
    at the default ``sub_bits=7``).  Memory is O(buckets touched), and
    two histograms with the same ``sub_bits`` merge by adding counts --
    quantiles of the merge equal quantiles of the concatenated stream.
    """

    __slots__ = ("sub_bits", "_linear", "counts", "count", "total",
                 "min", "max")

    def __init__(self, sub_bits: int = 7):
        if not 0 <= sub_bits <= 16:
            raise ValueError(f"sub_bits out of range: {sub_bits}")
        self.sub_bits = sub_bits
        self._linear = 1 << sub_bits
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    # -- binning -----------------------------------------------------------

    def _index(self, value: int) -> int:
        if value < self._linear:
            return value
        shift = value.bit_length() - 1 - self.sub_bits
        return self._linear + shift * self._linear + (
            (value >> shift) - self._linear
        )

    def _lower_bound(self, index: int) -> int:
        if index < self._linear:
            return index
        shift, offset = divmod(index - self._linear, self._linear)
        return (self._linear + offset) << shift

    # -- recording ---------------------------------------------------------

    def observe(self, value: int) -> None:
        value = max(int(value), 0)
        index = self._index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold ``other`` into this histogram (same ``sub_bits`` only)."""
        if other.sub_bits != self.sub_bits:
            raise ValueError(
                f"cannot merge histograms with sub_bits "
                f"{self.sub_bits} != {other.sub_bits}"
            )
        for index, n in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min,
                                                             other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max,
                                                              other.max)

    # -- querying ----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> int:
        """Nearest-rank quantile, reported as its bucket lower bound
        clamped into the observed [min, max] range (so q=0 and q=1 are
        exact)."""
        if not self.count:
            return 0
        q = min(max(q, 0.0), 1.0)
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                value = self._lower_bound(index)
                return min(max(value, self.min), self.max)
        return self.max  # pragma: no cover -- counts always sum to count

    def quantiles(self, qs: Iterable[float] = QUANTILES) -> Dict[str, int]:
        return {f"p{round(q * 100):d}": self.quantile(q) for q in qs}

    # -- (de)serialization -------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "sub_bits": self.sub_bits,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "StreamingHistogram":
        hist = cls(sub_bits=int(doc.get("sub_bits", 7)))
        hist.counts = {int(k): int(v)
                       for k, v in dict(doc.get("counts", {})).items()}
        hist.count = int(doc.get("count", 0))
        hist.total = int(doc.get("total", 0))
        hist.min = doc.get("min")
        hist.max = doc.get("max")
        return hist


class Profiler(TraceRecorder):
    """Accumulates per-subsystem cycle/wall attribution plus latency
    histograms and per-tenant leakage-budget burn-down gauges, fed by the
    interpreter and gateway hooks (see module docstring)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.cycles: Dict[str, int] = {}
        self.wall_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.latencies: Dict[str, StreamingHistogram] = {}
        self.budgets: Dict[str, Dict[str, float]] = {}
        self._hardware = "hardware.unknown"
        self._run_started = self._nested_before = 0
        self._serve_started = self._handlers_before = 0
        self._serving = False

    # -- subsystem attribution ---------------------------------------------

    def add_cycles(self, subsystem: str, cycles: int, calls: int = 0) -> None:
        self.cycles[subsystem] = self.cycles.get(subsystem, 0) + cycles
        if calls:
            self.calls[subsystem] = self.calls.get(subsystem, 0) + calls

    def add_wall(self, subsystem: str, ns: int, calls: int = 0) -> None:
        self.wall_ns[subsystem] = self.wall_ns.get(subsystem, 0) + ns
        if calls:
            self.calls[subsystem] = self.calls.get(subsystem, 0) + calls

    @contextmanager
    def section(self, subsystem: str) -> Iterator[None]:
        """Wall-time a block under ``subsystem`` (one call per entry)."""
        start = self.clock()
        try:
            yield
        finally:
            self.add_wall(subsystem, self.clock() - start, calls=1)

    def total_cycles(self) -> int:
        """Sum of all attributed simulated cycles (per run this equals
        the final global clock; see module docstring)."""
        return sum(self.cycles.values())

    def subsystems(self) -> List[str]:
        return sorted(set(self.cycles) | set(self.wall_ns) | set(self.calls))

    # -- latency histograms ------------------------------------------------

    def observe_latency(self, name: str, value: int) -> None:
        hist = self.latencies.get(name)
        if hist is None:
            hist = self.latencies[name] = StreamingHistogram()
        hist.observe(value)

    # -- leakage-budget burn-down ------------------------------------------

    def burn(self, tenant: str, spent_bits: float,
             budget_bits: float) -> None:
        """Record a tenant's current leakage-budget burn-down: observed
        bits spent against the static Theorem 2 budget."""
        entry = self.budgets.get(tenant)
        if entry is None:
            entry = self.budgets[tenant] = {"updates": 0}
        entry["budget_bits"] = float(budget_bits)
        entry["spent_bits"] = float(spent_bits)
        entry["remaining_bits"] = max(float(budget_bits) - float(spent_bits),
                                      0.0)
        entry["updates"] += 1

    # -- interpreter hooks -------------------------------------------------
    #
    # While a gateway serves, each handler run is attributed whole to
    # ``gateway.handlers`` (see :meth:`on_request`); the per-run hooks
    # skip it so no simulated cycle is counted twice.

    def _nested_wall(self) -> int:
        return (self.wall_ns.get(self._hardware, 0)
                + self.wall_ns.get("mitigation.schedule", 0))

    def on_run_start(self, attrs: Mapping[str, Any]) -> None:
        if self._serving:
            return
        self._hardware = _hardware_key(attrs["hardware"])
        self._nested_before = self._nested_wall()
        self._run_started = self.clock()

    def on_step(self, kind, cost: int, time: int, wall_ns: int,
                hw: Mapping[str, int]) -> None:
        if self._serving:
            return
        self.add_cycles(self._hardware, cost, calls=1)
        self.add_wall(self._hardware, wall_ns)

    def on_sleep(self, duration: int, time: int) -> None:
        if self._serving:
            return
        self.add_cycles("interpreter.sleep", duration, calls=1)

    def on_mitigation(self, mit_id, level, estimate, elapsed, padded,
                      misses, pc_label, end_time, wall_ns) -> None:
        if self._serving:
            return
        self.add_wall("mitigation.schedule", wall_ns, calls=1)
        self.add_cycles("mitigation.padding", padded - elapsed, calls=1)

    def on_finish(self, result) -> None:
        if self._serving:
            return
        # Dispatch = the run's own wall-time, i.e. everything that is not
        # the nested hardware/mitigation sections.  It gets zero cycles:
        # dispatch never advances the clock, so the cycle counters still
        # partition the final time.
        run_wall = self.clock() - self._run_started
        nested = self._nested_wall() - self._nested_before
        self.add_wall("interpreter.dispatch", max(run_wall - nested, 0),
                      calls=result.steps)

    # -- gateway hooks -----------------------------------------------------

    def on_serve_start(self) -> None:
        self._serving = True
        self._handlers_before = self.wall_ns.get("gateway.handlers", 0)
        self._serve_started = self.clock()

    def on_request(self, response, wall_ns: int, meter) -> None:
        self.add_wall("gateway.handlers", wall_ns, calls=1)
        self.add_cycles("gateway.handlers", response.service)
        self.observe_latency("gateway.latency", response.latency)
        self.observe_latency(f"gateway.latency.{response.tenant}",
                             response.latency)
        self.burn(response.tenant, meter.observed_bits,
                  meter.static_bound_bits())

    def on_serve_end(self, events: int) -> None:
        # The event loop's own wall-time: total serve time minus the
        # nested handler runs.
        self._serving = False
        loop_wall = self.clock() - self._serve_started
        handler_wall = (self.wall_ns.get("gateway.handlers", 0)
                        - self._handlers_before)
        self.add_wall("gateway.loop", max(loop_wall - handler_wall, 0),
                      calls=events)

    # -- export ------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """The ``profile`` document section (schema ``repro.profile/1``)."""
        subsystems: Dict[str, Dict[str, object]] = {}
        for name in self.subsystems():
            cycles = self.cycles.get(name, 0)
            wall_ns = self.wall_ns.get(name, 0)
            subsystems[name] = {
                "cycles": cycles,
                "wall_ns": wall_ns,
                "calls": self.calls.get(name, 0),
                "cycles_per_sec": (
                    round(cycles * 1e9 / wall_ns, 1)
                    if cycles and wall_ns else None
                ),
            }
        latency: Dict[str, Dict[str, object]] = {}
        for name in sorted(self.latencies):
            hist = self.latencies[name]
            entry: Dict[str, object] = {
                "count": hist.count,
                "total": hist.total,
                "mean": round(hist.mean, 2),
                "min": hist.min,
                "max": hist.max,
            }
            entry.update(hist.quantiles())
            latency[name] = entry
        return {
            "schema": PROFILE_SCHEMA,
            "total_cycles": self.total_cycles(),
            "subsystems": subsystems,
            "latency": latency,
            "budgets": {t: dict(v) for t, v in sorted(self.budgets.items())},
        }


def hardware_subsystem(environment: object) -> str:
    """The attribution key for a hardware model's access path, derived
    from the class name so the hot path never consults the registry
    (``PartitionedHardware`` -> ``hardware.partitioned``)."""
    return _hardware_key(type(environment).__name__)


def _hardware_key(class_name: str) -> str:
    name = class_name.lower()
    if name.endswith("hardware"):
        name = name[: -len("hardware")]
    return f"hardware.{name or 'unknown'}"


# -- rendering ---------------------------------------------------------------


def render_profile_lines(profile: Mapping) -> List[str]:
    """Render a ``profile`` section as text lines (the body of
    :func:`repro.telemetry.report.render_profile`)."""
    lines: List[str] = []
    subsystems = profile.get("subsystems") or {}
    if subsystems:
        lines.append(
            f"{'subsystem':<26} {'cycles':>12} {'wall ms':>10} "
            f"{'calls':>8} {'Mcyc/s':>8}"
        )
        for name in sorted(subsystems):
            entry = subsystems[name]
            wall_ms = entry.get("wall_ns", 0) / 1e6
            rate = entry.get("cycles_per_sec")
            rate_text = f"{rate / 1e6:>8.2f}" if rate else f"{'-':>8}"
            lines.append(
                f"{name:<26} {entry.get('cycles', 0):>12} {wall_ms:>10.3f} "
                f"{entry.get('calls', 0):>8} {rate_text}"
            )
        lines.append(f"total attributed cycles: "
                     f"{profile.get('total_cycles', 0)}")
    for name, entry in sorted((profile.get("latency") or {}).items()):
        lines.append(
            f"latency {name}: n={entry.get('count', 0)} "
            f"p50={entry.get('p50')} p95={entry.get('p95')} "
            f"p99={entry.get('p99')} max={entry.get('max')}"
        )
    budgets = profile.get("budgets") or {}
    if budgets:
        lines.append("leakage-budget burn-down (bits):")
        for tenant, entry in sorted(budgets.items()):
            lines.append(
                f"  {tenant}: spent {entry.get('spent_bits', 0.0):.3f} / "
                f"budget {entry.get('budget_bits', 0.0):.3f} "
                f"({entry.get('remaining_bits', 0.0):.3f} remaining)"
            )
    return lines


# -- Prometheus text exposition ----------------------------------------------


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _fmt(value: float) -> str:
    # Integers render without a trailing .0; floats use repr (full
    # precision, parseable by the Prometheus text-format scanner).
    if isinstance(value, bool):  # pragma: no cover -- defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_exposition(profile: Mapping) -> str:
    """Serialize a ``profile`` section (``Profiler.as_dict()`` output or
    the ``profile`` key of a metrics document) in the Prometheus text
    exposition format (0.0.4)."""
    lines: List[str] = []
    subsystems = profile.get("subsystems") or {}
    if subsystems:
        lines.append("# HELP repro_profile_cycles_total Simulated cycles "
                     "attributed to the subsystem.")
        lines.append("# TYPE repro_profile_cycles_total counter")
        for name in sorted(subsystems):
            lines.append(
                f'repro_profile_cycles_total'
                f'{{subsystem="{_escape_label(name)}"}} '
                f"{_fmt(int(subsystems[name].get('cycles', 0)))}"
            )
        lines.append("# HELP repro_profile_wall_seconds_total Host "
                     "wall-clock seconds attributed to the subsystem.")
        lines.append("# TYPE repro_profile_wall_seconds_total counter")
        for name in sorted(subsystems):
            lines.append(
                f'repro_profile_wall_seconds_total'
                f'{{subsystem="{_escape_label(name)}"}} '
                f"{_fmt(int(subsystems[name].get('wall_ns', 0)) / 1e9)}"
            )
        lines.append("# HELP repro_profile_calls_total Instrumented "
                     "entries into the subsystem.")
        lines.append("# TYPE repro_profile_calls_total counter")
        for name in sorted(subsystems):
            lines.append(
                f'repro_profile_calls_total'
                f'{{subsystem="{_escape_label(name)}"}} '
                f"{_fmt(int(subsystems[name].get('calls', 0)))}"
            )
    latency = profile.get("latency") or {}
    if latency:
        lines.append("# HELP repro_profile_latency_cycles Request latency "
                     "in simulated cycles.")
        lines.append("# TYPE repro_profile_latency_cycles summary")
        for name in sorted(latency):
            entry = latency[name]
            label = _escape_label(name)
            for q in QUANTILES:
                key = f"p{round(q * 100):d}"
                lines.append(
                    f'repro_profile_latency_cycles{{name="{label}",'
                    f'quantile="{q}"}} {_fmt(int(entry.get(key, 0) or 0))}'
                )
            lines.append(
                f'repro_profile_latency_cycles_sum{{name="{label}"}} '
                f"{_fmt(int(entry.get('total', 0) or 0))}"
            )
            lines.append(
                f'repro_profile_latency_cycles_count{{name="{label}"}} '
                f"{_fmt(int(entry.get('count', 0) or 0))}"
            )
    budgets = profile.get("budgets") or {}
    if budgets:
        lines.append("# HELP repro_profile_tenant_budget_bits Leakage-"
                     "budget burn-down per tenant, in bits.")
        lines.append("# TYPE repro_profile_tenant_budget_bits gauge")
        for tenant in sorted(budgets):
            entry = budgets[tenant]
            label = _escape_label(tenant)
            for kind, key in (("budget", "budget_bits"),
                              ("spent", "spent_bits"),
                              ("remaining", "remaining_bits")):
                lines.append(
                    f'repro_profile_tenant_budget_bits{{tenant="{label}",'
                    f'kind="{kind}"}} {_fmt(float(entry.get(key, 0.0)))}'
                )
    return "\n".join(lines) + "\n" if lines else ""
