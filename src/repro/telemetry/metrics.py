"""Metric aggregation: counters, gauges, histograms, and JSON export.

A :class:`MetricsRegistry` is the sink behind
:class:`~repro.telemetry.recorder.RecordingTraceRecorder`.  It keeps four
kinds of series, all keyed by dotted metric names:

* **counters** -- monotone totals (``steps.total``, ``cycles.padding``,
  ``hw.l1d.hits``);
* **gauges** -- last-written values (``miss.H``: the current ``Miss[H]``);
* **histograms** -- value -> occurrence-count maps (``hist.mitigation.duration``);
* **series** -- append-only value lists for order-sensitive checks
  (``miss_trace.H``: every value ``Miss[H]`` ever took, in order).

:meth:`MetricsRegistry.as_dict` flattens everything into the JSON document
described in ``docs/TELEMETRY.md`` (schema ``repro.telemetry/1``), with a
derived ``timing`` section (machine/sleep/padding split, padding overhead
ratio) so benchmark reports can embed it directly; ``benchmarks/_report.py``
provides :func:`~benchmarks._report.write_metrics` to drop the document next
to the text reports in ``benchmarks/results/``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

SCHEMA = "repro.telemetry/1"

#: The cache and TLB components the ``hardware`` section counts, in order.
CACHE_COMPONENTS = ("l1d", "l2d", "l1i", "l2i", "dtlb", "itlb")


def site_breakdown(counters: Mapping[str, int]) -> Dict[str, Dict[str, int]]:
    """Per-mitigate-site totals from the ``site.<id>.<what>`` counters:
    completions, total (padded) and pure padding cycles per mitigate id
    -- the data behind ``repro report``'s padding breakdown."""
    sites: Dict[str, Dict[str, int]] = {}
    for name, value in counters.items():
        if name.startswith("site."):
            _, mit_id, what = name.split(".", 2)
            sites.setdefault(mit_id, {})[what] = value
    return sites


class MetricsRegistry:
    """Counter/gauge/histogram/series store with JSON export."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, int] = {}
        self.histograms: Dict[str, Dict[int, int]] = {}
        self.series: Dict[str, List[int]] = {}

    # -- writing --------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: int) -> None:
        """Set gauge ``name`` to its latest value."""
        self.gauges[name] = value

    def observe(self, name: str, value: int) -> None:
        """Record one occurrence of ``value`` in histogram ``name``."""
        hist = self.histograms.setdefault(name, {})
        hist[value] = hist.get(value, 0) + 1

    def append_series(self, name: str, value: int) -> None:
        """Append ``value`` to the ordered series ``name``."""
        self.series.setdefault(name, []).append(value)

    # -- reading --------------------------------------------------------------

    def counter(self, name: str) -> int:
        """Counter value (0 when never incremented)."""
        return self.counters.get(name, 0)

    def gauge(self, name: str, default: int = 0) -> int:
        """Latest gauge value."""
        return self.gauges.get(name, default)

    def miss_counters(self) -> Dict[str, int]:
        """Final per-level mitigation ``Miss`` values, by level name."""
        return {
            name[len("miss."):]: value
            for name, value in self.gauges.items()
            if name.startswith("miss.")
        }

    def attack_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-attack distinguisher statistics, from the
        ``attack.<name>.<stat>`` gauges (the gateway's leakage audit
        writes ``attack.service.*.advantage``)."""
        attacks: Dict[str, Dict[str, Any]] = {}
        for name, value in self.gauges.items():
            if name.startswith("attack."):
                attack, stat = name[len("attack."):].split(".", 1)
                attacks.setdefault(
                    attack, {"stats": {}}
                )["stats"][stat] = value
        return attacks

    def machine_cycles(self) -> int:
        """Cycles charged by the hardware (no sleep, no padding)."""
        return self.counter("cycles.machine")

    def padding_cycles(self) -> int:
        """Total pure-padding cycles across all completed mitigations."""
        return self.counter("cycles.padding")

    def final_cycles(self) -> int:
        """Sum of final clocks across recorded runs."""
        return self.counter("cycles.final")

    def padding_overhead_ratio(self) -> float:
        """Padding as a fraction of the final clock (0.0 when clock is 0)."""
        final = self.final_cycles()
        return self.padding_cycles() / final if final else 0.0

    # -- export ---------------------------------------------------------------

    def as_dict(self, leakage: Optional[Dict[str, Any]] = None,
                profile: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The JSON document (see ``docs/TELEMETRY.md`` for the schema).

        ``leakage`` is an optional pre-built section from a
        :class:`~repro.telemetry.leakage.DynamicLeakageMeter`;
        ``profile`` one from :meth:`~repro.telemetry.profiling.Profiler.as_dict`.
        """
        doc: Dict[str, Any] = {
            "schema": SCHEMA,
            "runs": self.counter("runs"),
            "counters": dict(sorted(self.counters.items())),
            "timing": {
                "machine_cycles": self.machine_cycles(),
                "sleep_cycles": self.counter("cycles.sleep"),
                "padding_cycles": self.padding_cycles(),
                "final_cycles": self.final_cycles(),
                "padding_overhead_ratio": self.padding_overhead_ratio(),
            },
            "mitigation": {
                "completions": self.counter("mitigation.completions"),
                "miss_updates": self.counter("mitigation.miss_updates"),
                "miss_per_level": self.miss_counters(),
            },
            "hardware": {
                "cache": {
                    comp: {
                        "hits": self.counter(f"hw.{comp}.hits"),
                        "misses": self.counter(f"hw.{comp}.misses"),
                    }
                    for comp in CACHE_COMPONENTS
                    if self.counter(f"hw.{comp}.hits")
                    or self.counter(f"hw.{comp}.misses")
                },
                "branch": {
                    "hits": self.counter("hw.branch.hits"),
                    "mispredictions": self.counter("hw.branch.mispredictions"),
                },
                "bypass_steps": self.counter("hw.bypass.steps"),
            },
            "histograms": {
                name: {str(k): v for k, v in sorted(hist.items())}
                for name, hist in sorted(self.histograms.items())
            },
            "series": {
                name: list(values)
                for name, values in sorted(self.series.items())
            },
        }
        sites = site_breakdown(self.counters)
        if sites:
            doc["sites"] = {k: sites[k] for k in sorted(sites)}
        attacks = self.attack_summary()
        if attacks:
            doc["attacks"] = {k: attacks[k] for k in sorted(attacks)}
        if leakage is not None:
            doc["leakage"] = leakage
        if profile is not None:
            doc["profile"] = profile
        return doc
