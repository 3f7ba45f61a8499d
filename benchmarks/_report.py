"""Shared reporting for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's evaluation
and prints paper-expected vs measured rows.  Output goes both to stdout
(visible with ``pytest -s`` or in the captured section) and to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference stable
artifacts.
"""

from __future__ import annotations

import io
import json
import os
from typing import Any, Iterable, Mapping, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ensure_results_dir() -> str:
    """Create ``benchmarks/results/`` when absent (fresh clones don't ship
    the generated JSON artifacts; see .gitignore) and return its path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def write_metrics(name: str, payload: Mapping[str, Any]) -> str:
    """Write a telemetry JSON document (``repro.telemetry/1``) next to the
    text reports as ``benchmarks/results/<name>_metrics.json``; returns the
    path.  ``payload`` is typically
    ``MetricsRegistry.as_dict(leakage=meter.as_dict())``.  The schema
    version is stamped uniformly here so every ``bench_*`` artifact is
    version-tagged even when a producer builds the document by hand."""
    from repro.telemetry import SCHEMA

    ensure_results_dir()
    doc = dict(payload)
    doc.setdefault("schema", SCHEMA)
    path = os.path.join(RESULTS_DIR, f"{name}_metrics.json")
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    return path


def repo_path(path: str) -> str:
    """``path`` relative to the repo root, for the committed reports: a
    report names its artifacts the same way in every checkout."""
    return os.path.relpath(path, REPO_ROOT)


def write_trace(name: str, spans) -> str:
    """Write a Chrome trace-event timeline (Perfetto-loadable) next to the
    text reports as ``benchmarks/results/<name>_trace.json``; returns the
    path.  ``spans`` is a :class:`repro.telemetry.SpanRecorder` span list
    (``detail="epochs"`` keeps benchmark streams compact: one track per
    run, one child span per mitigate epoch)."""
    from repro.telemetry import write_chrome_trace

    ensure_results_dir()
    path = os.path.join(RESULTS_DIR, f"{name}_trace.json")
    write_chrome_trace(path, spans)
    return path


class Report:
    """Collects the rows of one reproduced table/figure."""

    def __init__(self, name: str, title: str):
        self.name = name
        self.title = title
        self._buffer = io.StringIO()
        self.line("=" * 72)
        self.line(title)
        self.line("=" * 72)

    def line(self, text: str = "") -> None:
        self._buffer.write(text + "\n")

    def table(self, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
        rows = [[str(c) for c in row] for row in rows]
        widths = [
            max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)
        ]
        self.line("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
        self.line("  ".join("-" * w for w in widths))
        for row in rows:
            self.line("  ".join(c.ljust(w) for c, w in zip(row, widths)))

    def expect(self, what: str, paper: str, measured: str, ok: bool) -> None:
        verdict = "REPRODUCED" if ok else "DIVERGED"
        self.line(f"[{verdict}] {what}: paper={paper} measured={measured}")

    def emit(self) -> str:
        text = self._buffer.getvalue()
        ensure_results_dir()
        with open(os.path.join(RESULTS_DIR, f"{self.name}.txt"), "w") as f:
            f.write(text)
        print("\n" + text)
        return text


def series_constant(values: Sequence[int]) -> bool:
    return len(set(values)) == 1


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def ascii_plot(
    series: "dict[str, Sequence[float]]",
    width: int = 64,
    height: int = 12,
) -> str:
    """A monochrome ASCII rendering of one or more y-series.

    Each series gets a marker character; x positions are the sample
    indices scaled to ``width``.  Good enough to eyeball the *shape* the
    paper's figures show (separated bands, coinciding flat lines,
    staircases vs linear growth).
    """
    markers = "ox+*#@%&"
    all_values = [v for values in series.values() for v in values]
    if not all_values:
        return "(empty plot)"
    lo, hi = min(all_values), max(all_values)
    span = (hi - lo) or 1
    grid = [[" "] * width for _ in range(height)]
    for (name, values), marker in zip(series.items(), markers):
        n = len(values)
        for i, value in enumerate(values):
            x = int(i * (width - 1) / max(n - 1, 1))
            y = int((value - lo) * (height - 1) / span)
            row = height - 1 - y
            grid[row][x] = marker
    lines = [
        f"{hi:>10.0f} |" + "".join(grid[0]),
    ]
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{lo:>10.0f} |" + "".join(grid[-1]))
    legend = "   ".join(
        f"{marker} {name}"
        for (name, _), marker in zip(series.items(), markers)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
