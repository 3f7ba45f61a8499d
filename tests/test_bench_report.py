"""The benchmark reporting helpers (benchmarks/_report.py).

The bench harness is part of the deliverable (it regenerates the paper's
tables and figures), so its formatting utilities get tests too.
"""

import importlib.util
import json
import os
import sys

import pytest

_REPORT_PATH = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "_report.py"
)
spec = importlib.util.spec_from_file_location("_report", _REPORT_PATH)
_report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(_report)


class TestReport:
    def test_table_alignment(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_report, "RESULTS_DIR", str(tmp_path))
        r = _report.Report("t", "Title")
        r.table(("a", "bb"), [(1, 22), (333, 4)])
        text = r.emit()
        lines = text.splitlines()
        header = next(l for l in lines if l.startswith("a"))
        sep = lines[lines.index(header) + 1]
        assert set(sep) <= {"-", " "}
        assert (tmp_path / "t.txt").exists()

    def test_expect_verdicts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_report, "RESULTS_DIR", str(tmp_path))
        r = _report.Report("t2", "Title")
        r.expect("thing", "p", "m", True)
        r.expect("other", "p", "m", False)
        text = r.emit()
        assert "[REPRODUCED] thing" in text
        assert "[DIVERGED] other" in text

    def test_helpers(self):
        assert _report.series_constant([3, 3, 3])
        assert not _report.series_constant([3, 4])
        assert _report.mean([1, 2, 3]) == 2


class TestArtifactWriters:
    def test_write_metrics_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_report, "RESULTS_DIR", str(tmp_path))
        payload = {"schema": "repro.telemetry/1", "runs": 2,
                   "counters": {"steps": 7}}
        path = _report.write_metrics("demo", payload)
        assert path == str(tmp_path / "demo_metrics.json")
        with open(path) as handle:
            assert json.load(handle) == payload

    def test_write_trace_produces_chrome_trace(self, tmp_path, monkeypatch):
        from repro.telemetry import Span

        monkeypatch.setattr(_report, "RESULTS_DIR", str(tmp_path))
        spans = [
            Span(span_id=1, parent_id=None, track=0, name="run",
                 category="run", start=0, end=100),
            Span(span_id=2, parent_id=1, track=0, name="mitigate m1",
                 category="mitigate", start=10, end=90),
        ]
        path = _report.write_trace("demo", spans)
        assert path == str(tmp_path / "demo_trace.json")
        with open(path) as handle:
            doc = json.load(handle)
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases.count("B") == len(spans)
        assert phases.count("B") == phases.count("E")

    def test_repo_path_is_relative_to_the_repo_root(self):
        path = os.path.join(_report.RESULTS_DIR, "fig7_metrics.json")
        assert _report.repo_path(path) == os.path.join(
            "benchmarks", "results", "fig7_metrics.json")

    def test_writers_create_results_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "fresh" / "results"
        monkeypatch.setattr(_report, "RESULTS_DIR", str(target))
        _report.write_metrics("demo", {"runs": 0})
        assert target.is_dir()


class TestAsciiPlot:
    def test_flat_series(self):
        text = _report.ascii_plot({"s": [5, 5, 5]}, width=20, height=4)
        assert "o s" in text
        assert text.count("o") >= 3

    def test_two_series_distinct_markers(self):
        text = _report.ascii_plot(
            {"low": [1, 1, 1], "high": [9, 9, 9]}, width=12, height=5
        )
        assert "o low" in text and "x high" in text
        lines = text.splitlines()
        # high occupies the top row, low the bottom.
        assert "x" in lines[0]
        assert "o" in lines[-2]

    def test_axis_labels(self):
        text = _report.ascii_plot({"s": [10, 90]}, width=10, height=4)
        assert "90 |" in text
        assert "10 |" in text

    def test_empty(self):
        assert _report.ascii_plot({}) == "(empty plot)"

    def test_single_point(self):
        text = _report.ascii_plot({"s": [42]}, width=8, height=3)
        assert "42" in text

    def test_monotone_series_renders_diagonal(self):
        text = _report.ascii_plot({"s": list(range(10))}, width=10,
                                  height=10)
        lines = [l.split("|", 1)[1] for l in text.splitlines() if "|" in l]
        first_col = next(i for i, ch in enumerate(lines[-1]) if ch == "o")
        last_col = next(i for i, ch in enumerate(lines[0]) if ch == "o")
        assert last_col > first_col
