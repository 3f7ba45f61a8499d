"""Execution timelines: span assembly, the event journal, Chrome export.

Four groups:

* **span assembly** -- the :class:`SpanRecorder` turns the flat hook
  stream into the documented hierarchy (run > mitigate epoch > command /
  padding, hardware bursts as children) with correct interval arithmetic;
* **event journal** -- JSONL round-trip, the bounded ring, and span
  reconstruction from a journal file;
* **Chrome trace export** -- the Perfetto-loadable document satisfies the
  trace-event invariants: every ``B`` has a matching ``E``, timestamps
  are monotone non-decreasing within a track, the whole document is
  JSON-serializable;
* **composition** -- :class:`TeeRecorder` fan-out feeds metrics and spans
  from one execution.
"""

import json

import pytest

from repro.api import compile_program
from repro.lang import DEFAULT_LATTICE
from repro.telemetry import (
    EventJournal,
    Profiler,
    RecordingTraceRecorder,
    Span,
    SpanRecorder,
    TeeRecorder,
    chrome_trace,
    combine,
    load_journal,
    spans_from_journal,
    write_chrome_trace,
)
from repro.telemetry.spans import (
    CATEGORY_COMMAND,
    CATEGORY_HARDWARE,
    CATEGORY_MITIGATE,
    CATEGORY_PADDING,
    CATEGORY_RUN,
    json_safe,
)

LAT = DEFAULT_LATTICE

MITIGATED = (
    "mitigate(16, H) { while h > 0 do { h := h - 1 } };\nready := 1\n"
)
SLEEPY = "sleep(5);\nready := 1\n"


def _run_recorded(source="", gamma=None, memory=None, recorder=None,
                  **kwargs):
    compiled = compile_program(
        source or MITIGATED, gamma or {"h": "H", "ready": "L"}
    )
    result = compiled.run(memory or {"h": 9, "ready": 0},
                          recorder=recorder, **kwargs)
    return compiled, result


def _assert_trace_invariants(doc):
    events = doc["traceEvents"]
    depth = {}
    last_ts = {}
    for event in events:
        if event["ph"] not in ("B", "E"):
            continue
        tid = event["tid"]
        if tid in last_ts:
            assert event["ts"] >= last_ts[tid], (
                f"ts went backwards on tid {tid}: {event}"
            )
        last_ts[tid] = event["ts"]
        depth[tid] = depth.get(tid, 0) + (1 if event["ph"] == "B" else -1)
        assert depth[tid] >= 0, f"E without B on tid {tid}: {event}"
    assert depth and all(v == 0 for v in depth.values()), (
        f"unbalanced B/E pairs: {depth}"
    )


class TestSpanAssembly:
    def test_hierarchy_and_intervals(self):
        recorder = SpanRecorder()
        _, result = _run_recorded(recorder=recorder)
        spans = recorder.spans
        by_id = {s.span_id: s for s in spans}

        runs = [s for s in spans if s.category == CATEGORY_RUN]
        assert len(runs) == 1
        root = runs[0]
        assert root.start == 0 and root.end == result.time
        assert root.attrs["final_time"] == result.time
        assert root.attrs["total_steps"] == result.steps
        assert root.attrs["mitigations"] == 1
        assert root.attrs["hardware"] == "PartitionedHardware"
        assert "DoublingScheme" in root.attrs["mitigation"]

        epochs = [s for s in spans if s.category == CATEGORY_MITIGATE]
        assert len(epochs) == 1
        epoch = epochs[0]
        record = result.mitigations[0]
        assert epoch.name == record.mit_id
        assert epoch.start == record.start_time
        assert epoch.end == record.end_time
        assert epoch.attrs["elapsed"] + epoch.attrs["padding"] == \
            epoch.attrs["padded"] == epoch.duration
        assert epoch.attrs["level"] == "H"
        assert epoch.attrs["estimate"] == 16
        assert epoch.attrs["prediction"] >= 16
        assert epoch.attrs["misses"] >= 1
        assert epoch.attrs["miss_updates"]

        # Every span nests inside its parent's interval.
        for span in spans:
            assert span.end is not None and span.end >= span.start
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.start <= span.start
                assert span.end <= parent.end

    def test_padding_child_covers_the_stretch(self):
        recorder = SpanRecorder()
        _, _ = _run_recorded(recorder=recorder)
        epoch = next(s for s in recorder.spans
                     if s.category == CATEGORY_MITIGATE)
        pads = [s for s in recorder.spans
                if s.category == CATEGORY_PADDING
                and s.parent_id == epoch.span_id]
        assert len(pads) == 1
        pad = pads[0]
        assert pad.start == epoch.start + epoch.attrs["elapsed"]
        assert pad.end == epoch.end
        assert pad.duration == epoch.attrs["padding"] > 0

    def test_command_leaves_cover_machine_time(self):
        recorder = SpanRecorder()
        _, result = _run_recorded(recorder=recorder)
        leaves = [s for s in recorder.spans
                  if s.category == CATEGORY_COMMAND]
        assert leaves
        # Leaf intervals are [time - cost, time] and their costs sum to
        # the machine (non-sleep, non-padding) share of the clock.
        meter = RecordingTraceRecorder()
        _run_recorded(recorder=meter)
        assert sum(s.attrs["cost"] for s in leaves) == \
            meter.registry.machine_cycles()
        for leaf in leaves:
            assert leaf.duration == leaf.attrs["cost"]

    def test_hardware_bursts_attach_to_their_step(self):
        recorder = SpanRecorder()
        _run_recorded(recorder=recorder)
        bursts = [s for s in recorder.spans
                  if s.category == CATEGORY_HARDWARE]
        assert bursts
        commands = {s.span_id for s in recorder.spans
                    if s.category == CATEGORY_COMMAND}
        for burst in bursts:
            assert burst.parent_id in commands
            assert any(".hits" in k or ".misses" in k
                       for k in burst.attrs)

    def test_sleep_spans(self):
        recorder = SpanRecorder()
        _run_recorded(SLEEPY, {"ready": "L"}, {"ready": 0},
                      recorder=recorder)
        sleeps = [s for s in recorder.spans if s.category == "sleep"]
        assert len(sleeps) == 1
        assert sleeps[0].duration == 5

    def test_epochs_detail_aggregates(self):
        recorder = SpanRecorder(detail="epochs")
        _, result = _run_recorded(recorder=recorder)
        categories = {s.category for s in recorder.spans}
        assert CATEGORY_COMMAND not in categories
        assert CATEGORY_HARDWARE not in categories
        epoch = next(s for s in recorder.spans
                     if s.category == CATEGORY_MITIGATE)
        assert epoch.attrs["steps"] > 0
        assert epoch.attrs["machine_cycles"] > 0
        assert any(k.startswith("hw.") for k in epoch.attrs)

    def test_detail_validated(self):
        with pytest.raises(ValueError):
            SpanRecorder(detail="everything")

    def test_multiple_runs_get_distinct_tracks(self):
        recorder = SpanRecorder(detail="epochs")
        compiled = compile_program(MITIGATED, {"h": "H", "ready": "L"})
        for h in (3, 9):
            compiled.run({"h": h, "ready": 0}, recorder=recorder)
        runs = [s for s in recorder.spans if s.category == CATEGORY_RUN]
        assert len(runs) == 2
        assert {s.track for s in runs} == {0, 1}

    def test_keep_spans_off_retains_nothing(self):
        journal = EventJournal()
        recorder = SpanRecorder(journal=journal, keep_spans=False)
        _run_recorded(recorder=recorder)
        assert recorder.spans == []
        assert any(r["type"] == "span" for r in journal.records())


class TestEventJournal:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = EventJournal(str(path))
        recorder = SpanRecorder(journal=journal)
        _, result = _run_recorded(recorder=recorder)
        journal.close()

        records = load_journal(str(path))
        assert records[0]["type"] == "header"
        assert records[0]["schema"] == "repro.telemetry/1"
        kinds = {r["type"] for r in records}
        assert {"header", "run_start", "span", "miss_update",
                "run_end"} <= kinds
        end = next(r for r in records if r["type"] == "run_end")
        assert end["time"] == result.time

        rebuilt = spans_from_journal(records)
        assert sorted(s.span_id for s in rebuilt) == \
            sorted(s.span_id for s in recorder.spans)
        for a, b in zip(rebuilt, sorted(recorder.spans,
                                        key=lambda s: (s.track, s.start,
                                                       s.span_id))):
            assert (a.name, a.category, a.start, a.end) == \
                (b.name, b.category, b.start, b.end)

    def test_ring_bound(self):
        journal = EventJournal(ring_size=10)
        recorder = SpanRecorder(journal=journal, keep_spans=False)
        _run_recorded(recorder=recorder)
        assert len(journal.records()) == 10
        assert journal.emitted > 10

    def test_close_is_idempotent(self, tmp_path):
        journal = EventJournal(str(tmp_path / "j.jsonl"))
        journal.close()
        journal.close()

    def test_context_manager(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EventJournal(str(path)) as journal:
            journal.emit({"type": "run_end", "track": 0, "time": 1,
                          "steps": 1})
        assert len(load_journal(str(path))) == 2

    def test_labels_become_names(self):
        journal = EventJournal()
        journal.emit({"type": "x", "level": LAT["H"],
                      "nested": {"l": LAT["L"]}, "seq": [LAT["H"]]})
        record = journal.records()[-1]
        assert record["level"] == "H"
        assert record["nested"]["l"] == "L"
        assert record["seq"] == ["H"]
        assert json_safe(LAT["H"]) == "H"


class TestChromeTrace:
    def test_invariants_on_a_real_run(self):
        recorder = SpanRecorder()
        _run_recorded(recorder=recorder)
        doc = chrome_trace(recorder.spans)
        _assert_trace_invariants(doc)
        json.dumps(doc)  # Perfetto needs plain JSON
        assert doc["otherData"]["schema"] == "repro.telemetry/1"

    def test_b_e_pairs_match_span_count(self):
        recorder = SpanRecorder()
        _run_recorded(recorder=recorder)
        doc = chrome_trace(recorder.spans)
        begins = [e for e in doc["traceEvents"] if e["ph"] == "B"]
        ends = [e for e in doc["traceEvents"] if e["ph"] == "E"]
        assert len(begins) == len(ends) == len(recorder.spans)

    def test_counter_and_metadata_events(self):
        recorder = SpanRecorder()
        _run_recorded(recorder=recorder)
        doc = chrome_trace(recorder.spans)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters and all("Miss" in e["name"] for e in counters)
        metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metadata)
        assert any(e["name"] == "thread_name" for e in metadata)

    def test_tracks_map_to_tids(self):
        recorder = SpanRecorder(detail="epochs")
        compiled = compile_program(MITIGATED, {"h": "H", "ready": "L"})
        for h in (3, 9):
            compiled.run({"h": h, "ready": 0}, recorder=recorder)
        doc = chrome_trace(recorder.spans)
        _assert_trace_invariants(doc)
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "B"}
        assert len(tids) == 2

    def test_write_chrome_trace(self, tmp_path):
        recorder = SpanRecorder()
        _run_recorded(recorder=recorder)
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), recorder.spans)
        _assert_trace_invariants(json.loads(path.read_text()))

    def test_open_spans_are_skipped(self):
        open_span = Span(span_id=0, parent_id=None, track=0, name="open",
                         category=CATEGORY_RUN, start=0, end=None)
        doc = chrome_trace([open_span])
        assert [e for e in doc["traceEvents"] if e["ph"] in "BE"] == []


class TestTeeRecorder:
    def test_fan_out_feeds_both_sinks(self):
        metrics = RecordingTraceRecorder()
        spans = SpanRecorder()
        tee = TeeRecorder(metrics, spans)
        # A hook both sinks consume fans out to both of them.
        assert tee.on_step not in (metrics.on_step, spans.on_step)
        _, result = _run_recorded(recorder=tee)
        assert metrics.registry.counter("runs") == 1
        assert metrics.registry.final_cycles() == result.time
        assert any(s.category == CATEGORY_MITIGATE for s in spans.spans)

    def test_none_recorders_dropped(self):
        spans = SpanRecorder()
        tee = TeeRecorder(None, spans, None)
        _run_recorded(recorder=tee)
        assert spans.spans

    def test_sinks_subscribe_only_to_the_hooks_they_override(self):
        metrics, profiler = RecordingTraceRecorder(), Profiler()
        tee = TeeRecorder(metrics, profiler)
        # One consumer: the hook is that sink's own bound method.
        assert tee.on_cache_access == metrics.on_cache_access
        assert tee.on_run_start == profiler.on_run_start
        assert tee.on_request == profiler.on_request
        # Nobody consumes it: the inherited no-op, not a fan-out.
        assert "on_cache_access" in vars(tee)
        assert "on_cache_access" not in vars(TeeRecorder(profiler,
                                                         Profiler()))

    def test_nested_tee_reaches_every_sink(self):
        metrics, spans, profiler = (RecordingTraceRecorder(),
                                    SpanRecorder(), Profiler())
        _, result = _run_recorded(
            recorder=TeeRecorder(TeeRecorder(metrics, spans), profiler))
        assert metrics.registry.final_cycles() == result.time
        assert any(s.category == CATEGORY_MITIGATE for s in spans.spans)
        assert profiler.total_cycles() == result.time

    def test_combine_picks_none_the_sink_or_a_tee(self):
        metrics, spans = RecordingTraceRecorder(), SpanRecorder()
        assert combine() is None and combine(None, None) is None
        assert combine(None, metrics) is metrics
        tee = combine(metrics, None, spans)
        assert isinstance(tee, TeeRecorder)
        assert tee.recorders == (metrics, spans)
