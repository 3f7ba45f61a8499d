"""The telemetry layer: zero interference, correct accounting, CLI surface.

Three groups:

* **non-interference regression** -- running with no recorder, with a
  full ``RecordingTraceRecorder``, with a ``SpanRecorder``, with a
  ``Profiler``, and with journaling ``TeeRecorder`` fan-outs (with and
  without the profiler) must all produce byte-identical
  ``ExecutionResult``s over a fixed corpus of generated programs
  (recorders are observers, never participants); adding the profiler to
  a tee leaves every other sink's output unchanged, and a run with
  ``recorder=None`` detaches the previous run's recorder;
* **unit accounting** -- the registry's counters/gauges/histograms/series,
  the JSON document, and the leakage meter's Definition-2 relevance
  filtering and bound arithmetic;
* **CLI surface** -- ``repro run --trace`` and ``--metrics-out``.
"""

import json
import math
import os
import random
import time
from unittest import mock

import pytest

from repro.analysis.cost import RegionRecorder
from repro.api import compile_program
from repro.apps.password import PasswordChecker
from repro.cli import main
from repro.hardware import PartitionedHardware, make_hardware, tiny_machine
from repro.hardware.registry import REGISTRY as MODELS
from repro.lang import DEFAULT_LATTICE
from repro.semantics import full
from repro.semantics.events import MitigationRecord
from repro.semantics.full import Interpreter, execute
from repro.semantics.mitigation import MitigationState
from repro.telemetry import (
    DynamicLeakageMeter,
    EventJournal,
    LeakageBoundViolation,
    MetricsRegistry,
    Profiler,
    RecordingTraceRecorder,
    SCHEMA,
    SpanRecorder,
    TeeRecorder,
    TraceRecorder,
    combine,
)
from repro.testing import GeneratorConfig, ProgramGenerator, standard_gamma
from repro.typesystem import TypingError, infer_labels, typecheck

LAT = DEFAULT_LATTICE

MITIGATE_HEAVY = GeneratorConfig(
    max_depth=3,
    max_block_length=3,
    weights={
        "assign": 0.30,
        "skip": 0.05,
        "sleep": 0.15,
        "if": 0.15,
        "while": 0.10,
        "mitigate": 0.25,
    },
)

#: Seeds whose generated programs form the regression corpus; extended far
#: enough that several typecheck (ill-typed draws are skipped).
CORPUS_SEEDS = tuple(range(0, 40))


def _generated(seed):
    gamma = standard_gamma(LAT)
    gen = ProgramGenerator(gamma, random.Random(seed), MITIGATE_HEAVY)
    program = gen.program()
    infer_labels(program, gamma)
    try:
        info = typecheck(program, gamma)
    except TypingError:
        return None
    return program, gamma, info, gen


def _run(program, info, memory, recorder, model="partitioned"):
    return execute(
        program,
        memory.copy(),
        make_hardware(model, LAT, tiny_machine()),
        mitigation=MitigationState(),
        mitigate_pc=info.mitigate_pc,
        recorder=recorder,
    )


MITIGATED = (
    "mitigate(16, H) { while h > 0 do { h := h - 1 } };\nready := 1\n"
)


class TestNonInterference:
    @pytest.mark.parametrize("model", MODELS.names())
    def test_recorders_never_change_results(self, model):
        # An unrecorded step calls the hardware directly, a recorded one
        # through the run state's charge: on every model, both paths must
        # leave the same result and the same final hardware state.
        checked = 0
        for seed in CORPUS_SEEDS:
            generated = _generated(seed)
            if generated is None:
                continue
            program, gamma, info, gen = generated
            memory = gen.memory()
            bare = _run(program, info, memory, None, model)
            recorded = _run(
                program, info, memory, RecordingTraceRecorder(), model
            )
            spanned = _run(program, info, memory, SpanRecorder(), model)
            profiled = _run(program, info, memory, Profiler(), model)
            teed = _run(
                program, info, memory,
                TeeRecorder(RecordingTraceRecorder(),
                            SpanRecorder(journal=EventJournal())),
                model,
            )
            teed_profiled = _run(
                program, info, memory,
                TeeRecorder(RecordingTraceRecorder(),
                            SpanRecorder(journal=EventJournal()),
                            Profiler()),
                model,
            )
            for other in (recorded, spanned, profiled, teed, teed_profiled):
                assert other.time == bare.time
                assert other.steps == bare.steps
                assert other.events == bare.events
                assert other.mitigations == bare.mitigations
                assert other.memory == bare.memory
                assert (other.environment.full_state()
                        == bare.environment.full_state())
            checked += 1
        assert checked >= 5, "corpus produced too few well-typed programs"

    def test_profiler_in_a_tee_changes_no_other_sink(self):
        checked = 0
        for seed in CORPUS_SEEDS:
            generated = _generated(seed)
            if generated is None:
                continue
            program, gamma, info, gen = generated
            memory = gen.memory()
            outputs = []
            for profiler in (None, Profiler()):
                metrics = RecordingTraceRecorder()
                meter = DynamicLeakageMeter(LAT)
                journal = EventJournal()
                regions = RegionRecorder()
                result = _run(program, info, memory, TeeRecorder(
                    metrics, SpanRecorder(journal=journal), regions,
                    profiler))
                meter.observe(result)
                outputs.append((
                    metrics.registry.as_dict(leakage=meter.as_dict()),
                    journal.records(),
                    regions.mitigations,
                ))
            assert outputs[0] == outputs[1]
            # Tee'd with the other sinks, the profiler's cycle counters
            # still partition the clock: hardware + sleep + padding.
            partition = sum(
                cycles for name, cycles in profiler.cycles.items()
                if name.startswith("hardware.")
                or name in ("interpreter.sleep", "mitigation.padding"))
            assert partition == profiler.total_cycles() == result.time
            assert profiler.calls["interpreter.dispatch"] == result.steps
            checked += 1
        assert checked >= 5, "corpus produced too few well-typed programs"

    def test_null_recorder_is_inactive(self):
        # ``None`` is the null recorder: no count dict is shared with the
        # hardware and no recorder with the mitigation runtime, so every
        # guard skips.  Recorded, one count dict is shared by every
        # partition.
        program, _, info, gen = next(
            g for g in map(_generated, CORPUS_SEEDS) if g is not None)
        for recorder in (None, RecordingTraceRecorder()):
            interp = Interpreter(
                program=program, memory=gen.memory(),
                environment=PartitionedHardware(LAT, tiny_machine()),
                mitigate_pc=info.mitigate_pc, recorder=recorder)
            hw = interp.environment.hw
            assert (hw is None) == (recorder is None)
            assert interp.mitigation.recorder is recorder
            for hierarchy in interp.environment.partitions.values():
                assert hierarchy.hw is hw

    def test_unrecorded_run_detaches_previous_recorder(self):
        # Regression: a run with no recorder on the same environment and
        # mitigation state kept feeding the previous run's recorder.
        app = PasswordChecker(length=4)
        environment = make_hardware("partitioned", app.lattice)
        state = MitigationState()
        recorder = RecordingTraceRecorder()
        snapshots = []
        for run_recorder in (recorder, None):
            execute(app.program, app.memory([1, 2, 3, 4], [1, 2, 0, 0]),
                    environment, mitigation=state,
                    mitigate_pc=app.typing.mitigate_pc,
                    recorder=run_recorder)
            snapshots.append(json.dumps(recorder.registry.as_dict()))
        assert recorder.registry.counter("hw.l1d.hits") > 0
        assert snapshots[0] == snapshots[1]
        assert environment.hw is None and state.recorder is None

    def test_recording_matches_execution_result(self):
        compiled = compile_program(MITIGATED, {"h": "H", "ready": "L"})
        recorder = RecordingTraceRecorder()
        result = compiled.run({"h": 9, "ready": 0}, recorder=recorder)
        reg = recorder.registry
        assert reg.counter("runs") == 1
        assert reg.final_cycles() == result.time
        assert (reg.machine_cycles() + reg.counter("cycles.sleep")
                + reg.padding_cycles()) == result.time
        assert reg.counter("mitigation.completions") == len(
            result.mitigations
        )
        # The padded block total is the record's duration, so pure padding
        # can never exceed it.
        assert 0 <= reg.padding_cycles() <= sum(
            r.duration for r in result.mitigations
        )

    def test_metrics_only_run_takes_no_step(self):
        # No sink consumes on_step, so a recorded step calls no hook and
        # reads no clock: the clock is read only around each settle, and
        # the metrics arrive once, as the run's totals.
        compiled = compile_program(MITIGATED, {"h": "H", "ready": "L"})

        def run(*sinks):
            """The result, clock reads, base ``on_step`` calls and span
            ``on_step`` calls of one run observed by ``sinks``."""
            with mock.patch.object(full, "perf_counter_ns",
                                   side_effect=time.perf_counter_ns) as clock, \
                    mock.patch.object(TraceRecorder, "on_step",
                                      autospec=True) as base, \
                    mock.patch.object(SpanRecorder, "on_step",
                                      autospec=True) as spans:
                # A tee binds its hooks when built: build it patched.
                result = compiled.run({"h": 9, "ready": 0},
                                      recorder=combine(*sinks))
            return (result, clock.call_count, base.call_count,
                    spans.call_count)

        metrics = RecordingTraceRecorder()
        result, clock, base, _ = run(metrics)
        reg = metrics.registry
        charged = reg.counter("steps.total") - reg.counter("steps.sleep")
        settles = len(result.mitigations)
        assert charged > 0 and settles > 0
        assert base == 0 and clock == 2 * settles
        # Beside a span sink, every charged step is timed and handed over.
        _, clock, base, spans = run(RecordingTraceRecorder(),
                                    SpanRecorder())
        assert base == 0 and spans == charged
        assert clock == 2 * (charged + settles)

    def test_speculative_shared_predictor_is_counted(self):
        # The shared predictor is the speculative model's leak, so every
        # branch step it resolves shows up in hw.branch.* (the default
        # machine has no per-level predictors to count).
        compiled = compile_program(MITIGATED, {"h": "H", "ready": "L"})
        recorder = RecordingTraceRecorder()
        compiled.run({"h": 9, "ready": 0}, hardware="speculative",
                     recorder=recorder)
        reg = recorder.registry
        branches = (reg.counter("hw.branch.hits")
                    + reg.counter("hw.branch.mispredictions"))
        assert branches == reg.counter("steps.branch") == 10
        assert reg.counter("hw.branch.mispredictions") > 0


class TestMetricsRegistry:
    def test_counters_gauges_histograms_series(self):
        reg = MetricsRegistry()
        reg.inc("steps.total")
        reg.inc("steps.total", 4)
        reg.set_gauge("miss.H", 2)
        reg.set_gauge("miss.H", 3)
        reg.observe("hist.x", 7)
        reg.observe("hist.x", 7)
        reg.append_series("miss_trace.H", 1)
        reg.append_series("miss_trace.H", 2)
        assert reg.counter("steps.total") == 5
        assert reg.counter("never.touched") == 0
        assert reg.gauge("miss.H") == 3
        assert reg.miss_counters() == {"H": 3}
        assert reg.histograms["hist.x"] == {7: 2}
        assert reg.series["miss_trace.H"] == [1, 2]

    def test_overhead_ratio(self):
        reg = MetricsRegistry()
        assert reg.padding_overhead_ratio() == 0.0
        reg.inc("cycles.final", 200)
        reg.inc("cycles.padding", 50)
        assert reg.padding_overhead_ratio() == pytest.approx(0.25)

    def test_as_dict_sections(self):
        reg = MetricsRegistry()
        reg.inc("runs")
        reg.inc("cycles.machine", 90)
        reg.inc("cycles.padding", 10)
        reg.inc("cycles.final", 100)
        reg.inc("hw.l1d.hits", 3)
        reg.set_gauge("miss.H", 1)
        doc = reg.as_dict()
        assert doc["schema"] == SCHEMA
        assert doc["runs"] == 1
        assert doc["timing"]["machine_cycles"] == 90
        assert doc["timing"]["padding_cycles"] == 10
        assert doc["timing"]["padding_overhead_ratio"] == pytest.approx(0.1)
        assert doc["mitigation"]["miss_per_level"] == {"H": 1}
        assert doc["hardware"]["cache"] == {
            "l1d": {"hits": 3, "misses": 0}
        }
        # The document must round-trip through JSON unchanged.
        assert json.loads(json.dumps(reg.as_dict())) == doc


def _finished(time, *mitigations):
    """A finished run ending at ``time`` whose completed mitigations are
    ``(mit_id, level, estimate, duration, pc_label)``, back to back."""
    records, start = [], 0
    for mit_id, level, estimate, duration, pc_label in mitigations:
        records.append(MitigationRecord(mit_id, level, start, start + duration,
                                        pc_label, estimate))
        start += duration
    return full.ExecutionResult(memory=None, environment=None, time=time,
                                event_records=(), mitigations=tuple(records),
                                steps=0)


class TestDynamicLeakageMeter:
    def _meter(self):
        return DynamicLeakageMeter(LAT)

    def test_relevance_filtering(self):
        meter = self._meter()
        high, low = LAT["H"], LAT["L"]
        meter.observe(_finished(
            100,
            # Low-context high mitigation: relevant (Definition 2).
            ("m1", high, 4, 8, low),
            # High-context mitigation: projected away.
            ("m2", high, 4, 16, high),
            # Low-level mitigation: cannot carry the varied secrets.
            ("m3", low, 4, 32, low),
        ))
        assert meter.variations == {(8,)}
        assert meter.id_vectors == {("m1",)}
        assert meter.max_relevant_per_run == 1

    def test_unknown_pc_counts_as_low_context(self):
        meter = self._meter()
        meter.observe(_finished(10, ("m", LAT["H"], 4, 8, None)))
        assert meter.variations == {(8,)}

    def test_observed_bits_and_bound(self):
        meter = self._meter()
        for duration in (8, 16, 32, 64):
            meter.observe(_finished(duration + 10,
                                    ("m", LAT["H"], 8, duration, LAT["L"])))
        assert meter.observed_variations == 4
        assert meter.observed_bits == pytest.approx(2.0)
        assert meter.id_vectors == {("m",)}
        # Two-point lattice, K=1, T=74: bound = 1 * log2(2) * (1 + log2 74).
        assert meter.static_bound_bits() == pytest.approx(
            1 + math.log2(74)
        )
        assert meter.holds()
        meter.assert_within_bound(check_doubling=True)

    def test_violation_raises(self):
        meter = self._meter()
        # T = 1 makes the static bound 1 bit; three distinct sequences
        # claim log2(3) > 1 bits.
        for duration in (1, 2, 3):
            meter.observe(_finished(1, ("m", LAT["H"], 1, duration, LAT["L"])))
        assert not meter.holds()
        with pytest.raises(LeakageBoundViolation):
            meter.assert_within_bound()

    def test_doubling_corollary_violation(self):
        meter = self._meter()
        # Durations off the n*2^k schedule: more distinct values than the
        # fast-doubling scheme can produce within T.
        meter.observe(_finished(8, *(("m", LAT["H"], 4, duration, LAT["L"])
                                     for duration in (4, 5, 6, 7))))
        assert meter.doubling_violations()
        with pytest.raises(LeakageBoundViolation):
            meter.assert_within_bound(check_doubling=True)

    def test_as_dict(self):
        meter = self._meter()
        meter.observe(_finished(20, ("m", LAT["H"], 4, 8, LAT["L"])))
        doc = meter.as_dict()
        assert doc["within_bound"] is True
        assert doc["observed_variations"] == 1
        assert doc["per_command_distinct_durations"] == {"m": 1}
        json.dumps(doc)  # must be JSON-serializable as-is


@pytest.fixture()
def mitigated(tmp_path):
    path = tmp_path / "mitigated.tl"
    path.write_text(MITIGATED)
    return str(path)


class TestCli:
    def test_trace_prints_summary(self, mitigated, capsys):
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0",
                   "--hardware", "partitioned", "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "time sinks (top first):" in out
        assert "padding" in out
        assert "leakage verdict:" in out and "ok" in out

    def test_metrics_out_writes_document(self, mitigated, capsys, tmp_path):
        out_path = tmp_path / "metrics.json"
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0",
                   "--hardware", "partitioned",
                   "--metrics-out", str(out_path)])
        assert rc == 0
        assert f"metrics written to {out_path}" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == SCHEMA
        assert doc["timing"]["padding_cycles"] >= 0
        assert doc["timing"]["final_cycles"] > 0
        assert doc["mitigation"]["completions"] == 1
        assert doc["mitigation"]["miss_per_level"]
        assert doc["leakage"]["within_bound"] is True
        assert doc["leakage"]["observed_bits"] <= (
            doc["leakage"]["static_bound_bits"]
        )

    def test_plain_run_has_no_telemetry(self, mitigated, capsys):
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0",
                   "--hardware", "partitioned"])
        assert rc == 0
        assert "time sinks" not in capsys.readouterr().out

    def test_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        example = os.path.join(os.path.dirname(__file__), "..",
                               "examples", "mitigate_demo.tl")
        out_path = tmp_path / "trace.json"
        rc = main(["run", example, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0",
                   "--trace-out", str(out_path)])
        assert rc == 0
        assert "trace written to" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        # Chrome trace-event invariants: balanced B/E pairs, monotone
        # timestamps per track.
        depth, last = {}, {}
        for event in doc["traceEvents"]:
            if event["ph"] not in ("B", "E"):
                continue
            tid = event["tid"]
            assert event["ts"] >= last.get(tid, 0)
            last[tid] = event["ts"]
            depth[tid] = depth.get(tid, 0) + (1 if event["ph"] == "B"
                                              else -1)
            assert depth[tid] >= 0
        assert depth and all(v == 0 for v in depth.values())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"run", "mitigate", "padding"} <= cats

    def test_journal_out_streams_jsonl(self, mitigated, capsys, tmp_path):
        out_path = tmp_path / "journal.jsonl"
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0",
                   "--journal-out", str(out_path)])
        assert rc == 0
        assert "journal written to" in capsys.readouterr().out
        records = [json.loads(line)
                   for line in out_path.read_text().splitlines()]
        assert records[0] == {"type": "header", "schema": SCHEMA,
                              "kind": "journal"}
        kinds = {r["type"] for r in records}
        assert {"run_start", "span", "miss_update", "run_end"} <= kinds

    def test_trace_out_composes_with_metrics(self, mitigated, tmp_path):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0",
                   "--trace-out", str(trace_path),
                   "--metrics-out", str(metrics_path)])
        assert rc == 0
        trace = json.loads(trace_path.read_text())
        metrics = json.loads(metrics_path.read_text())
        # Both sinks saw the same execution: the run span's final time is
        # the metrics document's final clock.
        run_end = max(e["ts"] for e in trace["traceEvents"]
                      if e["ph"] == "E" and e.get("cat") == "run")
        assert run_end == metrics["timing"]["final_cycles"]

    def test_leakage_metrics_out_covers_the_sweep(self, mitigated, capsys,
                                                  tmp_path):
        out_path = tmp_path / "sweep.json"
        rc = main(["leakage", mitigated, "--gamma", "h=H,ready=L",
                   "--secret", "h", "--values", "0..8",
                   "--hardware", "null", "--trace",
                   "--metrics-out", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "time sinks (top first):" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == SCHEMA
        # One document for the whole sweep: the 8 variants run once, and
        # Definitions 1 and 2 are both folds over those 8 runs.
        assert doc["runs"] == 8
        assert doc["sweep"]["secret"] == "h"
        assert doc["sweep"]["values"] == [0, 8]
        assert doc["sweep"]["theorem2_holds"] is True
        assert doc["leakage"]["within_bound"] is True
