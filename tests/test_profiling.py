"""The profiling layer (src/repro/telemetry/profiling.py, docs/PROFILING.md).

Four groups:

* **StreamingHistogram** -- exact below the linear threshold, bounded
  relative error above it, merge == concatenation, JSON round-trip;
* **Profiler** -- subsystem attribution, wall sections, latency
  histograms, budget burn-down, the ``repro.profile/1`` document;
* **exposition** -- the Prometheus text format and the shared text
  renderer;
* **integration** -- the profiler as the interpreter's and gateway's
  ``recorder``: exact cycle partition when profiling is on, untouched
  state when off (``recorder=None``).
"""

import math
import random

import pytest

from repro.hardware import PartitionedHardware, tiny_machine
from repro.lang import DEFAULT_LATTICE
from repro.semantics.full import execute
from repro.semantics.mitigation import MitigationState
from repro.service import WorkloadSpec, serve_workload
from repro.telemetry import (
    PROFILE_SCHEMA,
    Profiler,
    RecordingTraceRecorder,
    SpanRecorder,
    StreamingHistogram,
    TeeRecorder,
    TraceRecorder,
    combine,
    prometheus_exposition,
)
from repro.telemetry.profiling import hardware_subsystem, render_profile_lines
from repro.testing import ProgramGenerator, standard_gamma
from repro.typesystem import TypingError, infer_labels, typecheck

LAT = DEFAULT_LATTICE


class TestStreamingHistogram:
    def test_exact_below_linear_threshold(self):
        hist = StreamingHistogram(sub_bits=7)
        for v in (0, 1, 63, 127):
            hist.observe(v)
        assert hist.count == 4
        assert hist.min == 0 and hist.max == 127
        assert hist.quantile(0.0) == 0
        assert hist.quantile(1.0) == 127

    def test_quantiles_match_sorted_list_within_relative_error(self):
        rng = random.Random(7)
        values = [rng.randrange(0, 1_000_000) for _ in range(5000)]
        hist = StreamingHistogram(sub_bits=7)
        for v in values:
            hist.observe(v)
        values.sort()
        for q in (0.5, 0.95, 0.99):
            exact = values[max(0, math.ceil(q * len(values)) - 1)]
            approx = hist.quantile(q)
            # Bucket lower bounds keep 7 bits of mantissa: <=0.8% low,
            # never high past the next order statistic.
            assert approx <= exact
            assert approx >= exact * (1 - 2 ** -7) - 1, (q, exact, approx)

    def test_merge_equals_concatenated_stream(self):
        rng = random.Random(11)
        left, right, combined = (StreamingHistogram() for _ in range(3))
        for i in range(2000):
            v = rng.randrange(0, 50_000)
            (left if i % 2 else right).observe(v)
            combined.observe(v)
        left.merge(right)
        assert left.count == combined.count
        assert left.total == combined.total
        assert left.counts == combined.counts
        for q in (0.5, 0.95, 0.99):
            assert left.quantile(q) == combined.quantile(q)

    def test_merge_rejects_mismatched_resolution(self):
        with pytest.raises(ValueError, match="sub_bits"):
            StreamingHistogram(sub_bits=7).merge(StreamingHistogram(sub_bits=5))

    def test_roundtrip_through_dict(self):
        hist = StreamingHistogram()
        for v in (3, 99, 4096, 123_456):
            hist.observe(v)
        clone = StreamingHistogram.from_dict(hist.as_dict())
        assert clone.counts == hist.counts
        assert clone.count == hist.count and clone.total == hist.total
        assert clone.min == hist.min and clone.max == hist.max
        assert clone.quantiles() == hist.quantiles()

    def test_negative_values_clamp_to_zero(self):
        hist = StreamingHistogram()
        hist.observe(-5)
        assert hist.min == 0 and hist.total == 0

    def test_empty_histogram_quantile_is_zero(self):
        assert StreamingHistogram().quantile(0.5) == 0
        assert StreamingHistogram().quantiles() == {"p50": 0, "p95": 0,
                                                    "p99": 0}

    def test_rejects_out_of_range_sub_bits(self):
        with pytest.raises(ValueError, match="sub_bits"):
            StreamingHistogram(sub_bits=17)


class TestProfiler:
    def test_cycle_and_call_attribution(self):
        prof = Profiler()
        prof.add_cycles("hardware.partitioned", 100, calls=1)
        prof.add_cycles("hardware.partitioned", 50, calls=1)
        prof.add_cycles("mitigation.padding", 10)
        assert prof.total_cycles() == 160
        assert prof.calls["hardware.partitioned"] == 2
        assert "mitigation.padding" not in prof.calls

    def test_section_times_wall_with_injected_clock(self):
        ticks = iter((1000, 4000))
        prof = Profiler(clock=lambda: next(ticks))
        with prof.section("gateway.loop"):
            pass
        assert prof.wall_ns["gateway.loop"] == 3000
        assert prof.calls["gateway.loop"] == 1

    def test_budget_burn_down(self):
        prof = Profiler()
        prof.burn("acme", 1.0, 8.0)
        prof.burn("acme", 2.5, 8.0)
        entry = prof.budgets["acme"]
        assert entry["spent_bits"] == 2.5
        assert entry["remaining_bits"] == 5.5
        assert entry["updates"] == 2
        prof.burn("acme", 99.0, 8.0)  # overspend clamps at zero remaining
        assert prof.budgets["acme"]["remaining_bits"] == 0.0

    def test_document_shape(self):
        prof = Profiler()
        prof.add_cycles("hardware.standard", 500, calls=5)
        prof.add_wall("hardware.standard", 1_000_000)
        prof.observe_latency("gateway.latency", 128)
        prof.burn("acme", 0.5, 4.0)
        doc = prof.as_dict()
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["total_cycles"] == 500
        sub = doc["subsystems"]["hardware.standard"]
        assert sub["cycles"] == 500 and sub["calls"] == 5
        assert sub["cycles_per_sec"] == pytest.approx(500 * 1e9 / 1_000_000)
        lat = doc["latency"]["gateway.latency"]
        assert lat["count"] == 1 and lat["p50"] == 128
        assert doc["budgets"]["acme"]["budget_bits"] == 4.0
        # The document renders without touching the live profiler.
        assert any("hardware.standard" in line
                   for line in render_profile_lines(doc))

    def test_profiler_is_a_recorder_sink(self):
        prof = Profiler()
        assert isinstance(prof, TraceRecorder)
        # Tee'd, it is subscribed to the hooks it consumes and never to
        # the ones it leaves as no-ops.
        tee = TeeRecorder(RecordingTraceRecorder(), prof)
        assert tee.on_request == prof.on_request
        assert tee.on_miss_update != prof.on_miss_update
        assert combine(None, prof) is prof

    def test_hardware_subsystem_key(self):
        env = PartitionedHardware(LAT, tiny_machine())
        assert hardware_subsystem(env) == "hardware.partitioned"


class TestExposition:
    def _profile(self):
        prof = Profiler()
        prof.add_cycles("hardware.partitioned", 343, calls=21)
        prof.add_wall("hardware.partitioned", 2_000_000)
        prof.observe_latency("gateway.latency", 100)
        prof.observe_latency("gateway.latency", 200)
        prof.burn('t"en\\ant', 0.5, 2.0)
        return prof.as_dict()

    def test_counter_families(self):
        text = prometheus_exposition(self._profile())
        assert text.endswith("\n")
        assert ("# TYPE repro_profile_cycles_total counter") in text
        assert ('repro_profile_cycles_total{subsystem="hardware.partitioned"}'
                " 343") in text
        assert ('repro_profile_wall_seconds_total'
                '{subsystem="hardware.partitioned"} 0.002') in text
        assert ('repro_profile_calls_total'
                '{subsystem="hardware.partitioned"} 21') in text

    def test_latency_summary(self):
        text = prometheus_exposition(self._profile())
        assert "# TYPE repro_profile_latency_cycles summary" in text
        assert ('repro_profile_latency_cycles{name="gateway.latency",'
                'quantile="0.5"} 100') in text
        assert ('repro_profile_latency_cycles_sum{name="gateway.latency"} '
                "300") in text
        assert ('repro_profile_latency_cycles_count{name="gateway.latency"} '
                "2") in text

    def test_budget_gauges_and_label_escaping(self):
        text = prometheus_exposition(self._profile())
        assert "# TYPE repro_profile_tenant_budget_bits gauge" in text
        assert (r'repro_profile_tenant_budget_bits{tenant="t\"en\\ant",'
                'kind="remaining"} 1.5') in text

    def test_empty_profile_renders_empty(self):
        assert prometheus_exposition(Profiler().as_dict()) == ""


def _typed_program(seed=3):
    gamma = standard_gamma(LAT)
    for offset in range(40):
        gen = ProgramGenerator(gamma, random.Random(seed + offset))
        program = gen.program()
        infer_labels(program, gamma)
        try:
            info = typecheck(program, gamma)
        except TypingError:
            continue
        return program, info, gen.memory()
    raise AssertionError("no typecheckable program in 40 draws")


class TestInterpreterSeam:
    def test_cycle_partition_equals_final_clock(self):
        program, info, memory = _typed_program()
        prof = Profiler()
        result = execute(
            program, memory.copy(),
            PartitionedHardware(LAT, tiny_machine()),
            mitigation=MitigationState(),
            mitigate_pc=info.mitigate_pc,
            recorder=prof,
        )
        assert prof.total_cycles() == result.time
        assert prof.cycles.get("interpreter.dispatch", 0) == 0
        assert prof.calls["interpreter.dispatch"] == result.steps

    def test_inactive_profiler_never_written(self):
        # A profiler attached to an earlier run on the same environment
        # and mitigation state is detached by a run with recorder=None.
        program, info, memory = _typed_program()
        environment = PartitionedHardware(LAT, tiny_machine())
        state = MitigationState()
        prof = Profiler()
        execute(program, memory.copy(), environment, mitigation=state,
                mitigate_pc=info.mitigate_pc, recorder=prof)
        written = (dict(prof.cycles), dict(prof.wall_ns), dict(prof.calls))
        execute(program, memory.copy(), environment, mitigation=state,
                mitigate_pc=info.mitigate_pc)
        assert (prof.cycles, prof.wall_ns, prof.calls) == written


class TestGatewaySeam:
    def _workload(self):
        return WorkloadSpec.from_dict({
            "seed": 11,
            "requests": 12,
            "policy": "quantized",
            "quantum": 2048,
            "workers": 2,
            "queue_depth": 8,
            "arrival": {"kind": "closed", "clients": 3, "think": 512},
            "tenants": [
                {"name": "alpha", "app": "login",
                 "config": {"table_size": 4}},
                {"name": "beta", "app": "password",
                 "config": {"length": 4}},
            ],
        })

    def test_gateway_attribution_latency_and_burn_down(self):
        prof = Profiler()
        result = serve_workload(self._workload(), recorder=prof)
        completed = result.completed()
        assert completed
        # Handler runs are attributed whole: no interpreter subsystem
        # double-counts their cycles.
        assert set(prof.cycles) == {"gateway.handlers"}
        assert prof.total_cycles() == prof.cycles["gateway.handlers"]
        # Handler cycles are the sum of simulated handler run times -- the
        # same total the telemetry registry accumulates as cycles.final.
        assert prof.cycles["gateway.handlers"] == (
            result.registry.counter("cycles.final")
        )
        assert prof.calls["gateway.handlers"] == (
            result.registry.counter("runs")
        )
        # The loop section carries wall time but no simulated cycles.
        assert prof.cycles.get("gateway.loop", 0) == 0
        assert prof.wall_ns["gateway.loop"] >= 0
        # One global latency stream plus one per tenant.
        assert prof.latencies["gateway.latency"].count == len(completed)
        per_tenant = sum(
            hist.count for name, hist in prof.latencies.items()
            if name.startswith("gateway.latency.")
        )
        assert per_tenant == len(completed)
        # Every tenant's burn-down gauge is present and within budget.
        for tenant in ("alpha", "beta"):
            entry = prof.budgets[tenant]
            assert entry["budget_bits"] > 0
            assert 0 <= entry["spent_bits"] <= entry["budget_bits"]

    def test_profiling_off_does_not_perturb_service(self):
        plain = serve_workload(self._workload())
        prof = Profiler()
        profiled = serve_workload(self._workload(), recorder=prof)
        teed_prof = Profiler()
        teed = serve_workload(self._workload(), recorder=combine(
            SpanRecorder(detail="epochs"), teed_prof))
        assert plain.makespan == profiled.makespan == teed.makespan
        assert ([r.latency for r in plain.completed()]
                == [r.latency for r in profiled.completed()]
                == [r.latency for r in teed.completed()])
        # Tee'd beside spans, the profiler sees the same gateway.
        assert (prof.cycles, prof.calls) == (teed_prof.cycles,
                                             teed_prof.calls)
        assert prof.as_dict()["latency"] == teed_prof.as_dict()["latency"]
        assert prof.budgets == teed_prof.budgets
