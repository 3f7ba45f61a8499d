"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fingerprints(workload: str, seed: int):
    table = json.loads(run.FINGERPRINTS.read_text())
    return table[workload][workloads.fingerprint_key(workload, seed)]


def test_matching_fingerprint_counts_no_failure():
    ops = workloads.simulate_ops(ROOT, 0)[:4]
    window = run.measure(ops, 0, _fingerprints("simulate", 0))
    assert (window.attempted, window.failed) == (4, 0)
    assert all(len(samples) == 1 for samples in window.raw)


def test_perturbed_fingerprint_counts_as_failed_operation():
    ops = workloads.simulate_ops(ROOT, 0)[:4]
    expected = list(_fingerprints("simulate", 0))
    expected[ops[2].key] += 1
    window = run.measure(ops, 0, expected)
    assert (window.attempted, window.failed) == (4, 1)
    assert window.raw[2] == []
    assert "differs from fingerprint" in window.errors[0]


def test_raising_operation_counts_as_failed():
    def boom():
        raise ValueError("boom")

    ops = [workloads.Op(0, "run", boom, lambda r: r, lambda r: 1.0)]
    window = run.measure(ops, 0, [None])
    assert (window.attempted, window.failed) == (1, 1)


def _toy_module():
    module = types.ModuleType("toy")

    def leaf(n):
        return sum(range(n))

    def middle(n):
        return module.leaf(n) + module.leaf(2 * n)

    def top(n):
        return module.middle(n) + module.leaf(n)

    module.leaf, module.middle, module.top = leaf, middle, top
    return module


def test_self_times_are_non_negative_and_sum_to_parent():
    module = _toy_module()
    tracer = Tracer()
    for name in ("leaf", "middle", "top"):
        tracer.wrap_function(getattr(module, name), name, [module])
    module.top(20000)
    module.top(5000)
    tracer.uninstall()
    spans = {sid: (name, end - start, parent, child)
             for sid, name, start, end, parent, _, child in tracer.spans}
    assert len(spans) == 2 * 5
    for sid, (name, duration, parent, child) in spans.items():
        assert duration - child >= 0
        children = [d for _, d, p, _ in spans.values() if p == sid]
        assert sum(children) == child
    roots = sum(d for _, d, p, _ in spans.values() if p is None)
    assert sum(tracer.self_ns.values()) == roots


def test_uninstall_restores_every_original():
    from repro.hardware.partitioned import PartitionedHardware
    from repro.hardware.leakytlb import LeakyTlbHardware
    from repro.semantics import full

    before = (full.Interpreter.run, full.eval_expr_traced,
              PartitionedHardware.step, workloads.make_hardware)
    tracer = Tracer()
    layers.install(tracer, extra=[workloads])
    assert full.eval_expr_traced is not before[1]
    assert "step" in vars(LeakyTlbHardware)
    tracer.uninstall()
    after = (full.Interpreter.run, full.eval_expr_traced,
             PartitionedHardware.step, workloads.make_hardware)
    assert after == before
    assert "step" not in vars(LeakyTlbHardware)


def test_traced_pass_splits_time_by_layer():
    ops = workloads.simulate_ops(ROOT, 0)[:6]
    tracer = Tracer()
    layers.install(tracer, extra=[workloads])
    try:
        window, per_pass = run.measure_traced(
            ops, 0, _fingerprints("simulate", 0), tracer)
    finally:
        tracer.uninstall()
    assert window.failed == 0
    assert all(end - start - child >= 0
               for _, _, start, end, _, _, child in tracer.spans)
    roots = sum(end - start for _, name, start, end, parent, _, _
                in tracer.spans if parent is None)
    assert sum(tracer.self_ns.values()) == roots
    metrics = layers.layer_metrics(tracer, per_pass)
    assert metrics["semantics.steps"] == sum(
        window.work[i] for i in range(len(ops)))
    assert metrics["hardware.null.accesses"] > 0
    assert metrics["lang.parse.calls"] == 0  # simulate bypasses analysis


def test_counts_are_per_pass_not_per_window():
    ops = workloads.simulate_ops(ROOT, 0)[:3]
    counts = []
    for seconds in (0, 0.3):
        tracer = Tracer()
        layers.install(tracer, extra=[workloads])
        try:
            window, per_pass = run.measure_traced(
                ops, seconds, _fingerprints("simulate", 0), tracer)
        finally:
            tracer.uninstall()
        counts.append(layers.layer_metrics(tracer, per_pass))
    assert window.attempted > 2 * len(ops)
    for name in ("semantics.steps", "hardware.null.accesses",
                 "mitigation.settle.calls"):
        assert counts[0][name] == counts[1][name] > 0


def _sweep_after(fn, buffer: bytearray):
    """``fn`` followed by a pass over ``buffer``, one read per 64-byte
    line: extra host time spent on a working set far larger than the
    reference kernel's."""
    def run_then_sweep():
        result = fn()
        total = 0
        for i in range(0, len(buffer), 64):
            total += buffer[i]
        return result
    return run_then_sweep


def test_reference_time_moves_with_an_added_cost():
    """One op gets a known extra cost; the drop in reference-scaled
    work_per_s must equal the drop in raw host time.  Plain and slowed
    copies of the ops alternate in one window, so both see the same
    machine, and raw time is the truth to compare against.  The error is
    the median over five windows; on a 2-core shared VM single windows
    erred by up to 3%, medians of five by under 1%, and with the kernel
    timed cold the median was about +4% (scaled time hid a fifth of the
    added cost)."""
    base = workloads.simulate_ops(ROOT, 0)[:7]
    buffer = bytearray(16 << 20)
    ops = []
    for index, op in enumerate(base):
        ops.append(dataclasses.replace(op, phase="plain"))
        ops.append(dataclasses.replace(
            op, phase="slowed",
            fn=_sweep_after(op.fn, buffer) if index == 0 else op.fn))

    def raw_rate(window, phase):
        indices = [i for i, op in enumerate(ops) if op.phase == phase]
        seconds = sum(statistics.median(end - start
                                        for start, end in window.raw[i])
                      for i in indices) / 1e9
        return sum(window.work[i] for i in indices) / seconds

    raws, errors = [], []
    for _ in range(5):
        window = run.measure(ops, 1.5, _fingerprints("simulate", 0))
        assert window.failed == 0
        raw = raw_rate(window, "slowed") / raw_rate(window, "plain")
        scaled = window.rate("slowed") / window.rate("plain")
        raws.append(raw)
        errors.append(scaled / raw - 1)
    assert statistics.median(raws) < 0.9  # the cost is >= 1/10 of a pass
    assert abs(statistics.median(errors)) < 0.02, errors


def _declared(section: str):
    return {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert entry["better"] in ("higher", "lower")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
    setup = _declared("end_to_end")["setup_s"]
    assert setup == ("s", "lower")


def test_layer_metric_names_match_declared():
    names = set(layers.layer_metrics(Tracer(), {}))
    names |= set(workloads.PHASE_RATES.values()) | {"trace.overhead_pct"}
    assert names == set(_declared("per_layer"))


def _run(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_printed_metrics_are_declared_with_units():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        out = _run(ROOT, "--workload", "analyze", "--seed", "5",
                   "--seconds", "0.5", "--trace", trace)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["failed"] == 0
        declared = _declared(section)
        assert set(doc["metrics"]) == set(declared)
        for name, entry in doc["metrics"].items():
            assert entry["unit"] == declared[name][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "simulate", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
