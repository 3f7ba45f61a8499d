"""The repo benchmark: four workloads over the public API, checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload simulate --seed 3 --seconds 20 --trace 0

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0,
     "metrics": {"work_per_s": {"value": 28123.4, "unit": "units/s"}, ...}}

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json,
``--trace 1`` the ``per_layer`` ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from reference import Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh worker processes per end-to-end run, one after another.  Each
#: sets up, reports its set-up time and measures 1/WORKERS of the
#: window; every metric is the median over the workers, so one process
#: that lands on an unlucky memory layout does not move the result.
WORKERS = 5
FINGERPRINTS = HERE / "fingerprints.json"
TRACE_DIR = ROOT / ".perfbench_out"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def import_program():
    """Import the program from this checkout's ``src/`` and the
    benchmark's modules; nothing else may stand in for them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        fail(f"imported repro from {repro.__file__}, not from {SRC}")
    import workloads
    return workloads


# -- measuring ---------------------------------------------------------------


class Window:
    """Per-op times, work and failures over one timed window."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = Reference()
        self.raw = [[] for _ in ops]  # (start, end) host ns per call
        self.work = [0.0] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def scaled_ns(self, index: int) -> list:
        """One op's host times scaled to reference time by the kernel
        samples around each call."""
        scaled = self.reference.scaled
        return [scaled(start, end) for start, end in self.raw[index]]

    def rate(self, phase=None) -> float:
        """Work per second: the work of one pass over the sum of the
        per-op median reference-scaled times."""
        indices = [i for i, op in enumerate(self.ops)
                   if self.raw[i] and (phase is None or op.phase == phase)]
        seconds = sum(statistics.median(self.scaled_ns(i))
                      for i in indices) / 1e9
        return sum(self.work[i] for i in indices) / seconds if seconds else 0.0


def measure(ops, seconds: float, expected, call=None) -> Window:
    """Cycle through ``ops`` until ``seconds`` pass (at least one full
    pass), timing each call and checking each result."""
    window = Window(ops)
    clock = time.perf_counter_ns
    gc.collect()
    with window.reference:
        deadline = clock() + int(seconds * 1e9)
        passes = 0
        while passes == 0 or clock() < deadline:
            for index, op in enumerate(ops):
                if passes and clock() >= deadline:
                    break
                window.attempted += 1
                started = clock()
                try:
                    result = op.fn() if call is None else call(op)
                except Exception:  # a raising op fails; the run goes on
                    window.failed += 1
                    window.errors.append(
                        f"{op.key}: {traceback.format_exc()}")
                    continue
                ended = clock()
                error = check(op, result, expected)
                if error:
                    window.failed += 1
                    window.errors.append(f"{op.key}: {error}")
                    continue
                window.raw[index].append((started, ended))
                window.work[index] = op.work(result)
            passes += 1
    return window


def check(op, result, expected) -> str:
    """'' when the result matches its fingerprint and invariants."""
    got = op.outcome(result)
    want = expected[op.key]
    if got != want:
        return f"outcome {got!r} differs from fingerprint {want!r}"
    return op.violation(result) or ""


def spawn_worker(args) -> dict:
    """Run one worker process to completion and return its report."""
    spawned = time.perf_counter_ns()
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds / WORKERS), "--worker", str(spawned)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        fail(f"worker process failed for {args.workload}")
    return json.loads(lines[-1])


def worker(args) -> None:
    """Set up (timed from ``args.worker``, the parent's spawn time, in
    reference time), measure, and print one JSON report."""
    with Reference() as reference:
        _, expected, ops = prepare(args)
        ready = time.perf_counter_ns()
    window = measure(ops, args.seconds, expected)
    print(json.dumps({
        "setup_s": reference.scaled(args.worker, ready) / 1e9,
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": window.rate(),
        "attempted": window.attempted,
        "failed": window.failed,
        "errors": window.errors[:5],
    }))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- fingerprints --------------------------------------------------------------


def load_expected(workloads, workload: str, seed: int):
    try:
        table = json.loads(FINGERPRINTS.read_text())
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {FINGERPRINTS.name}: {err}")
    return table[workload][workloads.fingerprint_key(workload, seed)]


def record(workloads, only=None) -> None:
    """Write fingerprints.json from the current program, for one workload
    or all (seed commit only: re-recording hides output changes the
    checks exist to catch)."""
    table = json.loads(FINGERPRINTS.read_text()) if only else {}
    for name, build in workloads.WORKLOADS.items():
        if only and name != only:
            continue
        seeds = [0] if name == "analyze" else range(workloads.VARIANTS)
        table[name] = {}
        for seed in seeds:
            ops = build(ROOT, seed)
            outcomes = {op.key: op.outcome(op.fn()) for op in ops}
            key = workloads.fingerprint_key(name, seed)
            table[name][key] = (
                dict(sorted(outcomes.items())) if name == "analyze"
                else [outcomes[i] for i in range(len(ops))])
            print(f"recorded {name} {key}", file=sys.stderr)
    FINGERPRINTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


# -- the two kinds of run ------------------------------------------------------


def metric(spec_entries, values: dict) -> dict:
    """Attach declared units; refuse names the spec does not declare."""
    units = {entry["name"]: entry["unit"] for entry in spec_entries}
    if set(values) != set(units):
        fail(f"metric names disagree with BENCHMARK.json: "
             f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in sorted(values)}


def end_to_end(args) -> tuple:
    reports = [spawn_worker(args) for _ in range(WORKERS)]
    values = {name: statistics.median(r[name] for r in reports)
              for name in ("setup_s", "peak_rss_mb", "work_per_s")}
    return reports, values


def measure_traced(ops, seconds: float, expected, tracer) -> tuple:
    """:func:`measure` with every op a span under ``tracer``.  Also
    returns the counts per pass over ``ops``: the tracer's calls and
    counters during each op's first call, summed over the ops.  Unlike
    totals over the window, they do not grow as the program gets
    faster."""
    index_of = {id(op): index for index, op in enumerate(ops)}
    firsts = {}

    def call(op):
        index = index_of[id(op)]
        if index in firsts:
            return tracer.call(f"bench.{op.phase}", op.fn, (), {})
        before = tracer.tally()
        result = tracer.call(f"bench.{op.phase}", op.fn, (), {})
        firsts[index] = tracer.tally() - before
        return result

    window = measure(ops, seconds, expected, call=call)
    return window, sum(firsts.values(), Counter())


def traced(args) -> tuple:
    """Half the window untraced, half traced, in this process: per-layer
    metrics, phase rates and the tracing overhead."""
    workloads, expected, ops = prepare(args)
    from layers import install, layer_metrics
    from tracer import Tracer

    plain = measure(ops, args.seconds / 2, expected)
    tracer = Tracer()
    install(tracer, extra=[workloads])
    try:
        traced_window, per_pass = measure_traced(
            ops, args.seconds / 2, expected, tracer)
    finally:
        tracer.uninstall()
    values = layer_metrics(tracer, per_pass)
    for name in workloads.PHASE_RATES.values():
        values[name] = 0.0
    for op in ops:
        values[workloads.PHASE_RATES[op.phase]] = plain.rate(op.phase)
    untraced_rate = plain.rate()
    values["trace.overhead_pct"] = (
        100.0 * (untraced_rate - traced_window.rate()) / untraced_rate
        if untraced_rate else 0.0)
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(str(TRACE_DIR / f"trace-{args.workload}-{args.seed}.json"))
    reports = [{"attempted": w.attempted, "failed": w.failed,
                "errors": w.errors[:5]} for w in (plain, traced_window)]
    return reports, values


def prepare(args) -> tuple:
    """Everything before the first timed operation."""
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    expected = load_expected(workloads, args.workload, args.seed)
    return workloads, expected, workloads.WORKLOADS[args.workload](
        ROOT, args.seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, metavar="SPAWN_NS",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="write fingerprints.json (seed commit only)")
    args = parser.parse_args(argv)

    if args.worker is not None:
        worker(args)
        return 0
    if args.record:
        record(import_program(), only=args.workload)
        return 0
    spec = load_spec()
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source under {SRC}; run from a full checkout")
    run, section = ((traced, "per_layer") if args.trace
                    else (end_to_end, "end_to_end"))
    reports, values = run(args)
    metrics = metric(spec[section], values)
    failed = sum(r["failed"] for r in reports)
    for report in reports:
        for error in report["errors"]:
            print(f"FAILED {error}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name:<40} {entry['value']:>14.4f} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
