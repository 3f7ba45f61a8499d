"""Core simulation speed: cycles-simulated-per-wall-second trajectory.

The observability counterpart to the paper's Sec. 8 overhead tables:
instead of asking how much *simulated* time mitigation costs, this
benchmark asks how fast the simulator itself runs, per subsystem, so a
slow interpreter or hardware model shows up as a perf regression in CI
rather than as a mysteriously slow review build.

The grid comes from :func:`repro.telemetry.bench.run_core_bench` (shared
with ``repro bench --suite core``):

* ``program/*``   -- the representative apps (password mitigated and
  unmitigated, sbox mitigated and unmitigated, RSA under language-level
  mitigation) on the partitioned reference hardware;
* ``hardware/*``  -- one unmitigated password probe per registered
  hardware model, so every access path in the zoo is on the trajectory;
* ``subsystem/*`` -- profiler-attributed splits (hardware access,
  interpreter dispatch, mitigation scheduling/padding) from a profiled
  mitigated run;
* ``gateway/*``   -- the serving layer's event loop and handler runs.

Every entry reports simulated cycles over the *minimum* wall time across
repeats (minimum filters scheduler noise).  The document lands at the
repo root as ``BENCH_core.json`` -- the committed baseline that
``repro bench --compare BENCH_core.json`` gates against (see
docs/PROFILING.md for the refresh policy).

The benchmark also asserts the zero-overhead claim: with no recorder
attached, the ``recorder is not None`` seam in the interpreter hot loop
must cost <= 5% versus an interpreter build with the seam compiled out
(:class:`repro.telemetry.bench.SeamlessInterpreter`).
"""

from repro.telemetry.bench import OVERHEAD_TOLERANCE_PCT, run_core_bench

from _report import Report, write_bench

REPEATS = 3


def _build_report():
    doc = run_core_bench(repeats=REPEATS)
    bench_path = write_bench(doc)

    report = Report(
        "core_speed",
        "Core simulation speed: cycles simulated per wall second",
    )
    report.line(f"minimum wall over {REPEATS} repeats per entry; "
                "full grid in repro.telemetry.bench.run_core_bench")
    report.line()

    rows = []
    for key, entry in sorted(doc["entries"].items()):
        rate = entry.get("cycles_per_sec")
        rows.append((
            key,
            entry["cycles"],
            f"{entry['wall_s'] * 1e3:.3f}",
            f"{rate / 1e6:.3f}" if rate else "-",
        ))
    report.table(("entry", "cycles", "wall ms", "Mcyc/s"), rows)
    report.line()

    overhead = doc["overhead"]
    report.expect(
        "profiler-off seam overhead",
        f"<= {OVERHEAD_TOLERANCE_PCT}% vs seam-free interpreter",
        f"{overhead['overhead_pct']:+.2f}% "
        f"(with-seam {overhead['with_seam_s'] * 1e3:.3f} ms, "
        f"seamless {overhead['seamless_s'] * 1e3:.3f} ms)",
        overhead["ok"],
    )
    secure_probes = [
        key for key, entry in doc["entries"].items()
        if entry.get("meta", {}).get("expected_secure") is not None
    ]
    report.expect(
        "hardware zoo coverage",
        "every registered model on the trajectory",
        f"{len(secure_probes)} models probed",
        len(secure_probes) >= 9,
    )
    report.line()
    report.line(f"Perf trajectory: {bench_path}")
    report.line("Gate: PYTHONPATH=src python -m repro bench "
                "--compare BENCH_core.json")
    report.emit()
    return overhead["ok"]


def test_core_speed(benchmark):
    ok = benchmark.pedantic(_build_report, rounds=1, iterations=1)
    assert ok
