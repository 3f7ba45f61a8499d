"""Figure 7: login time with various secrets.

Paper setup: 100 login attempts against credential tables holding 10, 50, or
100 valid usernames.  Upper plot (no mitigation): the three curves separate
and valid/invalid usernames are distinguishable by time.  Lower plot
(mitigation on): execution time does not depend on secrets, so all three
curves coincide.

This bench regenerates both curve families (printed as per-attempt series
summaries plus the full series in the results file) and asserts the shape:

* unmitigated: the Bortz-Boneh username probe achieves 100% accuracy and
  the three secret configurations give different series;
* mitigated: every attempt of every configuration takes exactly the same
  time (the paper's "all three curves coincide").
"""

from repro.apps.login import (
    CredentialTable,
    LoginSystem,
    login_attempt_times,
    summarize_valid_invalid,
)
from repro.attacks import username_probe
from repro.semantics.mitigation import MitigationState
from repro.telemetry import (
    DynamicLeakageMeter,
    RecordingTraceRecorder,
    SpanRecorder,
    TeeRecorder,
    render_metrics,
)

from _report import (
    Report,
    ascii_plot,
    repo_path,
    series_constant,
    write_metrics,
    write_trace,
)

ATTEMPTS = 100
VALID_COUNTS = (10, 50, 100)
HARDWARE = "partitioned"


def _series(system, tables):
    return {
        valid: login_attempt_times(system, table, hardware=HARDWARE)
        for valid, table in tables.items()
    }


def _metered_series(system, tables, recorder, meter):
    """``_series`` observed by ``recorder``, with every attempt's result
    fed to ``meter``: one mitigation state per table's attempt stream, as
    in ``login_attempt_times``."""
    series = {}
    for valid, table in tables.items():
        mitigation = MitigationState()
        times = series[valid] = []
        for username, password in zip(table.usernames, table.passwords):
            result = system.run(table, username, password,
                                hardware=HARDWARE, mitigation=mitigation,
                                recorder=recorder)
            meter.observe(result)
            times.append(result.time)
    return series


def _run_experiment():
    tables = {
        v: CredentialTable.generate(size=ATTEMPTS, valid=v, seed=2012)
        for v in VALID_COUNTS
    }

    unmitigated = LoginSystem(table_size=ATTEMPTS, mitigated=False)
    mitigated = LoginSystem(table_size=ATTEMPTS, mitigated=True)
    budget = mitigated.calibrate_budget(attempts=10, hardware=HARDWARE)

    upper = _series(unmitigated, tables)
    # Telemetry over the whole mitigated stream: every attempt is one run;
    # the meter counts distinct mitigation-deadline sequences across all
    # 3 x 100 attempts and checks them against the static Theorem 2 bound.
    meter = DynamicLeakageMeter(mitigated.lattice)
    metrics_recorder = RecordingTraceRecorder()
    # Epoch-granularity spans keep the 3 x 100-attempt timeline compact:
    # one Perfetto track per attempt, one child span per mitigate epoch.
    span_recorder = SpanRecorder(detail="epochs")
    recorder = TeeRecorder(metrics_recorder, span_recorder)
    lower = _metered_series(mitigated, tables, recorder, meter)
    return (tables, upper, lower, budget, metrics_recorder, meter,
            span_recorder)


def _build_report():
    (tables, upper, lower, budget, recorder, meter,
     span_recorder) = _run_experiment()
    report = Report("fig7", "Figure 7: Login time with various secrets")
    report.line(f"100 attempts; valid usernames in {VALID_COUNTS}; "
                f"hardware={HARDWARE}; calibrated initial prediction="
                f"{budget} cycles")
    report.line()
    report.line("Upper plot (unmitigated): per-configuration summary")
    rows = []
    probes = {}
    for v in VALID_COUNTS:
        s = summarize_valid_invalid(upper[v], tables[v])
        validity = [tables[v].is_valid(i) for i in range(ATTEMPTS)]
        if v < ATTEMPTS:
            probes[v] = username_probe(upper[v], validity).accuracy
        rows.append((f"{v} valid", f"{s['valid']:.0f}",
                     f"{s['invalid']:.0f}" if v < ATTEMPTS else "n/a",
                     f"{probes.get(v, float('nan')):.2f}"
                     if v in probes else "n/a"))
    report.table(("config", "avg time (valid)", "avg time (invalid)",
                  "probe accuracy"), rows)
    report.line()
    report.line("Lower plot (mitigated): per-configuration summary")
    rows = []
    for v in VALID_COUNTS:
        times = lower[v]
        rows.append((f"{v} valid", min(times), max(times),
                     "yes" if series_constant(times) else "NO"))
    report.table(("config", "min time", "max time", "constant?"), rows)

    distinct_mitigated = {tuple(lower[v]) for v in VALID_COUNTS}
    unmit_separable = all(acc == 1.0 for acc in probes.values())
    curves_coincide = len(distinct_mitigated) == 1 and all(
        series_constant(lower[v]) for v in VALID_COUNTS
    )
    report.expect(
        "upper plot: valid/invalid distinguishable by timing",
        "adversary separates them", f"probe accuracy {probes}",
        unmit_separable,
    )
    report.expect(
        "lower plot: all three curves coincide",
        "single flat line", f"{len(distinct_mitigated)} distinct series",
        curves_coincide,
    )
    report.line()
    report.line("Upper plot (unmitigated login times per attempt):")
    report.line(ascii_plot({f"{v} valid": upper[v] for v in VALID_COUNTS}))
    report.line()
    report.line("Lower plot (mitigated -- the curves coincide):")
    report.line(ascii_plot({f"{v} valid": lower[v] for v in VALID_COUNTS}))
    report.line()
    report.line("Full series (attempt -> cycles):")
    for v in VALID_COUNTS:
        report.line(f"unmitigated valid={v}: {upper[v]}")
    for v in VALID_COUNTS:
        report.line(f"mitigated   valid={v}: {lower[v][:5]} ... (constant)")

    document = recorder.registry.as_dict(leakage=meter.as_dict())
    metrics_path = write_metrics("fig7", document)
    trace_path = write_trace("fig7", span_recorder.spans)
    report.line()
    report.line(f"Execution timeline (Perfetto-loadable): "
                f"{repo_path(trace_path)} "
                f"({len(span_recorder.spans)} spans)")
    report.line(f"Telemetry over the mitigated stream "
                f"({repo_path(metrics_path)}):")
    for line in render_metrics(document)[0]:
        report.line(f"  {line}" if line else "")
    leakage_ok = meter.holds()
    report.expect(
        "dynamic leakage accounting within the static Theorem 2 bound",
        f"<= {meter.static_bound_bits():.1f} bits",
        f"{meter.observed_variations} observed deadline sequence(s) "
        f"({meter.observed_bits:.3f} bits)",
        leakage_ok,
    )
    report.emit()
    return unmit_separable and curves_coincide and leakage_ok


def test_fig7_login_timing(benchmark):
    ok = benchmark.pedantic(_build_report, rounds=1, iterations=1)
    assert ok
