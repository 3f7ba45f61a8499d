"""Figure 8: RSA decryption time for two private keys.

Paper setup: 100 encrypted messages decrypted under two different private
keys.  Upper plot (unmitigated): the two keys' decryption-time series are
clearly separated -- decryption time leaks the private key.  Lower plot
(mitigated, per-block language-level mitigation): the time is *exactly* the
same constant (the paper measures exactly 32,001,922 cycles) regardless of
key and message.

Shape asserted here:

* unmitigated: the per-key series are disjoint (every time under the
  heavier key exceeds every time under the lighter key, as in the plot);
* mitigated: one single value across all 2 x 100 runs.
"""

import random

from repro.apps.rsa import RsaSystem, decryption_times
from repro.apps.rsa_math import encrypt_blocks, generate_keypair
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
    write_metrics,
    write_trace,
)

KEY_BITS = 48
BLOCKS = 4
MESSAGES = 100
HARDWARE = "partitioned"


def _two_keys_with_distinct_weights(spread=5):
    keys = []
    for seed in range(500):
        key = generate_keypair(KEY_BITS, seed=seed)
        if all(abs(key.hamming_weight() - k.hamming_weight()) >= spread
               for k in keys):
            keys.append(key)
        if len(keys) == 2:
            return sorted(keys, key=lambda k: k.hamming_weight())
    raise AssertionError("no spread keys found")


def _run_experiment():
    light, heavy = _two_keys_with_distinct_weights()
    rng = random.Random(20120611)
    n_min = min(light.n, heavy.n)
    messages = [
        [rng.randrange(1, n_min) for _ in range(BLOCKS)]
        for _ in range(MESSAGES)
    ]

    unmitigated = RsaSystem(key_bits=KEY_BITS, blocks=BLOCKS,
                            mitigation_mode="none")
    upper = decryption_times(unmitigated, [light, heavy], messages,
                             hardware=HARDWARE)

    mitigated = RsaSystem(key_bits=KEY_BITS, blocks=BLOCKS,
                          mitigation_mode="language")
    budget = mitigated.calibrate_budget(samples=8, hardware=HARDWARE)
    # Telemetry over the mitigated stream: each of the 2 x 100 decryptions
    # is one run; the meter's observed deadline sequences must stay within
    # the static Theorem 2 bound.
    meter = DynamicLeakageMeter(mitigated.lattice)
    metrics_recorder = RecordingTraceRecorder()
    # Epoch-granularity spans: one Perfetto track per decryption, one
    # child span per per-block mitigate epoch.
    span_recorder = SpanRecorder(detail="epochs")
    recorder = TeeRecorder(metrics_recorder, span_recorder)
    # ``decryption_times``, with every decryption's result fed to the
    # meter.
    lower = []
    for key in (light, heavy):
        series = []
        for message in messages:
            result = mitigated.run(key, encrypt_blocks(message, key),
                                   hardware=HARDWARE, recorder=recorder)
            meter.observe(result)
            series.append(result.time)
        lower.append(series)
    return (light, heavy, upper, lower, budget, metrics_recorder, meter,
            span_recorder)


def _build_report():
    (light, heavy, upper, lower, budget, recorder, meter,
     span_recorder) = _run_experiment()
    report = Report("fig8", "Figure 8: RSA decryption time, two private keys")
    report.line(
        f"{MESSAGES} messages of {BLOCKS} blocks; {KEY_BITS}-bit keys; "
        f"hardware={HARDWARE}; per-block initial prediction={budget}"
    )
    report.line(
        f"key A weight(d)={light.hamming_weight()}  "
        f"key B weight(d)={heavy.hamming_weight()}"
    )
    report.line()
    report.table(
        ("series", "min", "max", "mean"),
        [
            ("unmitigated, key A", min(upper[0]), max(upper[0]),
             f"{sum(upper[0]) / MESSAGES:.0f}"),
            ("unmitigated, key B", min(upper[1]), max(upper[1]),
             f"{sum(upper[1]) / MESSAGES:.0f}"),
            ("mitigated, key A", min(lower[0]), max(lower[0]),
             f"{sum(lower[0]) / MESSAGES:.0f}"),
            ("mitigated, key B", min(lower[1]), max(lower[1]),
             f"{sum(lower[1]) / MESSAGES:.0f}"),
        ],
    )

    report.line()
    report.line("Upper plot (unmitigated, per message):")
    report.line(ascii_plot({"key A": upper[0], "key B": upper[1]}))
    report.line()
    report.line("Lower plot (mitigated -- one constant):")
    report.line(ascii_plot({"key A": lower[0], "key B": lower[1]}))
    keys_separated = max(upper[0]) < min(upper[1])
    mitigated_constant = len(set(lower[0]) | set(lower[1])) == 1
    report.expect(
        "upper: the two keys' series are separated",
        "different decryption times per key",
        f"A in [{min(upper[0])},{max(upper[0])}], "
        f"B in [{min(upper[1])},{max(upper[1])}]",
        keys_separated,
    )
    report.expect(
        "lower: mitigated time is one exact constant",
        "exactly 32,001,922 cycles for both keys",
        f"exactly {lower[0][0]} cycles for both keys"
        if mitigated_constant else "NOT constant",
        mitigated_constant,
    )

    document = recorder.registry.as_dict(leakage=meter.as_dict())
    metrics_path = write_metrics("fig8", document)
    trace_path = write_trace("fig8", span_recorder.spans)
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
    return keys_separated and mitigated_constant and leakage_ok


def test_fig8_rsa_timing(benchmark):
    ok = benchmark.pedantic(_build_report, rounds=1, iterations=1)
    assert ok
