"""Extension experiment: the AES-class cache attack across hardware designs.

Not a numbered figure in the paper, but its central motivation: Sec. 1-2
cite the data-cache attacks on AES (Osvik et al., Gullasch et al.) as the
channels that "some timing attacks exploit... to infer AES encryption
keys", and the partitioned design exists to stop exactly them.  This bench
runs the one-round prime-and-probe key-byte recovery
(:func:`repro.adversary.recover_key_byte`, driven by ``run_in_process``)
against all hardware designs and reports bits of key learned, plus the
encryption-latency overhead each secure design costs.

Shape asserted: ~5+ bits/byte recovered on nopar (line granularity is the
textbook limit), exactly 0 bits on no-fill and partitioned; partitioned
costs less than no-fill.
"""

import random

from repro.adversary import recover_key_byte, run_in_process, sbox_victim
from repro.apps.sbox_cipher import SboxCipher, random_key

from _report import Report, mean

MODELS = ("nopar", "nofill", "partitioned")
BYTES_TO_ATTACK = 4


def _attack_bits(hardware, key, plaintexts):
    bits = []
    for index in range(BYTES_TO_ATTACK):
        cipher = SboxCipher(length=index + 1, mitigated=True)
        table, measure = sbox_victim(cipher, key, index, hardware)
        findings = run_in_process(recover_key_byte(table, plaintexts),
                                  measure)
        bits.append(findings.bits_extracted)
    return bits


def _latency(hardware, key):
    cipher = SboxCipher(length=16, mitigated=False)
    times = [
        cipher.run(key, [p] * 16, hardware=hardware).time
        for p in range(0, 64, 8)
    ]
    return mean(times)


def _build_report():
    rng = random.Random(20120613)
    key = random_key(rng)
    plaintexts = [rng.randrange(256) for _ in range(10)]

    report = Report(
        "sbox_attack",
        "Extension: one-round cache attack on an S-box cipher",
    )
    rows = []
    bits = {}
    latency = {}
    for hw in MODELS:
        bits[hw] = _attack_bits(hw, key, plaintexts)
        latency[hw] = _latency(hw, key)
        rows.append((
            hw,
            " ".join(f"{b:.1f}" for b in bits[hw]),
            f"{mean(bits[hw]):.1f}",
            f"{latency[hw]:.0f}",
            f"{latency[hw] / latency['nopar']:.2f}x",
        ))
    report.table(
        ("design", "bits/byte (4 bytes)", "avg bits", "enc latency",
         "vs nopar"),
        rows,
    )
    nopar_leaks = mean(bits["nopar"]) >= 4.0
    secure_blind = all(
        b == 0.0 for hw in ("nofill", "partitioned") for b in bits[hw]
    )
    cost_order = latency["partitioned"] <= latency["nofill"]
    report.expect(
        "prime-and-probe recovers key bits on commodity hardware",
        "AES-class attack works (top-of-line-granularity bits)",
        f"avg {mean(bits['nopar']):.1f} bits/byte", nopar_leaks,
    )
    report.expect(
        "secure designs leak zero bits to the probe",
        "0 bits", f"{ {hw: mean(bits[hw]) for hw in MODELS} }",
        secure_blind,
    )
    report.expect(
        "partitioned cheaper than no-fill on the secret-heavy loop",
        "partitioned <= nofill",
        {hw: round(latency[hw]) for hw in MODELS},
        cost_order,
    )
    report.emit()
    return nopar_leaks and secure_blind and cost_order


def test_sbox_cache_attack(benchmark):
    ok = benchmark.pedantic(_build_report, rounds=1, iterations=1)
    assert ok
