"""Red-team advantage: attack x scheduler policy sweep over the gateway.

The adversarial cousin of ``bench_service_throughput``: instead of
honest closed-loop clients we run the registered red-team attacks
(:mod:`repro.adversary`) against the live gateway under each scheduler
policy and tabulate the measured distinguisher advantage, Welch p-value,
and extracted bits against the victim tenant's Theorem 2 budget.

The expected shape is the campaign's falsifiable-in-both-directions
claim:

* **fifo / rr** (release at completion) are the *positive controls*:
  the unmitigated crack victims leak their full secrets -- nonzero
  bits extracted at perfect recovery accuracy with a statistically
  significant Welch verdict -- proving the harness actually measures a
  channel;
* **quantized** release holds every attack at or below its budget:
  the strict-signal gate reports zero extracted bits because all
  observables collapse onto quantum boundaries;
* the ``mitigate``-wrapped victim holds under *every* policy: the
  language-level defense does not need the scheduler's help.

The sweep reuses the campaign runner cell-for-cell, so this table
agrees with ``repro attack --policy fifo,rr,quantized`` at the same
seed, and the emitted ``repro.adversary/1`` document is the same
artifact the CI adversary job uploads.
"""

import json
import time

from repro.adversary import REGISTRY, run_campaign

from _report import Report, ensure_results_dir, repo_path
import os

SEED = 7
QUANTUM = 4096
POLICIES = ("fifo", "rr", "quantized")


def _run():
    started = time.perf_counter_ns()
    document = run_campaign(policies=POLICIES, seed=SEED, quantum=QUANTUM)
    wall = (time.perf_counter_ns() - started) / 1e9
    return document, wall


def _build_report():
    document, wall = _run()
    report = Report(
        "attack_advantage",
        "Red-team advantage: attack x scheduler policy",
    )
    report.line(f"{len(REGISTRY)} registered attacks x "
                f"{len(POLICIES)} policies; quantum={QUANTUM}; "
                f"seed={SEED}; {wall:.1f}s wall")
    report.line()

    rows = []
    for cell in document["cells"]:
        rows.append((
            cell["attack"], cell["policy"], cell["clients"],
            f"{cell['advantage']:+.3f}",
            f"{cell['p_value']:.2e}",
            f"{cell['bits_extracted']:.1f}",
            f"{cell['budget_bits']:.1f}",
            f"{cell['accuracy']:.2f}",
            cell["expected"],
            "ok" if cell["ok"] else "BUDGET BEATEN",
        ))
    report.table(
        ("attack", "policy", "clients", "advantage", "p-value",
         "bits", "budget", "accuracy", "expected", "verdict"),
        rows,
    )
    report.line()

    cells = document["cells"]
    fifo_leaks = [
        c for c in cells
        if c["policy"] == "fifo" and c["expected"] == "leaks"
    ]
    positive = bool(fifo_leaks) and all(
        c["significant"] and c["bits_extracted"] > 0 and c["accuracy"] == 1.0
        for c in fifo_leaks
    )
    report.expect(
        "fifo leaks the unmitigated victims (positive control)",
        "full recovery, significant Welch verdict",
        f"{sum(c['bits_extracted'] for c in fifo_leaks):.0f} bits over "
        f"{len(fifo_leaks)} cells",
        positive,
    )
    quantized = [c for c in cells if c["policy"] == "quantized"]
    defended = bool(quantized) and all(c["within_budget"] for c in quantized)
    report.expect(
        "quantized release holds every attack at/below budget",
        "0 extracted bits in every quantized cell",
        f"{sum(c['bits_extracted'] for c in quantized):.0f} bits over "
        f"{len(quantized)} cells",
        defended,
    )
    mitigated = [
        c for c in cells if c["attack"] == "password-crack-mitigated"
    ]
    language_level = bool(mitigated) and all(
        c["within_budget"] and c["bits_extracted"] == 0 for c in mitigated
    )
    report.expect(
        "the mitigate-wrapped victim holds under every policy",
        "0 extracted bits under fifo, rr, and quantized",
        f"{sum(c['bits_extracted'] for c in mitigated):.0f} bits over "
        f"{len(mitigated)} cells",
        language_level,
    )

    doc_path = os.path.join(ensure_results_dir(),
                            "attack_advantage_campaign.json")
    with open(doc_path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    report.line()
    report.line(f"Campaign document ({document['schema']}): "
                f"{repo_path(doc_path)}")
    report.emit()
    return positive and defended and language_level and document["ok"]


def test_attack_advantage(benchmark):
    ok = benchmark.pedantic(_build_report, rounds=1, iterations=1)
    assert ok
