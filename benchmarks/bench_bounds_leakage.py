"""Section 7's quantitative results: measured leakage vs the proved bounds.

The paper proves (Theorem 2 + the Sec. 7 analysis) that for well-typed
programs leakage from ``L`` to ``lA`` is at most::

    log |V|  <=  |L^_{lA}| * log2(K+1) * (1 + log2 T)

and zero when no mitigate command executes.  This bench measures Definition
1 leakage *exhaustively* over enumerable secret spaces for a family of
programs and lattices, and checks every inequality in the chain
``Q <= log|V| <= closed-form bound``, printing the margins.
"""

from repro import api
from repro.lang import DEFAULT_LATTICE
from repro.lattice import chain
from repro.machine import Memory
from repro.hardware import PartitionedHardware, tiny_machine
from repro.quantitative import (
    leakage_bound,
    secret_variants,
    verify_theorem2,
)

from _report import Report

LAT = DEFAULT_LATTICE


def _cases():
    lat3 = chain(("L", "M", "H"))
    return [
        # (name, source, gamma, lattice, secret var, space, K)
        ("mitigated sleep", "mitigate(4, H) { sleep(h) }; l := 1",
         {"h": "H", "l": "L"}, LAT, "h", range(64), 1),
        ("mitigated loop",
         "mitigate(16, H) { while h > 0 do { h := h - 1 } }; l := 1",
         {"h": "H", "l": "L"}, LAT, "h", range(32), 1),
        ("two mitigates",
         "mitigate(4, H) { sleep(h) }; l := 1;"
         "mitigate(4, H) { sleep(h * 3) }; l := 2",
         {"h": "H", "l": "L"}, LAT, "h", range(32), 2),
        ("no mitigate (zero-leakage corollary)",
         "g := h + 1; g := g * h",
         {"h": "H", "g": "H", "l": "L"}, LAT, "h", range(32), 0),
        ("three-level, M secret to L adversary",
         "mitigate(4, H) { sleep(m) }; l := 1",
         {"m": "M", "l": "L", "h": "H"}, lat3, "m", range(32), 1),
    ]


def _run_case(name, src, gamma, lattice, secret, space, k):
    cp = api.compile_program(src, gamma=gamma, lattice=lattice)
    base = Memory({v: 0 for v in gamma})
    variants = secret_variants(base, ({secret: v} for v in space))
    levels = [cp.gamma[secret]]
    adversary = lattice.bottom
    env = PartitionedHardware(lattice, tiny_machine())
    result = verify_theorem2(
        cp.program, cp.gamma, lattice, levels, adversary, base, env,
        variants, mitigate_pc=cp.typing.mitigate_pc,
    )
    # T: the worst-case elapsed time over the family.
    worst_t = result.leakage.latest_event_time
    bound = leakage_bound(lattice, levels, adversary, worst_t, k)
    return result, bound, worst_t


def _build_report():
    report = Report(
        "bounds", "Sec. 7: measured leakage vs proved bounds"
    )
    rows = []
    all_ok = True
    for name, src, gamma, lattice, secret, space, k in _cases():
        result, bound, worst_t = _run_case(
            name, src, gamma, lattice, secret, space, k
        )
        q = result.leakage.bits
        log_v = result.variations.observed_bits
        ok = result.holds and (k == 0 or log_v <= bound + 1e-9)
        if k == 0:
            ok = ok and q == 0.0 and log_v == 0.0
        all_ok &= ok
        rows.append((name, len(list(space)), f"{q:.2f}", f"{log_v:.2f}",
                     f"{bound:.2f}", worst_t, "ok" if ok else "VIOLATED"))
    report.table(
        ("program", "|secrets|", "Q (bits)", "log|V|", "bound", "T",
         "Q<=log|V|<=bound"),
        rows,
    )
    report.expect(
        "Theorem 2 + Sec. 7 bound chain on every case",
        "Q <= log|V| <= |L^| log(K+1)(1+log T); Q=0 when K=0",
        "see table", all_ok,
    )
    report.emit()
    return all_ok


def test_bounds_vs_measured_leakage(benchmark):
    ok = benchmark.pedantic(_build_report, rounds=1, iterations=1)
    assert ok
