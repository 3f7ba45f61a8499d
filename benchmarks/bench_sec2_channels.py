"""Section 2's in-text examples: each timing channel demonstrated and closed.

Three code fragments from Sec. 2.1-2.3 of the paper:

1. direct dependency -- ``if h then sleep(1) else sleep(10); sleep(h)``:
   control flow and argument values affect timing on *any* hardware;
2. indirect dependency -- the data-cache example (``if h1 then h2:=l1 else
   h2:=l2; l3:=l1``): the branch's cache footprint affects the later public
   access; the adversary can also probe the shared cache directly;
3. the mitigate example -- ``mitigate (1, H) { sleep(h) }``: possible
   execution times collapse onto the doubling schedule.

For each we measure: does the channel exist on ``nopar``?  Is it closed on
the secure designs (for the well-typed variants) or caught by the type
system (for the ill-typed ones)?
"""

from repro import api
from repro.hardware.verify import probe
from repro.lang import DEFAULT_LATTICE
from repro.machine import Memory
from repro.machine.layout import Layout
from repro.typesystem import TypingError, typecheck

from _report import Report

LAT = DEFAULT_LATTICE


def _direct_channel():
    src = "if h then { sleep(1) } else { sleep(10) }; sleep(h); l := 1"
    cp = api.compile_program(src, gamma={"h": "H", "l": "L"}, check=False)
    times = {}
    for hw in ("null", "nopar", "partitioned"):
        times[hw] = [
            cp.run({"h": h, "l": 0}, hardware=hw).events[-1].time
            for h in (0, 1)
        ]
    try:
        typecheck(cp.program, cp.gamma)
        rejected = False
    except TypingError:
        rejected = True
    return times, rejected


def _indirect_channel():
    # Arrays so l1/l2 occupy distinct cache blocks (the paper's implicit
    # assumption about memory layout).
    src = "if h1 then { h2 := l1[0] } else { h2 := l2[0] }; l3 := l1[0]"
    gamma = {"h1": "H", "h2": "H", "l1": "L", "l2": "L", "l3": "L"}
    cp = api.compile_program(src, gamma=gamma, lattice=LAT, check=False)
    mem = {"h1": 0, "h2": 0, "l1": [5] * 8, "l2": [6] * 8, "l3": 0}
    layout = Layout.build(cp.program, Memory(mem))
    probes = [layout.array_addr["l1"], layout.array_addr["l2"]]
    outcomes = {}
    for hw in ("nopar", "nofill", "partitioned"):
        runs = {}
        for h1 in (0, 1):
            m = dict(mem)
            m["h1"] = h1
            runs[h1] = cp.run(m, hardware=hw)
        # Property 6 at the bottom level, tested directly: the secret
        # reached only high state iff every public probe costs the same.
        outcomes[hw] = (probe(runs[0].environment, probes)
                        != probe(runs[1].environment, probes))
    try:
        typecheck(cp.program, cp.gamma)
        rejected = False
    except TypingError:
        rejected = True
    return outcomes, rejected


def _mitigated_sleep():
    src = "mitigate(1, H) { sleep(h) }; l := 1"
    cp = api.compile_program(src, gamma={"h": "H", "l": "L"})
    observed = set()
    for h in range(0, 33):
        r = cp.run({"h": h, "l": 0}, hardware="null")
        observed.add(r.mitigations[0].duration)
    powers = {2 ** k for k in range(12)}
    return sorted(observed), observed <= powers


def _build_report():
    report = Report("sec2", "Section 2 examples: channels shown and closed")

    times, rejected = _direct_channel()
    report.line("1. Direct dependencies (control flow + sleep argument):")
    report.table(("hardware", "time h=0", "time h=1", "leaks?"),
                 [(hw, t[0], t[1], "yes" if t[0] != t[1] else "no")
                  for hw, t in times.items()])
    direct_ok = all(t[0] != t[1] for t in times.values()) and rejected
    report.expect("direct channel exists on all hardware; type system "
                  "rejects the program",
                  "leak everywhere, ill-typed",
                  f"rejected={rejected}", direct_ok)
    report.line()

    outcomes, rejected2 = _indirect_channel()
    report.line("2. Indirect dependency (data cache), coresident probe:")
    report.table(("hardware", "probe distinguishes secret?"),
                 [(hw, "yes" if x else "no") for hw, x in outcomes.items()])
    indirect_ok = (outcomes["nopar"] and not outcomes["nofill"]
                   and not outcomes["partitioned"] and rejected2)
    report.expect("cache probe works on nopar only; secure designs blind "
                  "it; program is ill-typed (final public assign)",
                  "nopar leaks, nofill/partitioned do not",
                  f"{outcomes}, rejected={rejected2}", indirect_ok)
    report.line()

    durations, all_powers = _mitigated_sleep()
    report.line("3. mitigate (1, H) { sleep(h) } for h in 0..32:")
    report.line(f"   observed padded durations: {durations}")
    report.expect("possible execution times are powers of 2 (Sec. 2.3)",
                  "forced to powers of 2", f"{durations}", all_powers)
    report.emit()
    return direct_ok and indirect_ok and all_powers


def test_sec2_channel_examples(benchmark):
    ok = benchmark.pedantic(_build_report, rounds=1, iterations=1)
    assert ok
