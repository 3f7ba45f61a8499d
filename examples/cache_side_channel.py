#!/usr/bin/env python
"""Indirect timing dependencies: the data-cache channel of Sec. 2.1-2.2.

The victim branches on a secret and touches one of two public arrays.  On
commodity hardware the secret imprints on the shared cache, and a
coresident adversary recovers it two independent ways:

* by timing a later public access in the victim itself (line ``l3 := l1``);
* by prime-and-probe: timing its *own* accesses to the arrays afterwards.

The paper's secure designs (no-fill and the partitioned cache) blind both,
and the executable software/hardware contract (Properties 2, 5-7) predicts
exactly which design leaks.

Run: python examples/cache_side_channel.py
"""

from repro import api, two_point
from repro.machine import Memory
from repro.machine.layout import Layout
from repro.hardware import make_hardware, run_contract_suite, tiny_machine
from repro.hardware.verify import probe

# Array names chosen so the layout gives path_b its own cache block
# (path_a shares a block with the scalars and is also read by line 3,
# so path_b's residency is the clean h-discriminating bit).
VICTIM = """
if h then { x := path_a[0] } else { x := path_b[0] };
l3 := path_a[0]
"""
GAMMA = {"h": "H", "x": "H", "path_a": "L", "path_b": "L", "l3": "L"}


def main():
    lattice = two_point()
    compiled = api.compile_program(VICTIM, gamma=GAMMA, lattice=lattice,
                                   check=False)  # deliberately insecure
    memory_spec = {"h": 0, "x": 0, "path_a": [7] * 8, "path_b": [8] * 8,
                   "l3": 0}
    layout = Layout.build(compiled.program, Memory(memory_spec))
    targets = [layout.array_addr["path_a"], layout.array_addr["path_b"]]

    print("Victim: if h then touch path_a[] else touch path_b[]\n")
    header = f"{'hardware':14s} {'t(h=0)':>8s} {'t(h=1)':>8s} " \
             f"{'probe(path_a, path_b)':>26s}  verdict"
    print(header)
    print("-" * len(header))
    for hw in ("nopar", "nofill", "partitioned"):
        results = {}
        for h in (0, 1):
            spec = dict(memory_spec)
            spec["h"] = h
            results[h] = compiled.run(spec, hardware=hw)
        probes = {
            h: probe(results[h].environment, targets) for h in (0, 1)
        }
        leaks = probes[0] != probes[1]
        verdict = "LEAKS via probe" if leaks else "probe blinded"
        print(f"{hw:14s} {results[0].time:8d} {results[1].time:8d} "
              f"{str(probes[0]) + '/' + str(probes[1]):>26s}  {verdict}")

    print("\nContract check (Properties 2, 5-7) per design:")
    for hw in ("nopar", "nofill", "partitioned"):
        report = run_contract_suite(
            lambda name=hw: make_hardware(name, lattice, tiny_machine()),
            lattice, trials=8,
        )
        failing = ", ".join(report.failing_properties()) or "all hold"
        print(f"  {hw:14s} {failing}")
    print("\nThe design that fails P5 (write label) is exactly the one the "
          "probe cracks.")
    print("Note the victim's own times differ with h on every design: this "
          "program is ill-typed\n(the type system demands a mitigate before "
          "'l3 := ...'), hardware alone cannot save it.")


if __name__ == "__main__":
    main()
