#!/usr/bin/env python
"""Tooling tour: from leaky source to an audited deployment, automatically.

The type system *isolates* where timing must be controlled (Sec. 5); the
suggest module turns its errors into minimal ``mitigate`` insertions; the
quantitative layer then puts a number on what remains.  This script walks a
small analytics service through the whole pipeline.

Run: python examples/auto_repair.py
"""

from repro import api
from repro.lang import DEFAULT_LATTICE, parse, pretty
from repro.machine import Memory
from repro.hardware import PartitionedHardware, tiny_machine
from repro.quantitative import leakage_bound, secret_variants, verify_theorem2
from repro.typesystem import (
    SecurityEnvironment,
    TypingError,
    auto_mitigate,
    infer_labels,
    typecheck,
)

SRC = """
// a tiny analytics endpoint: how many secret scores beat the threshold?
count := 0;
i := 0;
while i < n do {
    if scores[i] > threshold then { count := count + 1 } else { skip };
    i := i + 1
};
ready := 1    // public response marker -- its TIMING is the channel
"""

GAMMA = {"scores": "H", "threshold": "H", "count": "H", "i": "H",
         "n": "L", "ready": "L"}


def main():
    lat = DEFAULT_LATTICE
    gamma = SecurityEnvironment(lat, {k: lat[v] for k, v in GAMMA.items()})

    print("1) Typechecking the source...")
    program = infer_labels(parse(SRC), gamma)
    try:
        typecheck(program, gamma)
    except TypingError as err:
        print(f"   rejected: {err}\n")

    print("2) auto_mitigate proposes the minimal repair:")
    fixed, placements = auto_mitigate(program, gamma)
    for p in placements:
        print(f"   {p.describe()}")
    info = typecheck(fixed, gamma)
    print("   repaired program typechecks. Source:\n")
    print("   " + pretty(fixed).replace("\n", "\n   "))

    print("\n3) Quantitative audit over 16 threshold secrets:")
    base = Memory({"scores": [5, 9, 1, 7, 3, 8, 2, 6], "threshold": 0,
                   "count": 0, "i": 0, "n": 8, "ready": 0})
    variants = secret_variants(base, ({"threshold": t} for t in range(16)))
    audit = verify_theorem2(
        fixed, gamma, lat, [lat["H"]], lat["L"], base,
        PartitionedHardware(lat, tiny_machine()), variants,
        mitigate_pc=info.mitigate_pc,
    )
    worst_t = audit.leakage.latest_event_time
    bound = leakage_bound(lat, [lat["H"]], lat["L"], worst_t, 1)
    print(f"   measured leakage Q        = {audit.leakage.bits:.3f} bits")
    print(f"   timing variations log|V|  = "
          f"{audit.variations.observed_bits:.3f} bits")
    print(f"   Sec. 7 closed-form bound  = {bound:.3f} bits (T={worst_t})")
    print(f"   Theorem 2 {'holds' if audit.holds else 'VIOLATED'}")
    print("\nThe service ships with a machine-checked leakage budget.")


if __name__ == "__main__":
    main()
