#!/usr/bin/env python
"""One-round cache attack on a table-lookup cipher — and its defeat.

The AES cache attacks the paper cites as motivation (Osvik-Shamir-Tromer,
Gullasch et al.) recover key bytes by observing which S-box cache lines an
encryption touches.  This script runs that attack against a toy S-box
cipher written in the object language:

* on commodity hardware (`nopar`) the attacker recovers the top 5-7 bits of
  each key byte from a handful of chosen plaintexts (line granularity is
  the textbook resolution limit);
* on the paper's partitioned hardware the secret-indexed lookups live in
  the H partition, the public probe sees nothing, and zero bits leak.

Run: python examples/sbox_key_recovery.py
"""

import random

from repro.adversary import recover_key_byte, run_in_process, sbox_victim
from repro.apps.sbox_cipher import SboxCipher, random_key

BYTES_TO_ATTACK = 4


def main():
    rng = random.Random(1)
    key = random_key(rng)
    plaintexts = [rng.randrange(256) for _ in range(10)]
    print(f"victim key bytes (secret): {key[:BYTES_TO_ATTACK]} ...")
    print(f"attacker's chosen plaintext bytes: {plaintexts}\n")

    for hardware in ("nopar", "partitioned"):
        print(f"--- hardware = {hardware} ---")
        for index in range(BYTES_TO_ATTACK):
            cipher = SboxCipher(length=index + 1, mitigated=True)
            table, measure = sbox_victim(cipher, key, index, hardware)
            findings = run_in_process(recover_key_byte(table, plaintexts),
                                      measure)
            survivors = findings.extra["candidates"]
            shown = (str(survivors) if len(survivors) <= 8
                     else f"{len(survivors)} candidates")
            print(f"  key[{index}] = {key[index]:3d}: learned "
                  f"{findings.bits_extracted:4.1f} bits -> {shown}")
        print()

    print("The partitioned design (Sec. 4.3) confines the key-dependent")
    print("S-box lines to the H partition; the attacker's public probes hit")
    print("a wall of uniform misses (Property 6).")


if __name__ == "__main__":
    main()
