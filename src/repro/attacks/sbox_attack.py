"""Prime-and-probe key recovery against the S-box cipher.

The classic one-round AES cache analysis (Osvik-Shamir-Tromer): each
encryption touches the S-box cache line indexed by ``p ^ k``; probing which
lines are warm after an encryption with known plaintext byte ``p`` confines
the key byte ``k`` to the entries of the hot lines, and intersecting the
candidate sets over a handful of chosen plaintexts converges.

Line granularity is the attack's resolution limit, exactly as in the
literature: ``(p ^ k) >> 3 = (p >> 3) ^ (k >> 3)`` (XOR is bitwise), so
probing 32-byte lines of 4-byte entries reveals the key byte's top 5 bits
and can never see the bottom 3 (full AES attacks proceed to second-round
analysis for those).  Expect ``bits_learned() >= 5`` against
:class:`~repro.hardware.standard.StandardHardware` after a few chosen
plaintexts, and exactly 0 against the paper's secure designs: no-fill never
installs the victim's lookups, and the partitioned design installs them in
the H partition, which a bottom-labeled probe cannot observe (Property 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from ..apps.sbox_cipher import KEY_LENGTH, SBOX_SIZE, SboxCipher
from ..machine.layout import WORD_BYTES, Layout
from ..hardware import MachineParams
from .cache_probe import probe


@dataclass
class SboxAttackResult:
    """Outcome of a key-byte recovery attempt."""

    candidates: Set[int]
    true_byte: int
    probes_used: int

    @property
    def recovered(self) -> bool:
        return self.candidates == {self.true_byte}

    @property
    def learned_anything(self) -> bool:
        return len(self.candidates) < SBOX_SIZE

    def bits_learned(self) -> float:
        import math

        if not self.candidates:
            return 0.0
        return math.log2(SBOX_SIZE / len(self.candidates))


def _sbox_blocks(layout: Layout, block_bytes: int) -> List[int]:
    """The distinct cache-block base addresses covering the S-box."""
    base = layout.array_addr["sbox"]
    blocks = sorted(
        {
            ((base + WORD_BYTES * e) // block_bytes) * block_bytes
            for e in range(SBOX_SIZE)
        }
    )
    return blocks


def _entries_in_block(
    layout: Layout, block_addr: int, block_bytes: int
) -> Set[int]:
    base = layout.array_addr["sbox"]
    return {
        e
        for e in range(SBOX_SIZE)
        if (base + WORD_BYTES * e) // block_bytes == block_addr // block_bytes
    }


def recover_key_byte(
    cipher: SboxCipher,
    key: Sequence[int],
    chosen_plaintexts: Sequence[int],
    byte_index: int = 0,
    hardware: str = "nopar",
    params: Optional[MachineParams] = None,
    block_bytes: int = 32,
) -> SboxAttackResult:
    """Recover ``key[byte_index]`` by prime-and-probe over the S-box lines.

    ``cipher`` should encrypt a single byte at position ``byte_index``
    (``length = byte_index + 1`` works); each chosen plaintext byte drives
    one victim run on a fresh environment, after which the attacker times a
    public read of every S-box block.
    """
    candidates: Set[int] = set(range(SBOX_SIZE))
    probes = 0
    plaintext_template = [0] * cipher.plaintext_length
    # Static layout: the attacker derives addresses exactly as the loader
    # does.  (Address-space randomization is out of scope, as in the paper.)
    layout = Layout.build(
        cipher.program, cipher.memory(list(key), plaintext_template)
    )
    blocks = _sbox_blocks(layout, block_bytes)

    for p in chosen_plaintexts:
        plaintext = list(plaintext_template)
        plaintext[byte_index % cipher.plaintext_length] = p % SBOX_SIZE
        result = cipher.run(list(key), plaintext, hardware=hardware,
                            params=params)
        probes += 1
        costs = probe(result.environment, blocks).costs
        fast = min(costs)
        slow = max(costs)
        if fast == slow:
            continue  # no contrast: the probe learned nothing this round
        hot = [addr for addr, cost in zip(blocks, costs) if cost == fast]
        allowed: Set[int] = set()
        for addr in hot:
            for entry in _entries_in_block(layout, addr, block_bytes):
                allowed.add((entry ^ (p % SBOX_SIZE)) % SBOX_SIZE)
        candidates &= allowed
        if len(candidates) <= 1:
            break

    return SboxAttackResult(
        candidates=candidates,
        true_byte=key[byte_index % KEY_LENGTH] % SBOX_SIZE,
        probes_used=probes,
    )
