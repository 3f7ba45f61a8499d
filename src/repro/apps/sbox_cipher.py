"""An S-box (table-lookup) cipher: the AES cache-attack class.

The paper's introduction motivates indirect timing dependencies with the
cache attacks on AES (Osvik-Shamir-Tromer; Gullasch et al.): AES
implementations look up S-box tables at *key-dependent indices*, so the
cache lines the encryption touches -- observable to a coresident prober --
reveal key bytes.  This case study reproduces that attack class with a
toy byte cipher in the object language::

    i := 0
    mitigate (budget, H) {
        while i < length {
            idx := ptext[i % plen] ^ key[i % klen]   -- secret index
            ctext[i] := sbox[idx]                    -- the leaking lookup
            i := i + 1
        }
    };
    done := 1

The security story exercises the array extension end to end:

* the *index* ``idx`` is key-derived, so the element address of
  ``sbox[idx]`` carries secret bits into cache state.  The type system's
  array rule demands ``label(idx) <= lw`` -- the lookup must run with a
  high write label, which the partitioned hardware maps to the H partition
  (no-fill hardware simply never installs it);
* on ``nopar`` hardware the same program imprints the touched S-box lines
  on the shared cache, and :func:`repro.adversary.recover_key_byte`
  recovers key bits by prime-and-probe, exactly like the AES attacks;
* without the ``mitigate``, the trailing public ``done := 1`` is rejected
  (the loop's timing end-label is high) -- encryption *latency* also
  depends on secrets through cache misses.

The S-box is a fixed, deterministically generated permutation of 0..255
(the attack does not care which permutation; AES's algebraic S-box would
behave identically).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..lang import ast
from ..lang.builder import B
from ..lang.parser import DEFAULT_LATTICE
from ..lattice import Lattice
from ..machine.memory import Memory
from ..api import compile_program
from ..hardware import MachineEnvironment, MachineParams
from ..semantics.full import ExecutionResult
from ..semantics.mitigation import MitigationState
from ..telemetry.recorder import TraceRecorder
from ..typesystem.environment import SecurityEnvironment
from ..typesystem.typing import TypingInfo

SBOX_SIZE = 256
KEY_LENGTH = 16


def standard_sbox(seed: int = 0x5B0C) -> List[int]:
    """A fixed pseudorandom permutation of 0..255 (our stand-in S-box)."""
    table = list(range(SBOX_SIZE))
    random.Random(seed).shuffle(table)
    return table


def reference_encrypt(
    key: List[int], plaintext: List[int], length: int,
    sbox: Optional[List[int]] = None,
) -> List[int]:
    """Python-side reference for cross-checking the language program."""
    sbox = sbox if sbox is not None else standard_sbox()
    return [
        sbox[(plaintext[i % len(plaintext)] ^ key[i % len(key)]) % SBOX_SIZE]
        for i in range(length)
    ]


@dataclass
class SboxCipher:
    """The table-lookup cipher program for a fixed output length."""

    lattice: Lattice = field(default_factory=lambda: DEFAULT_LATTICE)
    length: int = 16
    plaintext_length: int = 16
    mitigated: bool = True
    budget: int = 1
    sbox: List[int] = field(default_factory=standard_sbox)

    def __post_init__(self) -> None:
        if len(self.sbox) != SBOX_SIZE:
            raise ValueError(f"sbox must have {SBOX_SIZE} entries")
        self.compiled = compile_program(*self._build(), lattice=self.lattice,
                                        check=self.mitigated)
        self.program, self.gamma = self.compiled.program, self.compiled.gamma
        self.typing: Optional[TypingInfo] = (
            self.compiled.typing if self.mitigated else None)

    def _build(self) -> Tuple[ast.Command, SecurityEnvironment]:
        lat = self.lattice
        high = lat["H"] if "H" in lat else lat.top
        b = B(lat)
        v = b.v
        at = b.at

        loop = b.seq(
            b.assign("i", 0),
            b.while_(
                v("i") < self.length,
                b.seq(
                    b.assign(
                        "idx",
                        (at("ptext", v("i") % self.plaintext_length)
                         ^ at("key", v("i") % KEY_LENGTH)) % SBOX_SIZE,
                    ),
                    b.store("ctext", v("i") % self.length,
                            at("sbox", v("idx"))),
                    b.assign("i", v("i") + 1),
                ),
            ),
        )
        body: ast.Command = loop
        if self.mitigated:
            body = b.mitigate(self.budget, high, loop, mit_id="encrypt")
        program = b.seq(body, b.assign("done", 1))

        gamma = SecurityEnvironment(
            lat,
            {
                "ptext": lat.bottom,
                "sbox": lat.bottom,  # the table itself is public...
                "done": lat.bottom,
                "key": high,  # ...the secret is which entries get touched
                "ctext": high,
                "idx": high,
                "i": high,
            },
        )
        return program, gamma

    def memory(self, key: List[int], plaintext: List[int]) -> Memory:
        if len(key) != KEY_LENGTH:
            raise ValueError(f"key must have {KEY_LENGTH} bytes")
        if len(plaintext) != self.plaintext_length:
            raise ValueError(
                f"plaintext must have {self.plaintext_length} bytes"
            )
        return Memory(
            {
                "ptext": [p % SBOX_SIZE for p in plaintext],
                "key": [k % SBOX_SIZE for k in key],
                "sbox": list(self.sbox),
                "ctext": [0] * self.length,
                "idx": 0,
                "i": 0,
                "done": 0,
            }
        )

    def run(
        self,
        key: List[int],
        plaintext: List[int],
        hardware: Union[str, MachineEnvironment] = "partitioned",
        params: Optional[MachineParams] = None,
        mitigation: Optional[MitigationState] = None,
        max_steps: int = 10_000_000,
        recorder: Optional[TraceRecorder] = None,
    ) -> ExecutionResult:
        return self.compiled.run(self.memory(key, plaintext), hardware,
                                 params, mitigation, max_steps=max_steps,
                                 recorder=recorder)

    def encrypt_and_check(
        self,
        key: List[int],
        plaintext: List[int],
        hardware: str = "partitioned",
        params: Optional[MachineParams] = None,
    ) -> Tuple[List[int], ExecutionResult]:
        """Encrypt and verify against the Python reference."""
        result = self.run(key, plaintext, hardware=hardware, params=params)
        ctext = [
            result.memory.read_elem("ctext", i) for i in range(self.length)
        ]
        expected = reference_encrypt(key, plaintext, self.length, self.sbox)
        if ctext != expected:
            raise AssertionError(
                f"cipher output disagrees with reference: {ctext} != "
                f"{expected}"
            )
        return ctext, result


def random_key(rng: random.Random) -> List[int]:
    return [rng.randrange(SBOX_SIZE) for _ in range(KEY_LENGTH)]
