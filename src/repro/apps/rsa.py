"""The RSA decryption case study (Sec. 8.4).

Efficient RSA implementations leak the private key through timing: in
square-and-multiply modular exponentiation the multiply executes only for
*set* key bits (Kocher's attack; Brumley-Boneh made it remote).  The paper
decrypts a multi-block message where only the per-block exponentiation uses
confidential data; the surrounding pre-/post-processing performs public
assignments whose timing the adversary observes.

The program built here (one mitigate per block -- *language-level*
mitigation)::

    b := 0
    while b < blocks {
        c := text[b]                       -- preprocess (public)
        mitigate (budget, H) {             -- line 4: the confidential part
            result := 1; base := c % n; e := 0
            while e < key_bits {
                if ((d >> e) & 1) == 1 { result := (result * base) % n }
                base := (base * base) % n
                e := e + 1
            }
            plain[b] := result
        }
        progress := b + 1                  -- postprocess (public, observable)
        b := b + 1
    }
    done := 1

Four modes reproduce the paper's comparisons (and one of its related-work
arguments):

* ``language`` -- one mitigate per block (typechecks; Fig. 8 bottom, Fig. 9);
* ``none``     -- no mitigation (ill-typed at the public postprocess
  assignment, run unchecked; Fig. 8 top);
* ``system``   -- the whole body wrapped in a single mitigate, simulating
  system-level predictive mitigation that treats the computation as a black
  box (also ill-typed -- it cannot separate the public block count from the
  secret exponent -- run unchecked; Fig. 9's losing baseline);
* ``balanced`` -- Agat-style branch balancing (Sec. 9's code-transformation
  line): the key-bit branch performs a *dummy* multiply on the zero path so
  both branches execute the same operations.  This empirically equalizes
  the direct channel on an abstract machine, but (a) the type system still
  rejects the program -- it reasons about timing *labels*, not instruction
  counts, exactly because (b) on real hardware the balanced branches touch
  different instructions/locations, so indirect (cache) differences can
  survive.  Run unchecked; compared in ``bench_ablation_balancing``.
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
from .rsa_math import RsaKey, decrypt, encrypt_blocks, generate_keypair

MITIGATION_MODES = ("language", "system", "none", "balanced")


@dataclass
class RsaSystem:
    """The multi-block RSA decryption program for a fixed block count."""

    lattice: Lattice = field(default_factory=lambda: DEFAULT_LATTICE)
    key_bits: int = 32
    blocks: int = 4
    mitigation_mode: str = "language"
    budget: int = 1

    def __post_init__(self) -> None:
        if self.mitigation_mode not in MITIGATION_MODES:
            raise ValueError(
                f"mitigation_mode must be one of {MITIGATION_MODES}"
            )
        checked = self.mitigation_mode == "language"
        self.compiled = compile_program(*self._build(), lattice=self.lattice,
                                        check=checked)
        self.program, self.gamma = self.compiled.program, self.compiled.gamma
        self.typing: Optional[TypingInfo] = (
            self.compiled.typing if checked else None)

    # -- program construction ------------------------------------------------

    def _build(self) -> Tuple[ast.Command, SecurityEnvironment]:
        lat = self.lattice
        high = lat["H"] if "H" in lat else lat.top
        b = B(lat)
        v = b.v
        at = b.at

        if self.mitigation_mode == "balanced":
            # Agat-style: both branches perform a multiply; the zero path
            # throws its result away.
            bit_step = b.if_(
                ((v("d") >> v("e")) & 1) == 1,
                b.assign("result", (v("result") * v("base")) % v("n")),
                b.assign("dummy", (v("result") * v("base")) % v("n")),
            )
        else:
            bit_step = b.if_(
                ((v("d") >> v("e")) & 1) == 1,
                b.assign("result", (v("result") * v("base")) % v("n")),
            )
        modexp = b.seq(
            b.assign("result", 1),
            b.assign("base", v("c") % v("n")),
            b.assign("e", 0),
            b.while_(
                v("e") < self.key_bits,
                b.seq(
                    bit_step,
                    b.assign("base", (v("base") * v("base")) % v("n")),
                    b.assign("e", v("e") + 1),
                ),
            ),
            b.store("plain", v("b"), v("result")),
        )
        decrypt_block: ast.Command = modexp
        if self.mitigation_mode == "language":
            decrypt_block = b.mitigate(
                self.budget, high, modexp, mit_id="rsa_block"
            )

        body = b.seq(
            b.assign("c", at("text", v("b"))),  # preprocess
            decrypt_block,
            b.assign("progress", v("b") + 1),  # postprocess (public)
            b.assign("b", v("b") + 1),
        )
        main = b.seq(
            b.assign("b", 0),
            b.while_(v("b") < self.blocks, body),
            b.assign("done", 1),
        )
        program: ast.Command = main
        if self.mitigation_mode == "system":
            program = b.mitigate(
                self.budget, high, main, mit_id="rsa_whole"
            )

        gamma = SecurityEnvironment(
            lat,
            {
                "text": lat.bottom,
                "c": lat.bottom,
                "n": lat.bottom,
                "b": lat.bottom,
                "progress": lat.bottom,
                "done": lat.bottom,
                "d": high,
                "result": high,
                "base": high,
                "e": high,
                "plain": high,
                "dummy": high,
            },
        )
        return program, gamma

    # -- running -----------------------------------------------------------------

    def memory(self, key: RsaKey, ciphertext: List[int]) -> Memory:
        if len(ciphertext) != self.blocks:
            raise ValueError(
                f"this system decrypts {self.blocks}-block messages, "
                f"got {len(ciphertext)} blocks"
            )
        return Memory(
            {
                "text": list(ciphertext),
                "plain": [0] * self.blocks,
                "n": key.n,
                "d": key.d,
                "c": 0,
                "b": 0,
                "e": 0,
                "base": 0,
                "result": 0,
                "progress": 0,
                "done": 0,
                "dummy": 0,
            }
        )

    def run(
        self,
        key: RsaKey,
        ciphertext: List[int],
        hardware: Union[str, MachineEnvironment] = "partitioned",
        params: Optional[MachineParams] = None,
        mitigation: Optional[MitigationState] = None,
        max_steps: int = 50_000_000,
        recorder: Optional[TraceRecorder] = None,
    ) -> ExecutionResult:
        """Decrypt one message; ``result.time`` is the decryption time."""
        return self.compiled.run(self.memory(key, ciphertext), hardware,
                                 params, mitigation, max_steps=max_steps,
                                 recorder=recorder)

    def decrypt_and_check(
        self,
        key: RsaKey,
        ciphertext: List[int],
        hardware: str = "partitioned",
        params: Optional[MachineParams] = None,
    ) -> Tuple[List[int], ExecutionResult]:
        """Decrypt and verify against the Python reference implementation."""
        result = self.run(key, ciphertext, hardware=hardware, params=params)
        plain = [
            result.memory.read_elem("plain", i) for i in range(self.blocks)
        ]
        expected = [decrypt(c, key) for c in ciphertext]
        if plain != expected:
            raise AssertionError(
                f"language-level decryption disagrees with reference: "
                f"{plain} != {expected}"
            )
        return plain, result

    def calibrate_budget(
        self,
        samples: int = 8,
        hardware: str = "partitioned",
        params: Optional[MachineParams] = None,
        seed: int = 20120612,
        headroom: float = 1.10,
    ) -> int:
        """Sec. 8.2: initial prediction = 110% of the average running time
        of the mitigated region, sampled with randomly generated secrets.

        For language-level mitigation the region is one block's
        exponentiation; for system-level it is the whole decryption.
        """
        rng = random.Random(seed)
        probe = RsaSystem(
            lattice=self.lattice,
            key_bits=self.key_bits,
            blocks=self.blocks,
            mitigation_mode="none",
        )
        durations = []
        for index in range(samples):
            key = generate_keypair(self.key_bits, seed=rng.randrange(1 << 30))
            message = [rng.randrange(1, key.n) for _ in range(self.blocks)]
            cipher = encrypt_blocks(message, key)
            result = probe.run(key, cipher, hardware=hardware, params=params)
            if self.mitigation_mode == "system":
                durations.append(result.time)
            else:
                durations.extend(_block_elapsed(result, self.blocks))
        budget = int(headroom * sum(durations) / len(durations))
        self.budget = max(budget, 1)
        self.__post_init__()
        return self.budget


def _block_elapsed(result: ExecutionResult, blocks: int) -> List[int]:
    """Per-block exponentiation times in an unmitigated run, measured from
    each ``c := text[b]`` preprocess event to the block's ``plain`` store."""
    starts = [e.time for e in result.events if e.name == "c"]
    ends = [e.time for e in result.events if e.name == "plain"]
    if len(starts) != blocks or len(ends) != blocks:
        raise AssertionError("unexpected event structure in RSA run")
    return [end - start for start, end in zip(starts, ends)]


def decryption_times(
    system: RsaSystem,
    keys: List[RsaKey],
    messages: List[List[int]],
    hardware: str = "partitioned",
    params: Optional[MachineParams] = None,
) -> List[List[int]]:
    """Fig. 8's measurement: per-key series of decryption times over a
    shared message stream (each message is encrypted under each key)."""
    out = []
    for key in keys:
        series = []
        for message in messages:
            cipher = encrypt_blocks(message, key)
            result = system.run(key, cipher, hardware=hardware,
                                params=params)
            series.append(result.time)
        out.append(series)
    return out
