"""An early-exit password check: the classic direct timing channel.

The oldest timing attack in the book (it predates even Kocher): comparing a
guess against a stored secret byte-by-byte with early exit makes response
time proportional to the length of the matching prefix, so an adaptive
attacker recovers the secret one position at a time.

Unlike the cache channels, this one is *direct* -- it exists on any
hardware, including the paper's secure designs, because it flows through
control (loop trip count), not through machine-environment state.  That is
the division of labor the paper draws: hardware discharges Properties 5-7,
but only the language level (the type system + ``mitigate``) can handle
direct dependencies.  Accordingly:

* the unmitigated checker is ill-typed (the public ``done`` assignment
  follows secret-dependent timing) and leaks on *every* hardware model;
* wrapping the comparison loop in ``mitigate`` makes it typecheck and
  collapses the per-prefix timings onto the doubling schedule, defeating
  the adaptive attack.

The program::

    i := 0; ok := 1
    mitigate (budget, H) {                  -- omitted when mitigated=False
        while (i < length) && ok {
            if stored[i] != guess[i] { ok := 0 }
            i := i + 1
        };
        match := ok
    }
    done := 1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

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


@dataclass
class PasswordChecker:
    """The early-exit comparison program for a fixed password length."""

    lattice: Lattice = field(default_factory=lambda: DEFAULT_LATTICE)
    length: int = 8
    mitigated: bool = True
    budget: int = 1

    def __post_init__(self) -> None:
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

        # The initializations write high variables (raising the timing
        # end-label to H, cf. T-ASGN), so they live inside the mitigated
        # region, as in the login case study.
        compare_block = b.seq(
            b.assign("i", 0),
            b.assign("ok", 1),
            b.while_(
                (v("i") < self.length).and_(v("ok")),
                b.seq(
                    b.if_(
                        at("stored", v("i")) != at("guess", v("i")),
                        b.assign("ok", 0),
                    ),
                    b.assign("i", v("i") + 1),
                ),
            ),
            b.assign("match", v("ok")),
        )
        block: ast.Command = compare_block
        if self.mitigated:
            block = b.mitigate(self.budget, high, block, mit_id="compare")
        program = b.seq(
            block,
            b.assign("done", 1),
        )
        gamma = SecurityEnvironment(
            lat,
            {
                "guess": lat.bottom,
                "done": lat.bottom,
                "stored": high,
                "ok": high,
                "match": high,
                "i": high,
            },
        )
        return program, gamma

    def memory(self, stored: Sequence[int], guess: Sequence[int]) -> Memory:
        if len(stored) != self.length or len(guess) != self.length:
            raise ValueError(f"password and guess must have length "
                             f"{self.length}")
        return Memory(
            {
                "stored": list(stored),
                "guess": list(guess),
                "i": 0,
                "ok": 0,
                "match": 0,
                "done": 0,
            }
        )

    def run(
        self,
        stored: Sequence[int],
        guess: Sequence[int],
        hardware: Union[str, MachineEnvironment] = "partitioned",
        params: Optional[MachineParams] = None,
        mitigation: Optional[MitigationState] = None,
        max_steps: int = 1_000_000,
        recorder: Optional[TraceRecorder] = None,
    ) -> ExecutionResult:
        return self.compiled.run(self.memory(stored, guess), hardware, params,
                                 mitigation, max_steps=max_steps,
                                 recorder=recorder)

    def matches(self, stored: Sequence[int], guess: Sequence[int]) -> bool:
        """Functional result, via the null machine."""
        result = self.run(stored, guess, hardware="null")
        return result.memory.read("match") == 1
