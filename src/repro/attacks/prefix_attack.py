"""The adaptive prefix-recovery attack on early-exit comparison.

Response time of an early-exit compare grows with the matching prefix, so
an attacker recovers the secret position by position: at each position, try
every symbol and keep the guess that takes *longest* (it matched and pushed
the comparison one position deeper).  Cost: ``length x alphabet`` guesses
instead of ``alphabet ^ length`` -- the exponential-to-linear collapse that
makes timing channels devastating.

Because the channel is direct (loop trip count), the attack works on every
hardware design including the paper's secure ones; only language-level
mitigation defeats it, by collapsing all prefix lengths onto the same
padded duration so the argmax is uninformative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..apps.password import PasswordChecker
from ..hardware import MachineParams
from ..telemetry.recorder import TraceRecorder


@dataclass
class PrefixAttackResult:
    """Outcome of an adaptive recovery attempt."""

    recovered: List[int]
    true_secret: Tuple[int, ...]
    guesses_used: int

    @property
    def correct_prefix(self) -> int:
        """How many leading positions were recovered correctly."""
        count = 0
        for mine, theirs in zip(self.recovered, self.true_secret):
            if mine != theirs:
                break
            count += 1
        return count

    @property
    def succeeded(self) -> bool:
        return tuple(self.recovered) == self.true_secret


def _response_time(
    checker: PasswordChecker,
    stored: Sequence[int],
    guess: Sequence[int],
    hardware: str,
    params: Optional[MachineParams],
    recorder: Optional[TraceRecorder] = None,
) -> int:
    result = checker.run(stored, guess, hardware=hardware, params=params,
                         recorder=recorder)
    # The attacker observes the public 'done' update.
    return next(e.time for e in result.events if e.name == "done")


def recover_password(
    checker: PasswordChecker,
    stored: Sequence[int],
    alphabet: int = 16,
    hardware: str = "partitioned",
    params: Optional[MachineParams] = None,
    filler: int = 0,
    recorder: Optional[TraceRecorder] = None,
) -> PrefixAttackResult:
    """Adaptive position-by-position recovery via response timing.

    ``alphabet`` is the symbol range [0, alphabet); ``filler`` pads the
    yet-unknown tail of each probe.  On an unmitigated checker this
    recovers the whole secret with ``length * alphabet`` probes; on a
    mitigated one the timings are flat and the recovered string is
    garbage (the argmax ties break arbitrarily toward the first symbol).

    ``recorder`` (see :mod:`repro.telemetry`) observes every victim run
    and receives one ``attack_sample`` per guess -- the response time the
    adversary saw -- plus summary ``attack_stat`` records at the end.
    """
    observing = recorder is not None
    length = checker.length
    recovered: List[int] = []
    guesses = 0
    for position in range(length):
        # Signal direction: a correct symbol at positions 0..length-2 pushes
        # the loop deeper (slower).  At the final position the trip count
        # is the same either way, but a *mismatch* executes the extra
        # ``ok := 0`` -- so there the correct symbol is the fastest.
        want_max = position < length - 1
        best_symbol = 0
        best_time: Optional[int] = None
        for symbol in range(alphabet):
            probe = list(recovered) + [symbol]
            probe += [filler] * (length - len(probe))
            elapsed = _response_time(checker, stored, probe, hardware,
                                     params, recorder=recorder)
            guesses += 1
            if observing:
                recorder.on_attack_sample(
                    "prefix", f"pos{position}.sym{symbol}", elapsed
                )
            better = (
                best_time is None
                or (elapsed > best_time if want_max else elapsed < best_time)
            )
            if better:
                best_time = elapsed
                best_symbol = symbol
        recovered.append(best_symbol)
    outcome = PrefixAttackResult(
        recovered=recovered,
        true_secret=tuple(stored),
        guesses_used=guesses,
    )
    if observing:
        recorder.on_attack_stat("prefix", "guesses", outcome.guesses_used)
        recorder.on_attack_stat("prefix", "correct_prefix",
                                outcome.correct_prefix)
        recorder.on_attack_stat("prefix", "succeeded",
                                int(outcome.succeeded))
    return outcome
