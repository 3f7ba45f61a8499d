"""A branch predictor: the machine-environment component behind BTB attacks.

Sec. 2.1 of the paper lists "branch predictors and branch target buffers"
(Aciicmez, Koc, Seifert) among the hardware sources of indirect timing
dependencies.  This module models a table of 2-bit saturating counters
indexed by branch (instruction) address.  A predicted branch costs nothing
extra; a misprediction costs a pipeline-flush penalty.

Security treatment mirrors the caches: predictor state is timing-relevant
machine-environment state, so the commodity design shares one table across
all contexts (insecure -- secret-dependent branch *outcomes* train state an
attacker-timed branch aliases with), while the secure designs either
freeze it outside public contexts (no-fill) or give every level its own
table (partitioned).

The component is **off by default** (``MachineParams.branch`` is ``None``)
so that the paper's Table 1 configuration stays exactly as published;
enable it with ``MachineParams(branch=BranchPredictorParams())``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: 2-bit saturating counter thresholds: 0,1 predict not-taken; 2,3 taken.
_WEAKLY_TAKEN = 2
_MAX_COUNTER = 3


@dataclass(frozen=True)
class BranchPredictorParams:
    """Geometry and penalty of the predictor."""

    entries: int = 512
    #: Pipeline-flush cost of a misprediction, in cycles.
    penalty: int = 3
    #: Initial counter value (1 = weakly not-taken, the usual reset state).
    reset_value: int = 1

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.entries & (self.entries - 1):
            raise ValueError("entries must be a power of two")
        if not 0 <= self.reset_value <= _MAX_COUNTER:
            raise ValueError("reset_value must be a 2-bit counter value")


class BranchPredictor:
    """A table of 2-bit saturating counters indexed by instruction address."""

    def __init__(self, params: BranchPredictorParams):
        self.params = params
        self._counters: List[int] = [params.reset_value] * params.entries

    def _index(self, address: int) -> int:
        # Instruction slots are 8 bytes; drop the offset bits before
        # indexing so consecutive commands map to consecutive entries.
        return (address >> 3) % self.params.entries

    def predict(self, address: int) -> bool:
        """The current prediction for the branch at ``address``."""
        return self._counters[self._index(address)] >= _WEAKLY_TAKEN

    def update(self, address: int, taken: bool) -> None:
        """Train the counter with the resolved outcome."""
        index = self._index(address)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(counter + 1, _MAX_COUNTER)
        else:
            self._counters[index] = max(counter - 1, 0)

    def cost(self, address: int, taken: bool) -> int:
        """The timing contribution of resolving this branch (no update)."""
        return 0 if self.predict(address) == taken else self.params.penalty

    def resolve(self, address: int, taken: bool, train: bool = True) -> int:
        """Cost plus (optionally) training -- one branch's full effect."""
        penalty = self.cost(address, taken)
        if train:
            self.update(address, taken)
        return penalty

    def reset(self) -> None:
        """Return every counter to ``reset_value``."""
        self._counters = [self.params.reset_value] * self.params.entries

    def state(self) -> Tuple[int, ...]:
        """Hashable snapshot for projected equivalence."""
        return tuple(self._counters)

    def clone(self) -> "BranchPredictor":
        twin = BranchPredictor(self.params)
        twin._counters = list(self._counters)
        return twin

    def __repr__(self) -> str:
        trained = sum(
            1 for c in self._counters if c != self.params.reset_value
        )
        return f"BranchPredictor({trained}/{self.params.entries} trained)"
