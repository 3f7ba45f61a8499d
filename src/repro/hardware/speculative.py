"""Adversarial model: speculative execution with a shared predictor.

**Violates Property 6 (read label) and Property 7 (single-step NI).**

The partitioned design of Sec. 4.3 gives every level its own branch
predictor.  This model instead ships what commodity cores actually have: a
single front-end with *one* branch predictor shared by every security
level, plus speculative instruction fetch down the predicted path.

Two leaks, mirroring Spectre-style transient-execution channels:

* **Property 6**: a branch step's cost includes a flush penalty when the
  shared predictor mispredicts.  The predictor is trained by *every*
  branch, including high-labeled ones, so the cost of a low branch depends
  on state above the read label (the counters high code trained).

* **Property 7**: on a mispredict, the fetches issued down the wrong path
  during the mispredict window are squashed -- the model evicts the
  wrong-path instruction blocks from the stepping level's own I-cache
  partition.  Whether that eviction happens depends on the shared
  predictor; two environments that are ``~L``-equivalent but differ in
  (high-trained) predictor state end the same low step with *different*
  low partition contents, breaking single-step noninterference.

Properties 2 and 5 hold: everything is deterministic, and the global
predictor table is filed at lattice top (every write label may train it).
"""

from __future__ import annotations

from typing import Dict, Hashable

from ..lattice import Label, Lattice
from ..machine.layout import AccessTrace
from .hierarchy import BRANCH_KEYS
from .interface import StepKind
from .params import MachineParams
from .partitioned import PartitionedHardware

#: Bytes per instruction slot (mirrors repro.machine.layout.INSTR_BYTES).
_INSTR_BYTES = 8


class SpeculativeHardware(PartitionedHardware):
    """Partitioned caches behind one speculative, shared front-end."""

    #: Pipeline flush cost on a mispredict.
    FLUSH_PENALTY = 12
    #: Instruction blocks fetched (then squashed) in the mispredict window.
    WINDOW = 2

    def __init__(self, lattice: Lattice, params: MachineParams = None):
        super().__init__(lattice, params)
        #: One global 2-bit counter table: branch address -> 0..3.
        #: Initialized weakly-not-taken (1) on first use.
        self._counters: Dict[int, int] = {}

    def step(
        self,
        kind: StepKind,
        trace: AccessTrace,
        read_label: Label,
        write_label: Label,
    ) -> int:
        cost = super().step(kind, trace, read_label, write_label)
        instruction, _, _, taken = trace
        if taken is None:
            return cost
        counter = self._counters.get(instruction, 1)
        predicted_taken = counter >= 2
        if self.hw is not None:
            self.hw[BRANCH_KEYS[predicted_taken == taken]] += 1
        # Label-oblivious training: every level writes the shared table.
        self._counters[instruction] = (
            min(3, counter + 1) if taken else max(0, counter - 1)
        )
        if predicted_taken == taken:
            return cost
        # Mispredict: flush the pipeline and squash the window of
        # wrong-path fetches from the stepping level's own I-cache.
        cost += self.FLUSH_PENALTY
        if read_label is write_label:
            own = self.partitions[read_label]
            for i in range(1, self.WINDOW + 1):
                own.evict_inst(instruction + i * _INSTR_BYTES)
        return cost

    def reset(self) -> None:
        super().reset()
        self._counters.clear()

    def project(self, level: Label) -> Hashable:
        base = super().project(level)
        if level == self.lattice.top:
            return (base, tuple(sorted(self._counters.items())))
        return base

    def clone(self) -> "SpeculativeHardware":
        twin = super().clone()
        twin._counters = dict(self._counters)
        return twin
