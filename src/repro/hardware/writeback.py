"""Adversarial model: a write-back partitioned cache.

**Violates Property 6 (read label).**

The Sec. 4.3 design implicitly assumes write-*through* caches: once a line
is resident, its partition never owes memory anything.  Real caches are
write-back: a store marks the line dirty, and the dirty data must be
written to memory when the line is reclaimed.  This model adds that
mechanic to the partitioned design with an *eager drain* controller: when
a step at timing label ``l`` touches a cache set, the controller writes
back every conflicting dirty line in the partitions ``l`` may install
into (all ``q`` with ``l <= q``), charging a write-back penalty per line
drained.

The leak: a *low* read that maps to a set where the *high* partition
holds dirty lines pays extra write-back cycles.  High-context stores thus
modulate low read latency -- cost depends on state **above** the read
label, breaking Property 6.  (The state changes themselves are legal:
clearing dirty bits at ``q >= l`` is exactly what Property 5 permits for
``lw = l``, which is what makes this bug easy to ship -- the design looks
write-label-disciplined and still leaks through timing.)

Properties 2, 5, and 7 hold: dirty bookkeeping at each level is a
deterministic function of the trace and of state the level may depend on.
Dirty tags at level ``q`` are part of the ``q`` projection -- they are
real per-partition state.
"""

from __future__ import annotations

from typing import Dict, Hashable, Set

from ..lattice import Label, Lattice
from ..machine.layout import AccessTrace
from .interface import StepKind
from .params import MachineParams
from .partitioned import PartitionedHardware


class WriteBackHardware(PartitionedHardware):
    """Partitioned caches with dirty lines and eager cross-level drains."""

    #: Cycles to write one dirty line back to memory.
    WRITEBACK_PENALTY = 40

    def __init__(self, lattice: Lattice, params: MachineParams = None):
        super().__init__(lattice, params)
        levels = lattice.levels()
        #: Dirty data blocks per level (block numbers, L1-data granularity).
        self._dirty: Dict[Label, Set[int]] = {level: set() for level in levels}
        #: Per timing label, the levels a step may drain (``label <= q``).
        self._drains = {
            label: tuple(q for q in levels if label.flows_to(q))
            for label in levels
        }

    def step(
        self,
        kind: StepKind,
        trace: AccessTrace,
        read_label: Label,
        write_label: Label,
    ) -> int:
        cost = super().step(kind, trace, read_label, write_label)
        if read_label is not write_label:
            # Bypassed steps (lr != lw) never use the cache, so they never
            # reclaim lines and owe no write-backs.
            return cost
        _, reads, writes, _ = trace
        addresses = (*reads, *writes)
        if not addresses:
            return cost
        block_bytes = self.params.l1_data.block_bytes
        sets = self.params.l1_data.sets
        blocks, touched_sets = set(), set()
        for address in addresses:
            block = address // block_bytes
            blocks.add(block)
            touched_sets.add(block % sets)
        drained = 0
        for q in self._drains[read_label]:
            dirty = self._dirty[q]
            if dirty:
                conflicts = [
                    block for block in dirty
                    if block % sets in touched_sets and block not in blocks
                ]
                dirty.difference_update(conflicts)
                drained += len(conflicts)
        own = self._dirty[read_label]
        for address in writes:
            own.add(address // block_bytes)
        return cost + drained * self.WRITEBACK_PENALTY

    def reset(self) -> None:
        super().reset()
        for dirty in self._dirty.values():
            dirty.clear()

    def project(self, level: Label) -> Hashable:
        return (super().project(level), tuple(sorted(self._dirty[level])))

    def clone(self) -> "WriteBackHardware":
        twin = super().clone()
        twin._dirty = {level: set(s) for level, s in self._dirty.items()}
        return twin
