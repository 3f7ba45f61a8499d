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
        #: Dirty data blocks per level (block numbers, L1-data granularity).
        self._dirty: Dict[Label, Set[int]] = {
            level: set() for level in lattice.levels()
        }

    # -- block/set arithmetic (L1-data geometry) -----------------------------

    def _block(self, address: int) -> int:
        return address // self.params.l1_data.block_bytes

    def _set_of_block(self, block: int) -> int:
        return block % self.params.l1_data.sets

    def step(
        self,
        kind: StepKind,
        trace: AccessTrace,
        read_label: Label,
        write_label: Label,
    ) -> int:
        cost = super().step(kind, trace, read_label, write_label)
        if read_label != write_label:
            # Bypassed steps (lr != lw) never use the cache, so they never
            # reclaim lines and owe no write-backs.
            return cost
        label = read_label
        touched_sets = {
            self._set_of_block(self._block(a))
            for a in (*trace.reads, *trace.writes)
        }
        touched_blocks = {
            self._block(a) for a in (*trace.reads, *trace.writes)
        }
        drained = 0
        if touched_sets:
            for q in self.lattice.levels():
                if not label.flows_to(q):
                    continue
                dirty = self._dirty[q]
                conflicts = [
                    block for block in dirty
                    if self._set_of_block(block) in touched_sets
                    and block not in touched_blocks
                ]
                for block in conflicts:
                    dirty.discard(block)
                drained += len(conflicts)
        for address in trace.writes:
            self._dirty[label].add(self._block(address))
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
