"""Adversarial model: partitioned caches over one *shared* memory bus.

**Violates Property 6 (read label).**

The Sec. 4.3 partitioned design isolates cache and TLB *state* per level,
but a real SoC still funnels every partition's memory traffic through one
bus and one memory controller.  This model adds that bus: every access any
level performs enqueues transactions, and each step stalls for cycles
proportional to the current queue occupancy before it is served.

The leak: the queue occupancy is a function of *global* traffic, including
steps whose labels sit above the reader.  Two environments that agree on
all state at or below ``lr = L`` but differ in recent high-level activity
charge different stall cycles for the same low step -- exactly what
Property 6 forbids ("the duration may depend only on environment state at
or below the read label").  This is the software-visible face of the bus
and bank contention channels that motivate temporal partitioning in
"Can We Prove Time Protection?" (Ge et al., arXiv:1901.08338).

Properties 2, 5, and 7 still hold: the queue evolves deterministically
from the traffic alone, and it never changes which lines any partition
holds.  The bus occupancy is modeled as state at lattice *top* (no level
below top can observe it directly -- only through timing, which is the
point), so projections at lower levels are untouched.
"""

from __future__ import annotations

from typing import Hashable

from ..lattice import Label, Lattice
from ..machine.layout import AccessTrace
from .interface import StepKind
from .params import MachineParams
from .partitioned import PartitionedHardware


class SharedBusHardware(PartitionedHardware):
    """Partitioned state, shared bandwidth: cross-level stall cycles."""

    #: Stall cycles charged per queued transaction at step start.
    STALL_CYCLES = 2
    #: Transactions the bus retires per step.
    DRAIN_PER_STEP = 1
    #: Occupancy cap (a real queue is finite); keeps costs bounded.
    QUEUE_CAP = 4096

    def __init__(self, lattice: Lattice, params: MachineParams = None):
        super().__init__(lattice, params)
        self._bus_queue = 0

    def step(
        self,
        kind: StepKind,
        trace: AccessTrace,
        read_label: Label,
        write_label: Label,
    ) -> int:
        # Stall behind whatever traffic is already queued -- regardless of
        # who queued it.  This is the Property 6 violation.
        stall = self._bus_queue * self.STALL_CYCLES
        cost = stall + super().step(kind, trace, read_label, write_label)
        _, reads, writes, _ = trace
        traffic = 1 + len(reads) + len(writes)
        self._bus_queue = min(
            self.QUEUE_CAP,
            max(0, self._bus_queue - self.DRAIN_PER_STEP) + traffic,
        )
        return cost

    def reset(self) -> None:
        super().reset()
        self._bus_queue = 0

    def project(self, level: Label) -> Hashable:
        base = super().project(level)
        if level == self.lattice.top:
            # The queue is machine-global state; filing it at top keeps
            # Property 5 intact (every write label flows to top).
            return (base, self._bus_queue)
        return base

    def clone(self) -> "SharedBusHardware":
        twin = super().clone()
        twin._bus_queue = self._bus_queue
        return twin
