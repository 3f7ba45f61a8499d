"""Adversarial model: dynamic frequency scaling (DVFS).

**Violates Property 6 (read label).**

Cycle counts are only a safe currency for the contract if a cycle's
wall-clock length is constant.  Real processors throttle: sustained
activity heats the package, power management drops the frequency, and
every instruction -- at every security level -- gets slower.  This model
makes the effect explicit in cycles: a machine-global activity meter sums
all accesses ever performed, and while the meter sits in an odd-numbered
thermal window every step's cost is multiplied by a slowdown factor.

The leak is the Hertzbleed pattern (frequency side channels): high-context
computation advances the global meter, so whether a *low* step runs at
full or throttled speed depends on how much high work preceded it -- cost
as a function of state strictly above the read label, which Property 6
forbids.  No cache state crosses levels at all; the channel lives entirely
in the clock.

Properties 2, 5, and 7 hold: the meter advances deterministically with the
trace, is filed at lattice top (any write label may advance it), and never
alters which lines any partition holds.
"""

from __future__ import annotations

from typing import Hashable

from ..lattice import Label, Lattice
from ..machine.layout import AccessTrace
from .interface import StepKind
from .params import MachineParams
from .partitioned import PartitionedHardware


class FrequencyScalingHardware(PartitionedHardware):
    """Partitioned caches on a core whose clock tracks global activity."""

    #: Accesses per thermal window; odd windows run throttled.
    WINDOW = 8
    #: Cost multiplier while throttled.
    SLOWDOWN = 2

    def __init__(self, lattice: Lattice, params: MachineParams = None):
        super().__init__(lattice, params)
        self._activity = 0

    def step(
        self,
        kind: StepKind,
        trace: AccessTrace,
        read_label: Label,
        write_label: Label,
    ) -> int:
        base = super().step(kind, trace, read_label, write_label)
        throttled = (self._activity // self.WINDOW) % 2 == 1
        _, reads, writes, _ = trace
        self._activity += 1 + len(reads) + len(writes)
        return base * self.SLOWDOWN if throttled else base

    def reset(self) -> None:
        super().reset()
        self._activity = 0

    def project(self, level: Label) -> Hashable:
        base = super().project(level)
        if level == self.lattice.top:
            return (base, self._activity)
        return base

    def clone(self) -> "FrequencyScalingHardware":
        twin = super().clone()
        twin._activity = self._activity
        return twin
