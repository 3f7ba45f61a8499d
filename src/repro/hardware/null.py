"""The null machine environment: a fixed-cost abstract machine.

This is the implicit hardware model of prior language-based work (Sec. 9):
every step takes a constant number of cycles determined only by the kind of
command, so there is *no* machine-environment state at all.  It trivially
satisfies Properties 2 and 5-7, and it is useful as a baseline that isolates
direct timing dependencies (control flow, ``sleep``) from indirect ones
(caches) -- on ``NullHardware`` the Sec. 2.1 data-cache example leaks
nothing, while on :class:`~repro.hardware.standard.StandardHardware` it does.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from ..lattice import Label, Lattice
from ..machine.layout import AccessTrace
from .interface import MachineEnvironment, StepKind

#: Default per-kind costs, in cycles.  Arbitrary but distinct from zero so
#: that run time still accumulates.
DEFAULT_COSTS: Dict[StepKind, int] = {
    StepKind.SKIP: 1,
    StepKind.ASSIGN: 2,
    StepKind.BRANCH: 2,
    StepKind.MITIGATE: 2,
    StepKind.SLEEP: 0,  # sleep's duration is charged by the semantics itself
    StepKind.INTERNAL: 0,
}


class NullHardware(MachineEnvironment):
    """A stateless machine environment with fixed per-kind step costs."""

    def __init__(
        self, lattice: Lattice, costs: Optional[Dict[StepKind, int]] = None
    ):
        super().__init__(lattice)
        self.costs = dict(DEFAULT_COSTS)
        if costs:
            self.costs.update(costs)

    def step(
        self,
        kind: StepKind,
        trace: AccessTrace,
        read_label: Label,
        write_label: Label,
    ) -> int:
        # Charge per data access so that expression size is still reflected
        # in time (one cycle per operand touch), but never consult state.
        _, reads, writes, _ = trace
        return self.costs[kind] + len(reads) + len(writes)

    def project(self, level: Label) -> Hashable:
        return ()

    def clone(self) -> "NullHardware":
        return type(self)(self.lattice, self.costs)
