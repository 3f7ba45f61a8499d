"""Standard commodity hardware (the paper's ``nopar`` baseline).

One shared cache hierarchy, used identically by every command: read and
write labels are ignored, every access fills and promotes.  This is how an
unmodified processor behaves, and it is *insecure*: a command executing in a
high context still installs lines into the (conceptually public) cache, so
confidential control flow imprints on state a low observer can time --
exactly the Sec. 2.1 indirect-dependency example.  The contract checkers in
:mod:`repro.hardware.contract` demonstrate that this model violates
Properties 5 and 7, and the Table 2 / Fig. 7 benchmarks use it as the
``nopar`` column.

All state is considered to sit at the lattice's bottom level (anyone can
probe the shared cache through timing, per the threat model of Sec. 2.1).
"""

from __future__ import annotations

from typing import Hashable

from ..lattice import Label, Lattice
from ..machine.layout import AccessTrace
from .hierarchy import Hierarchy
from .interface import MachineEnvironment, StepKind
from .params import MachineParams, paper_machine


class StandardHardware(MachineEnvironment):
    """A single shared, label-oblivious cache hierarchy."""

    def __init__(self, lattice: Lattice, params: MachineParams = None):
        super().__init__(lattice)
        self.params = params if params is not None else paper_machine()
        self.hierarchy = Hierarchy(self.params)

    def hierarchies(self):
        return (self.hierarchy,)

    def step(
        self,
        kind: StepKind,
        trace: AccessTrace,
        read_label: Label,
        write_label: Label,
    ) -> int:
        instruction, reads, writes, taken = trace
        hierarchy = self.hierarchy
        cost = self.params.execute_cost
        cost += hierarchy.inst_fetch(instruction)
        if taken is not None:
            cost += hierarchy.branch_cost(instruction, taken)
        for address in reads:
            cost += hierarchy.data_access(address)
        for address in writes:
            cost += hierarchy.data_access(address)
        return cost

    def project(self, level: Label) -> Hashable:
        # The whole environment lives at bottom: a coresident adversary can
        # probe the shared cache regardless of clearance.
        if level == self.lattice.bottom:
            return self.hierarchy.state()
        return ()

    def clone(self) -> "StandardHardware":
        twin = type(self)(self.lattice, self.params)
        twin.hierarchy = self.hierarchy.clone()
        return twin
