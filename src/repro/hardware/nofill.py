"""The no-fill realization on standard hardware (Sec. 4.2).

Intel Pentium/Xeon processors expose a *no-fill* mode in which memory
accesses are served directly from memory on cache misses, with no evictions
from nor filling of the cache.  The paper's first secure design treats the
whole (single) cache hierarchy as *low* and runs every command whose write
label is not public in no-fill mode; the compiler brackets such blocks with
no-fill enter/exit instructions.  Here the mode switch is driven directly by
the write label each step hands the environment.

Concretely, a step with ``lw = bottom`` behaves like commodity hardware
(fills and promotes); any other write label gets:

* misses served at full memory cost with *no* installation (Property 5:
  nothing at bottom is modified);
* hits served silently -- data is returned at hit latency, but LRU state is
  *not* promoted, since replacement state is timing-visible state too.

Property 6 holds for every read label because all environment state sits at
bottom.  Property 7 holds because public accesses update the cache as a
function of the trace and prior public state only.  The price is
performance: high contexts never benefit from warming the cache, which is
why the partitioned design (Sec. 4.3) exists.
"""

from __future__ import annotations

from typing import Hashable

from ..lattice import Label, Lattice
from ..machine.layout import AccessTrace
from .hierarchy import Hierarchy
from .interface import MachineEnvironment, StepKind
from .params import MachineParams, paper_machine


class NoFillHardware(MachineEnvironment):
    """A single low hierarchy; non-public write labels run in no-fill mode."""

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
        fill = write_label is self.lattice.bottom
        cost = self.params.execute_cost
        cost += hierarchy.inst_fetch(instruction, fill=fill)
        if taken is not None:
            # Branches in non-public contexts may read the (public)
            # predictor but must not train it -- the branch-predictor
            # analogue of no-fill mode.
            cost += hierarchy.branch_cost(instruction, taken, train=fill)
        for address in reads:
            cost += hierarchy.data_access(address, fill=fill)
        for address in writes:
            cost += hierarchy.data_access(address, fill=fill)
        return cost

    def project(self, level: Label) -> Hashable:
        if level == self.lattice.bottom:
            return self.hierarchy.state()
        return ()

    def clone(self) -> "NoFillHardware":
        twin = type(self)(self.lattice, self.params)
        twin.hierarchy = self.hierarchy.clone()
        return twin
