"""The software/hardware contract interface.

This is the paper's central abstraction made executable: a
:class:`MachineEnvironment` is the ``E`` component of full-semantics
configurations ``(c, m, E, G)`` -- *all hardware state invisible at the
language level that is needed to predict timing* (Sec. 2.1).

The full semantics interacts with the environment through exactly one
operation, :meth:`MachineEnvironment.step`, and hands it exactly three
things about the executing command:

* an :class:`~repro.machine.layout.AccessTrace` (the instruction-fetch
  address and resolved data addresses) -- *addresses, never values*;
* the command's read label ``lr`` and write label ``lw``;
* a :class:`StepKind` so the model can charge different base costs.

That narrow interface is deliberate.  Property 6 says a step's duration may
depend only on the values of ``vars1`` and on environment state at or below
``lr``; since the environment never sees values at all (only addresses
derived from ``vars1`` values by the static layout), the interface makes the
"nothing else can matter" half structural, and each hardware design only has
to get the ``lr``/``lw`` discipline right.  The executable checkers in
:mod:`repro.hardware.contract` then validate Properties 2 and 5-7 against
any implementation -- the paper's claim that "implementers may verify that
their compiler and architecture designs control timing channels".

Projections: :meth:`MachineEnvironment.project` returns a hashable view of
the state at exactly one level, defining projected equivalence ``E1 =l= E2``
(Sec. 3.4); ``l``-equivalence follows by conjunction over all levels below.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Hashable, Iterable, Optional

from ..lattice import Label, Lattice
from ..machine.layout import AccessTrace
from ..telemetry.recorder import TraceRecorder


class StepKind(enum.Enum):
    """What sort of language step is being charged."""

    SKIP = "skip"
    ASSIGN = "assign"
    BRANCH = "branch"  # if / while guard evaluation
    MITIGATE = "mitigate"  # mitigate-head: budget evaluation
    SLEEP = "sleep"
    INTERNAL = "internal"  # mitigation-runtime bookkeeping, labeled [bot, top]


class MachineEnvironment(ABC):
    """Abstract machine environment: the hardware side of the contract."""

    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        #: Telemetry seam (see :mod:`repro.telemetry`): models report
        #: cache/TLB/branch hit-miss classifications here, guarded by
        #: ``recorder is not None`` so an unobserved run costs nothing.
        self.recorder: Optional[TraceRecorder] = None

    def attach_recorder(self, recorder: Optional[TraceRecorder]) -> None:
        """Attach a trace recorder (``None`` detaches).  Models with
        internal components that classify hits and misses themselves
        override this to propagate the recorder (recording is passive:
        attaching never changes timing)."""
        self.recorder = recorder

    @abstractmethod
    def step(
        self,
        kind: StepKind,
        trace: AccessTrace,
        read_label: Label,
        write_label: Label,
    ) -> int:
        """Charge one evaluation step and update the environment.

        Returns the step's cost in cycles.  Implementations must honour the
        contract:

        * Property 5 (write label): state at any level ``l`` with
          ``lw !<= l`` must be unchanged.
        * Property 6 (read label): the returned cost may depend only on
          state at levels ``<= lr`` (and on the given trace/kind).
        * Property 7 (single-step noninterference): for every level ``l``,
          the post-state at levels ``<= l`` must be a function of the
          pre-state at levels ``<= l`` and the trace.
        """

    @abstractmethod
    def project(self, level: Label) -> Hashable:
        """State at exactly ``level`` -- the paper's ``E``-projection."""

    @abstractmethod
    def clone(self) -> "MachineEnvironment":
        """An independent deep copy (for pairwise property checking)."""

    # -- derived operations --------------------------------------------------

    def view(self, level: Label) -> Hashable:
        """State at ``level`` and below: the basis of ``~level``."""
        return tuple(
            (l.name, self.project(l))
            for l in self.lattice.levels()
            if l.flows_to(level)
        )

    def equivalent_to(self, other: "MachineEnvironment", level: Label) -> bool:
        """``self ~level other``: projected-equal at every level below."""
        return all(
            self.project(l) == other.project(l)
            for l in self.lattice.levels()
            if l.flows_to(level)
        )

    def projected_equal(
        self, other: "MachineEnvironment", level: Label
    ) -> bool:
        """``self =level= other``."""
        return self.project(level) == other.project(level)

    def full_state(self) -> Hashable:
        """Complete state snapshot (all levels)."""
        return tuple(
            (l.name, self.project(l)) for l in self.lattice.levels()
        )

    def warm_up(self, traces: Iterable[AccessTrace], read_label: Label,
                write_label: Label) -> None:
        """Run a sequence of accesses to warm the environment (no cost kept)."""
        for trace in traces:
            self.step(StepKind.ASSIGN, trace, read_label, write_label)
