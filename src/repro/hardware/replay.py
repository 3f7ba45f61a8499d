"""Replaying a reset environment's steps from a step trie.

A machine environment is a deterministic state machine: a step's cost,
its telemetry burst and the next state are functions of the pre-state, the
step kind, the access trace and the labels.  After ``reset()`` the
pre-state is the constructed state, so what a sequence of steps charges
from a reset is a function of the steps alone.  :class:`StepReplay` wraps
a model that is reset before every request (each gateway tenant's) and
keeps the steps taken since resets in a trie: a node per distinct step
sequence, an edge per step, carrying the step's cost and burst.

* ``reset()`` moves to the root; the model's own flush waits.
* ``step`` follows the edge keyed ``(trace, kind value, lr, lw)``: it
  returns the recorded cost and adds the recorded burst into ``hw``, key
  by key in the order the model counted them.
* A step with no edge first brings the model up to date -- a reset, then
  the steps from the root replayed with their counts dropped -- and then
  steps the model live and records the edge.
* Whatever reads the state (``project``, ``clone``, ``hierarchies``)
  brings the model up to date first.

The trie holds at most :data:`NODE_CAP` nodes; past it, steps run live.
Replay is exact because ``reset()`` returns every model to its
constructed state (checked per model by the reset property test).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Tuple

from ..lattice import Label
from ..machine.layout import AccessTrace
from .interface import MachineEnvironment, StepKind

#: The most trie nodes one environment keeps, the root included; a node
#: costs about two hundred bytes.
NODE_CAP = 1 << 14

#: One step's counts, in the order the model made them.
Burst = Tuple[Tuple[str, int], ...]


class StepReplay(MachineEnvironment):
    """``model`` behind a step trie (see the module docstring).  Until
    the first ``reset()`` every step runs live."""

    def __init__(self, model: MachineEnvironment):
        super().__init__(model.lattice)
        self.model = model
        #: The model counts every live step here; its items are the burst.
        self._counts: Dict[str, int] = defaultdict(int)
        model.attach_hw(self._counts)
        #: The trie's edges, ``(node, trace, kind value, lr, lw) -> (cost,
        #: burst, child)``; nodes are numbered from 0, the root.  One flat
        #: dict, not one per node: it holds no reference cycle and costs
        #: little per node.
        self._edges: Dict[tuple, tuple] = {}
        #: The key of the edge into each node, by number (none into the
        #: root): the way back to the root.
        self._into: List[Optional[tuple]] = [None]
        #: The node the run has reached, or ``None`` off the trie (before
        #: the first reset, past the cap, after ``hierarchies()``): then
        #: the model itself is the state.
        self._node: Optional[int] = None
        #: The node whose state the model holds, if any.
        self._synced: Optional[int] = None
        #: One copy of each distinct burst, shared by the edges.
        self._bursts: Dict[Burst, Burst] = {}

    def describe(self) -> str:
        return self.model.describe()

    def attach_hw(self, hw: Optional[Dict[str, int]]) -> None:
        self.hw = hw

    def reset(self) -> None:
        self._node = 0

    def step(
        self,
        kind: StepKind,
        trace: AccessTrace,
        read_label: Label,
        write_label: Label,
    ) -> int:
        node = self._node
        key = (node, trace, kind._value_, read_label, write_label)
        edge = self._edges.get(key)  # never found off the trie
        if edge is not None:
            cost, burst, self._node = edge
            hw = self.hw
            if hw is not None:
                for name, count in burst:
                    hw[name] += count
            return cost
        self._sync()
        self._synced = None  # until the step below returns
        cost = self.model.step(kind, trace, read_label, write_label)
        counts = self._counts
        burst = tuple(counts.items())
        counts.clear()
        hw = self.hw
        if hw is not None:
            for name, count in burst:
                hw[name] += count
        into = self._into
        if node is None or len(into) >= NODE_CAP:
            self._node = None
            return cost
        child = len(into)
        into.append(key)
        self._edges[key] = (cost, self._bursts.setdefault(burst, burst),
                            child)
        self._node = self._synced = child
        return cost

    def _sync(self) -> None:
        """Bring the model to the current node's state: a reset, then the
        steps from the root again, their counts dropped."""
        node = self._node
        if node is None or node == self._synced:
            return
        into, path = self._into, []
        while node:
            key = into[node]
            path.append(key)
            node = key[0]
        model = self.model
        model.reset()
        for _, trace, value, read_label, write_label in reversed(path):
            model.step(StepKind(value), trace, read_label, write_label)
        self._counts.clear()
        self._synced = self._node

    # -- reading the state ---------------------------------------------------

    def hierarchies(self) -> Tuple:
        """The model's hierarchies, up to date.  The caller may change
        them, so the model is the state from here to the next reset."""
        self._sync()
        self._node = self._synced = None
        return self.model.hierarchies()

    def project(self, level: Label) -> Hashable:
        self._sync()
        return self.model.project(level)

    def clone(self) -> MachineEnvironment:
        """An independent copy of the model, up to date (no trie)."""
        self._sync()
        return self.model.clone()
