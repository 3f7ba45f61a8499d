"""Statically partitioned caches and TLBs (Sec. 4.3).

The paper's more efficient secure design gives every security level its own
static partition of each cache and TLB, and steers accesses by a *timing
label* that software provides (our implementation receives the read/write
labels directly; the paper encodes them in a new register).  For the
two-level lattice the behaviour is exactly the paper's:

* timing label H: both partitions are searched; on a miss, the line is
  installed in the H partition.  A hit in the L partition is served
  *silently* (no LRU promotion -- an H-labeled step may not modify L state,
  Property 5).
* timing label L: only the L partition is searched.  On an L miss the
  controller installs the line in the L partition; if the line already lived
  in the H partition it is *moved* (removed from H -- allowed, since
  ``L <= H``), and the hardware makes the move take exactly as long as a
  real miss, so timing reveals nothing about H state (Property 6).

The generalization to an arbitrary lattice, implemented here with timing
label ``l``:

* partitions at levels ``p <= l`` are searched (cheapest hit wins);
* a hit in partition ``p`` is LRU-promoted only when ``p = l`` (for
  ``p < l``, promotion would modify state below the write label);
* a miss installs into partition ``l`` and evicts the line from every
  partition strictly above ``l`` (single-copy consistency; eviction at
  ``q >= l`` is permitted by Property 5 because ``lw = l <= q``), always at
  full miss cost.

Like commodity caches (Sec. 5.1), the design needs ``lr = lw`` to use the
cache: a read must be able to promote/install at its own level.  Steps
arriving with ``lr != lw`` are served *bypassed* -- constant full-miss cost,
no state change -- which is trivially secure.  The type system offers
``require_cache_labels`` to reject such programs instead (Sec. 8.1 treats
``lr = lw`` as an extra side condition).
"""

from __future__ import annotations

from typing import Dict, Hashable

from ..lattice import Label, Lattice
from ..machine.layout import AccessTrace
from .cache import Cache
from .hierarchy import Hierarchy
from .interface import MachineEnvironment, StepKind
from .params import MachineParams, paper_machine
from .tlb import Tlb


class PartitionedHardware(MachineEnvironment):
    """One cache/TLB partition per lattice level, with single-copy moves."""

    def __init__(self, lattice: Lattice, params: MachineParams = None):
        super().__init__(lattice)
        self.params = params if params is not None else paper_machine()
        self.partitions: Dict[Label, Hierarchy] = {
            level: Hierarchy(self.params) for level in lattice.levels()
        }

    def attach_recorder(self, recorder) -> None:
        """Propagate the telemetry recorder to every partition (the
        per-level branch predictors classify inside the hierarchy)."""
        super().attach_recorder(recorder)
        for hierarchy in self.partitions.values():
            hierarchy.recorder = recorder

    # -- the partitioned access algorithm ------------------------------------

    def _partitioned_access(
        self, address: int, label: Label, instruction: bool
    ) -> int:
        """One access with timing label ``label``; returns its cost.

        Split into a TLB stage and a cache stage so variant designs (the
        zoo's leaky-TLB model, future vectorized fast models) can replace
        one stage without re-implementing the other.
        """
        return self._tlb_access(address, label, instruction) + \
            self._cache_access(address, label, instruction)

    def _tlb_access(
        self, address: int, label: Label, instruction: bool
    ) -> int:
        """Address translation with timing label ``label``.

        A hit in any partition at or below ``label`` is free; a miss walks
        the page table and installs into the own-level partition.
        """
        searched = [
            p for p in self.lattice.levels() if p.flows_to(label)
        ]
        own = self.partitions[label]
        if instruction:
            tlb_of = lambda h: h.inst_tlb  # noqa: E731
        else:
            tlb_of = lambda h: h.data_tlb  # noqa: E731

        cost = 0
        tlb_hit = None
        for p in searched:
            if tlb_of(self.partitions[p]).lookup(address):
                tlb_hit = p
                break
        if self.recorder is not None:
            self.recorder.on_cache_access(
                "itlb" if instruction else "dtlb", tlb_hit is not None
            )
        if tlb_hit is None:
            cost += tlb_of(own).params.miss_penalty
            tlb_of(own).touch(address)
            self._evict_above(address, label, tlb_of)
        elif tlb_hit == label:
            tlb_of(own).touch(address)  # LRU promotion in the own partition
        return cost

    def _cache_access(
        self, address: int, label: Label, instruction: bool
    ) -> int:
        """The L1/L2 stage of one access with timing label ``label``."""
        searched = [
            p for p in self.lattice.levels() if p.flows_to(label)
        ]
        own = self.partitions[label]
        if instruction:
            l1_of = lambda h: h.l1_inst  # noqa: E731
            l2_of = lambda h: h.l2_inst  # noqa: E731
        else:
            l1_of = lambda h: h.l1_data  # noqa: E731
            l2_of = lambda h: h.l2_data  # noqa: E731

        recorder = self.recorder
        cache_side = "i" if instruction else "d"

        cost = 0
        # L1 search across all partitions at or below the timing label.
        l1_params = l1_of(own).params
        l2_params = l2_of(own).params
        cost += l1_params.latency
        l1_hit = None
        for p in searched:
            if l1_of(self.partitions[p]).lookup(address):
                l1_hit = p
                break
        if recorder is not None:
            recorder.on_cache_access(f"l1{cache_side}", l1_hit is not None)
        if l1_hit is not None:
            if l1_hit == label:
                l1_of(own).touch(address)
            return cost

        # L1 miss: search L2 the same way.
        cost += l2_params.latency
        l2_hit = None
        for p in searched:
            if l2_of(self.partitions[p]).lookup(address):
                l2_hit = p
                break
        if recorder is not None:
            recorder.on_cache_access(f"l2{cache_side}", l2_hit is not None)
        if l2_hit is not None:
            if l2_hit == label:
                l2_of(own).touch(address)
            l1_of(own).touch(address)
            self._evict_above(address, label, l1_of)
            return cost

        # Full miss: the controller either fetches from memory or moves the
        # line from a strictly-higher partition; both take the full miss
        # latency so that timing is independent of unsearched state.
        cost += self.params.memory_latency
        l2_of(own).touch(address)
        l1_of(own).touch(address)
        self._evict_above(address, label, l1_of)
        self._evict_above(address, label, l2_of)
        return cost

    def _evict_above(self, address: int, label: Label, component_of) -> None:
        """Single-copy consistency: drop the entry from partitions strictly
        above ``label`` (permitted by Property 5 since ``lw = label <= q``)."""
        for q in self.lattice.levels():
            if q != label and label.flows_to(q):
                component_of(self.partitions[q]).evict(address)

    # -- the contract interface ------------------------------------------------

    def step(
        self,
        kind: StepKind,
        trace: AccessTrace,
        read_label: Label,
        write_label: Label,
    ) -> int:
        cost = self.params.execute_cost
        if read_label != write_label:
            # The cache can only be used when lr = lw (Sec. 5.1); other
            # steps bypass it entirely at worst-case cost.
            reference = self.partitions[self.lattice.bottom]
            cost += reference.inst_miss_cost()
            cost += reference.data_miss_cost() * (
                len(trace.reads) + len(trace.writes)
            )
            if self.recorder is not None:
                self.recorder.on_bypass(
                    1 + len(trace.reads) + len(trace.writes)
                )
            if trace.taken is not None and self.params.branch is not None:
                cost += self.params.branch.penalty  # flat worst case
            return cost
        label = read_label
        cost += self._partitioned_access(
            trace.instruction, label, instruction=True
        )
        if trace.taken is not None:
            # Each level owns a private predictor: reads and training stay
            # at exactly the step's own level.
            cost += self.partitions[label].branch_cost(
                trace.instruction, trace.taken
            )
        for address in trace.reads:
            cost += self._partitioned_access(address, label, instruction=False)
        for address in trace.writes:
            cost += self._partitioned_access(address, label, instruction=False)
        return cost

    def project(self, level: Label) -> Hashable:
        return self.partitions[level].state()

    def clone(self) -> "PartitionedHardware":
        twin = type(self)(self.lattice, self.params)
        twin.partitions = {
            level: hierarchy.clone()
            for level, hierarchy in self.partitions.items()
        }
        return twin
