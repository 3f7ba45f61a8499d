"""A full cache/TLB hierarchy: L1+L2 instruction and data caches plus TLBs.

Both the single-hierarchy designs (:mod:`repro.hardware.standard`,
:mod:`repro.hardware.nofill`) and each partition of the partitioned design
(:mod:`repro.hardware.partitioned`) are instances of this class.

Cost model for one access (data side; instruction side is symmetric)::

    cost = tlb_miss_penalty?            (30 cycles on D-TLB/I-TLB miss)
         + L1 latency                   (always paid)
         + L2 latency                   (only on L1 miss)
         + memory latency               (only on L2 miss)

``fill`` controls whether misses install new lines (the no-fill design runs
high-context accesses with ``fill=False``); ``promote`` controls whether hits
update LRU state (a *silent hit* with ``promote=False`` serves data without
perturbing replacement state, which Property 5 requires when the write label
does not flow to the partition's level).
"""

from __future__ import annotations

from typing import Hashable, Optional, Tuple

from ..telemetry.recorder import TraceRecorder
from .branch import BranchPredictor
from .cache import Cache
from .params import MachineParams
from .tlb import Tlb


class Hierarchy:
    """One complete set of caches and TLBs with a shared cost model."""

    def __init__(self, params: MachineParams):
        self.params = params
        #: Telemetry seam: hit/miss classifications go here when a
        #: recorder is attached (see :mod:`repro.telemetry`).  Clones start
        #: detached so pairwise contract checks never double-record.
        self.recorder: Optional[TraceRecorder] = None
        self.l1_data = Cache(params.l1_data)
        self.l2_data = Cache(params.l2_data)
        self.l1_inst = Cache(params.l1_inst)
        self.l2_inst = Cache(params.l2_inst)
        self.data_tlb = Tlb(params.data_tlb)
        self.inst_tlb = Tlb(params.inst_tlb)
        self.branch = (
            BranchPredictor(params.branch) if params.branch else None
        )

    # -- generic two-level access ----------------------------------------------

    def _access(
        self,
        tlb: Tlb,
        l1: Cache,
        l2: Cache,
        address: int,
        fill: bool,
        promote: bool,
        side: str = "d",
    ) -> int:
        recorder = self.recorder
        cost = 0
        tlb_hit = tlb.lookup(address)
        if recorder is not None:
            recorder.on_cache_access(f"{side}tlb", tlb_hit)
        if tlb_hit:
            if promote:
                tlb.touch(address)
        else:
            cost += tlb.params.miss_penalty
            if fill:
                tlb.touch(address)
        cost += l1.params.latency
        l1_hit = l1.lookup(address)
        if recorder is not None:
            recorder.on_cache_access(f"l1{side}", l1_hit)
        if l1_hit:
            if promote:
                l1.touch(address)
            return cost
        cost += l2.params.latency
        l2_hit = l2.lookup(address)
        if recorder is not None:
            recorder.on_cache_access(f"l2{side}", l2_hit)
        if l2_hit:
            if promote:
                l2.touch(address)
            if fill:
                l1.touch(address)
            return cost
        cost += self.params.memory_latency
        if fill:
            l2.touch(address)
            l1.touch(address)
        return cost

    def branch_cost(self, address: int, taken: bool,
                    train: bool = True) -> int:
        """Misprediction penalty for a resolved branch (0 when the
        predictor component is disabled); optionally trains the counter."""
        if self.branch is None:
            return 0
        if self.recorder is not None:
            # predict() is pure, so classifying before resolving is safe.
            self.recorder.on_branch(
                taken, self.branch.predict(address) != taken
            )
        return self.branch.resolve(address, taken, train=train)

    def data_access(self, address: int, fill: bool = True,
                    promote: bool = True) -> int:
        """One data read or write; returns its cost in cycles."""
        return self._access(
            self.data_tlb, self.l1_data, self.l2_data, address, fill, promote,
            side="d",
        )

    def inst_fetch(self, address: int, fill: bool = True,
                   promote: bool = True) -> int:
        """One instruction fetch; returns its cost in cycles."""
        return self._access(
            self.inst_tlb, self.l1_inst, self.l2_inst, address, fill, promote,
            side="i",
        )

    # -- worst-case costs (used by the partitioned design's bypass path) --------

    def data_miss_cost(self) -> int:
        """Cost of a data access that misses everywhere."""
        return (
            self.params.data_tlb.miss_penalty
            + self.params.l1_data.latency
            + self.params.l2_data.latency
            + self.params.memory_latency
        )

    def inst_miss_cost(self) -> int:
        """Cost of an instruction fetch that misses everywhere."""
        return (
            self.params.inst_tlb.miss_penalty
            + self.params.l1_inst.latency
            + self.params.l2_inst.latency
            + self.params.memory_latency
        )

    # -- presence / consistency helpers -------------------------------------------

    def holds_data(self, address: int) -> bool:
        """Is the block in either data-cache level?"""
        return self.l1_data.lookup(address) or self.l2_data.lookup(address)

    def evict_data(self, address: int) -> None:
        """Remove the block from both data-cache levels (single-copy move)."""
        self.l1_data.evict(address)
        self.l2_data.evict(address)

    def holds_inst(self, address: int) -> bool:
        """Is the block in either instruction-cache level?"""
        return self.l1_inst.lookup(address) or self.l2_inst.lookup(address)

    def evict_inst(self, address: int) -> None:
        """Remove the block from both instruction-cache levels."""
        self.l1_inst.evict(address)
        self.l2_inst.evict(address)

    # -- snapshots -------------------------------------------------------------------

    def state(self) -> Hashable:
        """Hashable snapshot of every cache, TLB, and predictor."""
        return (
            self.l1_data.state(),
            self.l2_data.state(),
            self.l1_inst.state(),
            self.l2_inst.state(),
            self.data_tlb.state(),
            self.inst_tlb.state(),
            self.branch.state() if self.branch is not None else (),
        )

    def clone(self) -> "Hierarchy":
        """An independent deep copy of every component."""
        twin = Hierarchy(self.params)
        twin.l1_data = self.l1_data.clone()
        twin.l2_data = self.l2_data.clone()
        twin.l1_inst = self.l1_inst.clone()
        twin.l2_inst = self.l2_inst.clone()
        twin.data_tlb = self.data_tlb.clone()
        twin.inst_tlb = self.inst_tlb.clone()
        twin.branch = self.branch.clone() if self.branch is not None else None
        return twin

    def components(self) -> Tuple:
        """The six components, for tests that poke at internals."""
        return (
            self.l1_data,
            self.l2_data,
            self.l1_inst,
            self.l2_inst,
            self.data_tlb,
            self.inst_tlb,
        )
