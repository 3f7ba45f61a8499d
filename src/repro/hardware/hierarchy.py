"""A full cache/TLB hierarchy: L1+L2 instruction and data caches plus TLBs.

Both the single-hierarchy designs (:mod:`repro.hardware.standard`,
:mod:`repro.hardware.nofill`) and each partition of the partitioned design
(:mod:`repro.hardware.partitioned`) are instances of this class.

Cost model for one access (data side; instruction side is symmetric)::

    cost = tlb_miss_penalty?            (30 cycles on D-TLB/I-TLB miss)
         + L1 latency                   (always paid)
         + L2 latency                   (only on L1 miss)
         + memory latency               (only on L2 miss)

``fill`` controls whether an access changes state at all.  With it, each
level is *touched*: one :meth:`~repro.hardware.cache.Cache.touch` both
classifies the access and updates the level (LRU-promote on hit, install
on miss), and a TLB or L1 whose last touch was this block is a hit with
no call at all.  Without it (the no-fill design's high-context accesses),
each level is only looked up: misses are served from memory without
installing, and hits are *silent*, serving data without perturbing
replacement state, which Property 5 requires when the write label does
not flow to the hierarchy's level.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from .branch import BranchPredictor
from .cache import Cache
from .params import MachineParams
from .tlb import Tlb

#: Burst keys of one side's TLB, L1 and L2, each indexed ``[hit]``.
DATA_KEYS = (("dtlb.misses", "dtlb.hits"), ("l1d.misses", "l1d.hits"),
             ("l2d.misses", "l2d.hits"))
INST_KEYS = (("itlb.misses", "itlb.hits"), ("l1i.misses", "l1i.hits"),
             ("l2i.misses", "l2i.hits"))
#: Burst keys of a resolved branch, indexed ``[predicted correctly]``.
BRANCH_KEYS = ("branch.mispredictions", "branch.hits")


class Hierarchy:
    """One complete set of caches and TLBs with a shared cost model."""

    def __init__(self, params: MachineParams):
        self.params = params
        #: The owning environment's telemetry burst, else ``None``.
        #: Clones start detached so contract checks never double-count.
        self.hw: Optional[Dict[str, int]] = None
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
        keys: Tuple[Tuple[str, str], ...],
    ) -> int:
        probe = Cache.touch if fill else Cache.lookup
        hw = self.hw
        # The TLB's and the L1's last-touched block hits, changing nothing.
        tlb_hit = address >> tlb._line_shift == tlb._mru or probe(tlb, address)
        if hw is not None:
            hw[keys[0][tlb_hit]] += 1
        cost = l1.params.latency
        if not tlb_hit:
            cost += tlb.params.miss_penalty
        l1_hit = address >> l1._line_shift == l1._mru or probe(l1, address)
        if hw is not None:
            hw[keys[1][l1_hit]] += 1
        if l1_hit:
            return cost
        cost += l2.params.latency
        l2_hit = probe(l2, address)
        if hw is not None:
            hw[keys[2][l2_hit]] += 1
        if l2_hit:
            return cost
        return cost + self.params.memory_latency

    def branch_cost(self, address: int, taken: bool,
                    train: bool = True) -> int:
        """Misprediction penalty for a resolved branch (0 when the
        predictor component is disabled); optionally trains the counter."""
        if self.branch is None:
            return 0
        if self.hw is not None:
            # predict() is pure, so classifying before resolving is safe.
            self.hw[BRANCH_KEYS[self.branch.predict(address) == taken]] += 1
        return self.branch.resolve(address, taken, train=train)

    def data_access(self, address: int, fill: bool = True) -> int:
        """One data read or write; returns its cost in cycles."""
        return self._access(
            self.data_tlb, self.l1_data, self.l2_data, address, fill,
            DATA_KEYS,
        )

    def inst_fetch(self, address: int, fill: bool = True) -> int:
        """One instruction fetch; returns its cost in cycles."""
        return self._access(
            self.inst_tlb, self.l1_inst, self.l2_inst, address, fill,
            INST_KEYS,
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

    def evict_inst(self, address: int) -> None:
        """Remove the block from both instruction-cache levels."""
        self.l1_inst.evict(address)
        self.l2_inst.evict(address)

    def reset(self) -> None:
        """Empty every cache and TLB and reset the predictor, in place
        (partition routes keep pointing at these components)."""
        for component in (self.l1_data, self.l2_data, self.l1_inst,
                          self.l2_inst, self.data_tlb, self.inst_tlb):
            component.flush()
        if self.branch is not None:
            self.branch.reset()

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
