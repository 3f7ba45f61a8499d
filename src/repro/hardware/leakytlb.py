"""Adversarial model: partitioned caches, one shared TLB.

**Violates Property 5 (write label).**

Partitioning the caches is the visible half of the Sec. 4.3 design; this
model "saves area" by leaving the TLBs shared and label-oblivious, the way
commodity cores shared them until Meltdown-era page-table isolation.  Every
access -- at every security level -- probes one global data TLB and one
global instruction TLB, installing and LRU-promoting on behalf of whoever
ran.

The shared TLBs are public state (a coresident adversary can probe them
with its own accesses, so they are filed in the *bottom* projection, like
the whole hierarchy of the ``standard`` model).  A high-labeled step that
walks the page table installs an entry into that public state, modifying
a level its write label cannot reach -- a direct Property 5 violation,
and the mechanism behind TLB side-channel attacks such as TLBleed: the
victim's page working set imprints on translation state the attacker can
time.  With Property 5 gone, the machine-environment noninterference that
Properties 6/7 are meant to compose into (Theorem 1's hardware half) has
nothing to stand on.

Properties 2 holds (everything is deterministic); the per-level cache
partitions themselves remain exactly the secure design.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Hashable

from ..lattice import Label, Lattice
from .params import MachineParams
from .partitioned import PartitionedHardware
from .tlb import Tlb


class LeakyTlbHardware(PartitionedHardware):
    """The Sec. 4.3 cache partitions with commodity shared TLBs."""

    #: Minimum associativity of the shared TLBs.  Sharing "saves area", so
    #: the single TLB is *bigger* than each per-level partition would be --
    #: and a capacious TLB retains the victim's whole page working set,
    #: which is exactly what TLBleed-style probing reads back.
    MIN_WAYS = 8

    def __init__(self, lattice: Lattice, params: MachineParams = None):
        super().__init__(lattice, params)
        self.shared_dtlb = Tlb(
            replace(
                self.params.data_tlb,
                ways=max(self.MIN_WAYS, self.params.data_tlb.ways),
            )
        )
        self.shared_itlb = Tlb(
            replace(
                self.params.inst_tlb,
                ways=max(self.MIN_WAYS, self.params.inst_tlb.ways),
            )
        )

    def _tlb_access(
        self, address: int, label: Label, instruction: bool
    ) -> int:
        """Label-oblivious translation through the one shared TLB."""
        tlb = self.shared_itlb if instruction else self.shared_dtlb
        hit = tlb.lookup(address)
        if self.recorder is not None:
            self.recorder.on_cache_access(
                "itlb" if instruction else "dtlb", hit
            )
        # touch() promotes on hit and walk-installs on miss -- in both
        # cases on behalf of *any* label: the Property 5 violation.
        tlb.touch(address)
        return 0 if hit else tlb.params.miss_penalty

    def project(self, level: Label) -> Hashable:
        base = super().project(level)
        if level == self.lattice.bottom:
            # Shared translation state is publicly probeable.
            return (base, self.shared_dtlb.state(), self.shared_itlb.state())
        return base

    def clone(self) -> "LeakyTlbHardware":
        twin = super().clone()
        twin.shared_dtlb = self.shared_dtlb.clone()
        twin.shared_itlb = self.shared_itlb.clone()
        return twin
