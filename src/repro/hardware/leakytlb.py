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
from .params import MachineParams, paper_machine
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
        params = params if params is not None else paper_machine()
        self.shared_dtlb = Tlb(
            replace(params.data_tlb,
                    ways=max(self.MIN_WAYS, params.data_tlb.ways))
        )
        self.shared_itlb = Tlb(
            replace(params.inst_tlb,
                    ways=max(self.MIN_WAYS, params.inst_tlb.ways))
        )
        super().__init__(lattice, params)

    def _build_routes(self) -> None:
        """Every label translates through its side's one shared TLB,
        touched on behalf of *any* label: the Property 5 violation."""
        super()._build_routes()
        shared = (self.shared_dtlb, self.shared_itlb)
        self._routes = {
            label: tuple(route._replace(tlb=tlb, tlbs_below=(), tlbs_above=())
                         for route, tlb in zip(routes, shared))
            for label, routes in self._routes.items()
        }

    def reset(self) -> None:
        super().reset()
        self.shared_dtlb.flush()
        self.shared_itlb.flush()

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
        twin._build_routes()
        return twin
