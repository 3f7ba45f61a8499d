"""Machine-environment parameters (Table 1 of the paper).

The paper's evaluation runs on a modified SimpleScalar v3.0e with the cache
and TLB geometry below.  ``MachineParams`` bundles the full configuration;
:func:`paper_machine` reproduces Table 1 exactly.

===================  ======  ======  ==========  =========
Name                 # sets  assoc   block size  latency
===================  ======  ======  ==========  =========
L1 Data Cache        128     4-way   32 byte     1 cycle
L2 Data Cache        1024    4-way   64 byte     6 cycles
L1 Inst. Cache       512     1-way   32 byte     1 cycle
L2 Inst. Cache       1024    4-way   64 byte     6 cycles
Data TLB             16      4-way   4 KB        30 cycles
Instruction TLB      32      4-way   4 KB        30 cycles
===================  ======  ======  ==========  =========

Latencies for caches are *hit* latencies; for TLBs, Table 1's figure is the
miss penalty (a TLB hit is folded into the pipeline).  Main-memory latency is
not in Table 1; we use 100 cycles, a conventional figure for the era's
simulations.  Absolute numbers only scale the results -- the reproduced
effects come from hit/miss *differences*.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .branch import BranchPredictorParams


@dataclass(frozen=True)
class CacheParams:
    """Geometry and hit latency of one cache level."""

    sets: int
    ways: int
    block_bytes: int
    latency: int
    name: str = "cache"

    def __post_init__(self) -> None:
        for attr in ("sets", "ways", "block_bytes"):
            value = getattr(self, attr)
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{self.name}: {attr} must be a power of two")

    @property
    def capacity_bytes(self) -> int:
        """Total cache capacity in bytes."""
        return self.sets * self.ways * self.block_bytes


@dataclass(frozen=True)
class TlbParams:
    """Geometry and miss penalty of a TLB."""

    sets: int
    ways: int
    page_bytes: int
    miss_penalty: int
    name: str = "tlb"

    def __post_init__(self) -> None:
        for attr in ("sets", "ways", "page_bytes"):
            value = getattr(self, attr)
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{self.name}: {attr} must be a power of two")


@dataclass(frozen=True)
class MachineParams:
    """The complete machine-environment configuration."""

    l1_data: CacheParams = field(
        default=CacheParams(128, 4, 32, 1, "L1 Data Cache")
    )
    l2_data: CacheParams = field(
        default=CacheParams(1024, 4, 64, 6, "L2 Data Cache")
    )
    l1_inst: CacheParams = field(
        default=CacheParams(512, 1, 32, 1, "L1 Inst. Cache")
    )
    l2_inst: CacheParams = field(
        default=CacheParams(1024, 4, 64, 6, "L2 Inst. Cache")
    )
    data_tlb: TlbParams = field(default=TlbParams(16, 4, 4096, 30, "Data TLB"))
    inst_tlb: TlbParams = field(
        default=TlbParams(32, 4, 4096, 30, "Instruction TLB")
    )
    #: Latency of a fetch that misses every cache level (main memory).
    memory_latency: int = 100
    #: Optional branch predictor (None = disabled, the Table 1 baseline).
    branch: "BranchPredictorParams" = None
    #: Base execute cost of one command step (ALU + issue), cycles.
    execute_cost: int = 1

    def scaled_down(self, factor: int = 8) -> "MachineParams":
        """A geometrically smaller machine with the same latencies.

        Contract-property tests and campaign runs want caches small enough
        that random workloads actually generate evictions; dividing the set
        counts preserves all the interesting behaviour.
        """

        def shrink_cache(c: CacheParams) -> CacheParams:
            """Divide the set count, keeping latency and geometry style."""
            return replace(c, sets=max(1, c.sets // factor))

        def shrink_tlb(t: TlbParams) -> TlbParams:
            """Divide the set count, keeping the miss penalty."""
            return replace(t, sets=max(1, t.sets // factor))

        return replace(
            self,
            l1_data=shrink_cache(self.l1_data),
            l2_data=shrink_cache(self.l2_data),
            l1_inst=shrink_cache(self.l1_inst),
            l2_inst=shrink_cache(self.l2_inst),
            data_tlb=shrink_tlb(self.data_tlb),
            inst_tlb=shrink_tlb(self.inst_tlb),
        )


def paper_machine() -> MachineParams:
    """The Table 1 configuration."""
    return MachineParams()


def tiny_machine() -> MachineParams:
    """A deliberately tiny machine for exhaustive/property testing."""
    return MachineParams(
        l1_data=CacheParams(2, 1, 8, 1, "L1 Data Cache"),
        l2_data=CacheParams(4, 2, 16, 6, "L2 Data Cache"),
        l1_inst=CacheParams(2, 1, 8, 1, "L1 Inst. Cache"),
        l2_inst=CacheParams(4, 2, 16, 6, "L2 Inst. Cache"),
        data_tlb=TlbParams(1, 2, 64, 30, "Data TLB"),
        inst_tlb=TlbParams(1, 2, 64, 30, "Instruction TLB"),
    )
