"""Unit tests for the four machine-environment models."""

import pytest

from repro.lang import DEFAULT_LATTICE
from repro.lattice import chain
from repro.machine import AccessTrace
from repro.hardware import (
    Hierarchy,
    MachineParams,
    NoFillHardware,
    NullHardware,
    PartitionedHardware,
    StandardHardware,
    StepKind,
    make_hardware,
    paper_machine,
    tiny_machine,
)

LAT = DEFAULT_LATTICE
L, H = LAT["L"], LAT["H"]
CODE = 0x0040_0000
DATA = 0x1000_0000


def trace(instr=CODE, reads=(), writes=()):
    return AccessTrace(instruction=instr, reads=tuple(reads),
                       writes=tuple(writes))


class TestHierarchyCosts:
    def setup_method(self):
        self.h = Hierarchy(paper_machine())
        self.p = paper_machine()

    def test_cold_data_access_cost(self):
        # TLB miss + L1 miss + L2 miss + memory.
        expected = (self.p.data_tlb.miss_penalty + self.p.l1_data.latency
                    + self.p.l2_data.latency + self.p.memory_latency)
        assert self.h.data_access(DATA) == expected
        assert expected == self.h.data_miss_cost()

    def test_warm_hit_cost(self):
        self.h.data_access(DATA)
        assert self.h.data_access(DATA) == self.p.l1_data.latency

    def test_l2_hit_cost(self):
        self.h.data_access(DATA)
        # Evict from L1 only: walk addresses mapping to the same L1 set.
        l1 = self.p.l1_data
        stride = l1.sets * l1.block_bytes
        for i in range(1, l1.ways + 1):
            self.h.l1_data.touch(DATA + i * stride)
        assert not self.h.l1_data.lookup(DATA)
        assert self.h.l2_data.lookup(DATA)
        cost = self.h.data_access(DATA)
        assert cost == l1.latency + self.p.l2_data.latency

    def test_tlb_miss_penalty_separable(self):
        self.h.data_access(DATA)  # warm everything
        self.h.data_tlb.flush()
        cost = self.h.data_access(DATA)
        assert cost == (self.p.data_tlb.miss_penalty
                        + self.p.l1_data.latency)

    def test_no_fill_mode_installs_nothing(self):
        before = self.h.state()
        cost = self.h.data_access(DATA, fill=False)
        assert cost == self.h.data_miss_cost()
        assert self.h.state() == before

    def test_silent_hit_promotes_nothing(self):
        self.h.data_access(DATA)
        before = self.h.state()
        cost = self.h.data_access(DATA, fill=False)
        assert cost == self.p.l1_data.latency
        assert self.h.state() == before

    def test_inst_side_symmetric(self):
        expected = (self.p.inst_tlb.miss_penalty + self.p.l1_inst.latency
                    + self.p.l2_inst.latency + self.p.memory_latency)
        assert self.h.inst_fetch(CODE) == expected
        assert self.h.inst_fetch(CODE) == self.p.l1_inst.latency


class TestNullHardware:
    def test_fixed_costs(self):
        env = NullHardware(LAT)
        c1 = env.step(StepKind.SKIP, trace(), L, L)
        c2 = env.step(StepKind.SKIP, trace(), H, H)
        assert c1 == c2

    def test_reads_counted(self):
        env = NullHardware(LAT)
        base = env.step(StepKind.ASSIGN, trace(), L, L)
        more = env.step(StepKind.ASSIGN, trace(reads=[DATA, DATA + 4]), L, L)
        assert more == base + 2

    def test_projection_empty(self):
        env = NullHardware(LAT)
        env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        assert env.project(L) == ()
        assert env.project(H) == ()


class TestStandardHardware:
    def test_caches_warm_up(self):
        env = StandardHardware(LAT, tiny_machine())
        cold = env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        warm = env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        assert warm < cold

    def test_ignores_labels(self):
        # The insecurity: an [H,H] access fills the shared (bottom) cache.
        env = StandardHardware(LAT, tiny_machine())
        env.step(StepKind.ASSIGN, trace(reads=[DATA]), H, H)
        probe = env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        cold_env = StandardHardware(LAT, tiny_machine())
        cold = cold_env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        assert probe < cold

    def test_all_state_at_bottom(self):
        env = StandardHardware(LAT, tiny_machine())
        env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        assert env.project(H) == ()
        assert env.project(L) != ()


class TestNoFillHardware:
    def test_high_write_label_leaves_state_unchanged(self):
        env = NoFillHardware(LAT, tiny_machine())
        before = env.full_state()
        env.step(StepKind.ASSIGN, trace(reads=[DATA], writes=[DATA + 64]),
                 H, H)
        assert env.full_state() == before

    def test_low_accesses_fill(self):
        env = NoFillHardware(LAT, tiny_machine())
        cold = env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        warm = env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        assert warm < cold

    def test_high_reads_still_see_low_cache(self):
        # Serving hits from the low cache in no-fill mode is allowed; only
        # modification is forbidden.
        env = NoFillHardware(LAT, tiny_machine())
        env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        hit = env.step(StepKind.ASSIGN, trace(reads=[DATA]), H, H)
        cold_env = NoFillHardware(LAT, tiny_machine())
        cold = cold_env.step(StepKind.ASSIGN, trace(reads=[DATA]), H, H)
        assert hit < cold


class TestPartitionedHardware:
    def test_partitions_isolated(self):
        env = PartitionedHardware(LAT, tiny_machine())
        env.step(StepKind.ASSIGN, trace(reads=[DATA]), H, H)
        assert env.project(L) == PartitionedHardware(
            LAT, tiny_machine()
        ).project(L)
        assert env.project(H) != PartitionedHardware(
            LAT, tiny_machine()
        ).project(H)

    def test_high_search_sees_low_partition(self):
        env = PartitionedHardware(LAT, tiny_machine())
        env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        hit = env.step(StepKind.ASSIGN, trace(reads=[DATA]), H, H)
        cold_env = PartitionedHardware(LAT, tiny_machine())
        cold = cold_env.step(StepKind.ASSIGN, trace(reads=[DATA]), H, H)
        assert hit < cold

    def test_high_hit_in_low_partition_is_silent(self):
        env = PartitionedHardware(LAT, tiny_machine())
        env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        low_before = env.project(L)
        env.step(StepKind.ASSIGN, trace(reads=[DATA]), H, H)
        assert env.project(L) == low_before

    def test_low_miss_moves_line_out_of_high(self):
        # Single-copy consistency: an L access to a line resident in the H
        # partition installs it at L and removes it from H, at miss cost.
        env = PartitionedHardware(LAT, tiny_machine())
        env.step(StepKind.ASSIGN, trace(reads=[DATA]), H, H)
        high_hierarchy = env.partitions[H]
        assert high_hierarchy.holds_data(DATA)
        cost = env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        assert not high_hierarchy.holds_data(DATA)
        assert env.partitions[L].holds_data(DATA)
        # The move costs the same as a genuine miss (Property 6).
        cold_env = PartitionedHardware(LAT, tiny_machine())
        cold = cold_env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        assert cost == cold

    def test_move_cost_independent_of_high_state(self):
        with_line = PartitionedHardware(LAT, tiny_machine())
        with_line.step(StepKind.ASSIGN, trace(reads=[DATA]), H, H)
        without = PartitionedHardware(LAT, tiny_machine())
        c1 = with_line.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        c2 = without.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        assert c1 == c2

    def test_mismatched_labels_bypass(self):
        env = PartitionedHardware(LAT, tiny_machine())
        before = env.full_state()
        c1 = env.step(StepKind.ASSIGN, trace(reads=[DATA]), H, L)
        c2 = env.step(StepKind.ASSIGN, trace(reads=[DATA]), H, L)
        assert env.full_state() == before  # no state change
        assert c1 == c2  # constant cost

    def test_multilevel_partitions(self):
        lat = chain(("L", "M", "H"))
        env = PartitionedHardware(lat, tiny_machine())
        env.step(StepKind.ASSIGN, trace(reads=[DATA]), lat["M"], lat["M"])
        # M access must not touch L or H partitions.
        fresh = PartitionedHardware(lat, tiny_machine())
        assert env.project(lat["L"]) == fresh.project(lat["L"])
        assert env.project(lat["H"]) == fresh.project(lat["H"])
        assert env.project(lat["M"]) != fresh.project(lat["M"])

    def test_clone_deep(self):
        env = PartitionedHardware(LAT, tiny_machine())
        env.step(StepKind.ASSIGN, trace(reads=[DATA]), L, L)
        twin = env.clone()
        twin.step(StepKind.ASSIGN, trace(reads=[DATA + 4096]), L, L)
        assert env.project(L) != twin.project(L)


class TestFactory:
    def test_names(self):
        for name in ("null", "standard", "nopar", "nofill", "partitioned"):
            env = make_hardware(name, LAT, tiny_machine() if name != "null" else None)
            assert env.lattice is LAT

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown hardware model"):
            make_hardware("quantum", LAT)

    def test_scaled_down_params(self):
        small = paper_machine().scaled_down(8)
        assert small.l1_data.sets == 16
        assert small.l1_data.latency == paper_machine().l1_data.latency

    def test_paper_machine_matches_table1(self):
        p = paper_machine()
        assert (p.l1_data.sets, p.l1_data.ways, p.l1_data.block_bytes,
                p.l1_data.latency) == (128, 4, 32, 1)
        assert (p.l2_data.sets, p.l2_data.ways, p.l2_data.block_bytes,
                p.l2_data.latency) == (1024, 4, 64, 6)
        assert (p.l1_inst.sets, p.l1_inst.ways, p.l1_inst.block_bytes,
                p.l1_inst.latency) == (512, 1, 32, 1)
        assert (p.l2_inst.sets, p.l2_inst.ways, p.l2_inst.block_bytes,
                p.l2_inst.latency) == (1024, 4, 64, 6)
        assert (p.data_tlb.sets, p.data_tlb.ways, p.data_tlb.page_bytes,
                p.data_tlb.miss_penalty) == (16, 4, 4096, 30)
        assert (p.inst_tlb.sets, p.inst_tlb.ways, p.inst_tlb.page_bytes,
                p.inst_tlb.miss_penalty) == (32, 4, 4096, 30)
