"""End-to-end multilevel scenarios: chains, diamonds, powerset lattices.

The paper's quantitative machinery is explicitly multilevel (Sec. 6's
"novel multilevel quantitative security guarantees"); these tests exercise
it on lattices with incomparable levels, which the two-point lattice cannot
reach.
"""

import pytest

from repro import api
from repro.lattice import chain, diamond, powerset
from repro.machine import Memory
from repro.hardware import PartitionedHardware, StepKind, tiny_machine
from repro.machine.layout import AccessTrace
from repro.quantitative import (
    measure_leakage,
    secret_variants,
    verify_theorem2,
)


class TestDiamondNoninterference:
    """M1 and M2 are incomparable: neither may learn the other's secrets."""

    def setup_method(self):
        self.lat = diamond()
        self.gamma = {"m1": "M1", "m2": "M2", "low": "L", "top": "H"}

    def test_incomparable_assignment_rejected(self):
        from repro.typesystem import TypingError

        with pytest.raises(TypingError):
            api.compile_program("m2 := m1", gamma=self.gamma,
                                lattice=self.lat)

    def test_incomparable_timing_rejected(self):
        # M1-dependent timing must not reach an M2 update either.
        from repro.typesystem import TypingError

        with pytest.raises(TypingError):
            api.compile_program(
                "while m1 > 0 do { m1 := m1 - 1 }; m2 := 1",
                gamma=self.gamma, lattice=self.lat,
            )

    def test_mitigate_at_top_allows_cross_timing(self):
        cp = api.compile_program(
            "mitigate(4, H) { while m1 > 0 do { m1 := m1 - 1 } }; m2 := 1",
            gamma=self.gamma, lattice=self.lat,
        )
        # T-ASGN's end label is Gamma(m2); the point is it typechecks at all.
        assert cp.typing.end_label == self.lat["M2"]

    def test_m2_adversary_leakage_from_m1_bounded(self):
        cp = api.compile_program(
            "mitigate(4, H) { while m1 > 0 do { m1 := m1 - 1 } }; m2 := 1",
            gamma=self.gamma, lattice=self.lat,
        )
        base = Memory({"m1": 0, "m2": 0, "low": 0, "top": 0})
        variants = secret_variants(base, ({"m1": v} for v in range(16)))
        result = verify_theorem2(
            cp.program, cp.gamma, self.lat, [self.lat["M1"]],
            self.lat["M2"], base,
            PartitionedHardware(self.lat, tiny_machine()), variants,
            mitigate_pc=cp.typing.mitigate_pc,
        )
        assert result.holds
        assert result.leakage.bits <= 3  # doubling collapses 16 secrets

    def test_partitions_isolate_incomparable_levels(self):
        lat = self.lat
        env = PartitionedHardware(lat, tiny_machine())
        env.step(
            StepKind.ASSIGN,
            AccessTrace(instruction=0x400000, reads=(0x10000000,)),
            lat["M1"], lat["M1"],
        )
        fresh = PartitionedHardware(lat, tiny_machine())
        assert env.project(lat["M2"]) == fresh.project(lat["M2"])
        assert env.project(lat["L"]) == fresh.project(lat["L"])
        assert env.project(lat["M1"]) != fresh.project(lat["M1"])

    def test_m1_access_cost_ignores_m2_state(self):
        lat = self.lat
        env1 = PartitionedHardware(lat, tiny_machine())
        env2 = PartitionedHardware(lat, tiny_machine())
        # Warm M2's partition in env1 only.
        env2.step(
            StepKind.ASSIGN,
            AccessTrace(instruction=0x400000, reads=(0x10000000,)),
            lat["M2"], lat["M2"],
        )
        probe = AccessTrace(instruction=0x400008, reads=(0x10000000,))
        c1 = env1.step(StepKind.ASSIGN, probe, lat["M1"], lat["M1"])
        c2 = env2.step(StepKind.ASSIGN, probe, lat["M1"], lat["M1"])
        assert c1 == c2  # Property 6 between incomparable levels


class TestPowersetScenario:
    """Two principals a, b: {a}'s data must not reach {b}'s observers."""

    def setup_method(self):
        self.lat = powerset(["a", "b"])
        self.gamma = {
            "pub": "{}",
            "alice": "{a}",
            "bob": "{b}",
            "shared": "{a,b}",
        }

    def test_flows(self):
        cp = api.compile_program(
            "alice := alice + 1; shared := alice + bob",
            gamma=self.gamma, lattice=self.lat,
        )
        assert cp is not None

    def test_cross_principal_rejected(self):
        from repro.typesystem import TypingError

        with pytest.raises(TypingError):
            api.compile_program("bob := alice", gamma=self.gamma,
                                lattice=self.lat)

    def test_leakage_per_principal(self):
        cp = api.compile_program(
            "mitigate(4, {a,b}) { sleep(alice) }; pub := 1",
            gamma=self.gamma, lattice=self.lat,
        )
        base = Memory({"pub": 0, "alice": 0, "bob": 0, "shared": 0})
        env = PartitionedHardware(self.lat, tiny_machine())
        alice_leak = measure_leakage(
            cp.program, cp.gamma, self.lat, [self.lat["{a}"]],
            self.lat.bottom, base, env,
            secret_variants(base, ({"alice": v} for v in range(8))),
            mitigate_pc=cp.typing.mitigate_pc,
        )
        bob_leak = measure_leakage(
            cp.program, cp.gamma, self.lat, [self.lat["{b}"]],
            self.lat.bottom, base, env,
            secret_variants(base, ({"bob": v} for v in range(8))),
            mitigate_pc=cp.typing.mitigate_pc,
        )
        assert alice_leak.bits > 0  # sleep(alice) leaks about alice...
        assert bob_leak.bits == 0.0  # ...but nothing about bob


class TestChainEndToEnd:
    def test_middle_adversary_view(self):
        lat = chain(("L", "M", "H"))
        cp = api.compile_program(
            "m := l + 1; mitigate(4, H) { sleep(h) }; m2 := 2",
            gamma={"l": "L", "m": "M", "m2": "M", "h": "H"},
            lattice=lat,
        )
        base = Memory({"l": 1, "m": 0, "m2": 0, "h": 0})
        env = PartitionedHardware(lat, tiny_machine())
        # The M adversary observes m/m2 update times; H's sleep leaks
        # through the mitigate, boundedly.
        result = verify_theorem2(
            cp.program, cp.gamma, lat, [lat["H"]], lat["M"], base, env,
            secret_variants(base, ({"h": v} for v in range(32))),
            mitigate_pc=cp.typing.mitigate_pc,
        )
        assert result.holds
        assert 0 < result.leakage.bits <= result.variations.observed_bits
