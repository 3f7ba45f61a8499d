"""Unit tests for the quantitative layer: Definitions 1-2, Lemma 1,
Theorem 2, entropy measures, and the Sec. 7 closed-form bounds."""

import math

import pytest

from repro.api import compile_program
from repro.lang import DEFAULT_LATTICE, ast
from repro.lattice import chain
from repro.machine import Memory
from repro.hardware import NullHardware, PartitionedHardware, tiny_machine
from repro.quantitative import (
    VariantError,
    check_low_determinism,
    doubling_duration_count,
    leakage_bound,
    leakage_bound_unknown_k,
    measure_leakage,
    min_entropy_leakage,
    relevant_level_count,
    secret_variants,
    shannon_leakage,
    timing_variations,
    verify_theorem2,
)

LAT = DEFAULT_LATTICE
L, H = LAT["L"], LAT["H"]


def compiled(src, gamma, lattice=None, check=True):
    return compile_program(src, gamma=gamma, lattice=lattice, check=check)


def leak(cp, base, variants, levels=None, adversary=None, env=None,
         lattice=None):
    lattice = lattice if lattice is not None else LAT
    env = env if env is not None else NullHardware(lattice)
    return measure_leakage(
        cp.program,
        cp.gamma,
        lattice,
        levels if levels is not None else [lattice.top],
        adversary if adversary is not None else lattice.bottom,
        base,
        env,
        variants,
        mitigate_pc=cp.typing.mitigate_pc,
    )


class TestDefinition1:
    def test_direct_sleep_leak_counts_observations(self):
        cp = compiled("sleep(h); l := 1", {"h": "H", "l": "L"}, check=False)
        base = Memory({"h": 0, "l": 0})
        variants = secret_variants(base, ({"h": v} for v in range(8)))
        result = leak(cp, base, variants)
        assert result.distinguishable == 8
        assert result.bits == 3.0

    def test_no_leak_when_no_secret_dependence(self):
        cp = compiled("sleep(l); l := 1", {"h": "H", "l": "L"})
        base = Memory({"h": 0, "l": 3})
        variants = secret_variants(base, ({"h": v} for v in range(8)))
        result = leak(cp, base, variants)
        assert result.distinguishable == 1
        assert result.bits == 0.0

    def test_value_leak_counts_too(self):
        # Definition 1 counts whole observations (values and times).
        cp = compiled("l := h", {"h": "H", "l": "L"}, check=False)
        base = Memory({"h": 0, "l": 0})
        variants = secret_variants(base, ({"h": v} for v in range(4)))
        assert leak(cp, base, variants).distinguishable == 4

    def test_mitigated_leak_bounded_by_doubling(self):
        cp = compiled("mitigate(4, H) { sleep(h) }; l := 1",
                      {"h": "H", "l": "L"})
        base = Memory({"h": 0, "l": 0})
        variants = secret_variants(base, ({"h": v} for v in range(64)))
        result = leak(cp, base, variants)
        # 64 secrets collapse onto the few power-of-two paddings.
        assert result.distinguishable <= 6
        assert result.bits <= math.log2(6)

    def test_variant_validation(self):
        cp = compiled("l := 1", {"h": "H", "l": "L"})
        base = Memory({"h": 0, "l": 0})
        bad = secret_variants(base, [{"l": 5}])  # varies a public var
        with pytest.raises(VariantError):
            leak(cp, base, bad)

    def test_validation_can_be_disabled(self):
        cp = compiled("l := 1", {"h": "H", "l": "L"})
        base = Memory({"h": 0, "l": 0})
        bad = secret_variants(base, [{"l": 5}])
        result = measure_leakage(
            cp.program, cp.gamma, LAT, [H], L, base,
            NullHardware(LAT), bad, validate=False,
        )
        assert result.runs == 1

    def test_multilevel_exclusion(self):
        # Sec. 6.2: leakage from {M} to L differs from leakage from {H}.
        lat = chain(("L", "M", "H"))
        cp = compiled("sleep(h); l := 1", {"h": "H", "m": "M", "l": "L"},
                      lattice=lat, check=False)
        base = Memory({"h": 0, "m": 0, "l": 0})
        h_variants = secret_variants(base, ({"h": v} for v in range(4)))
        m_variants = secret_variants(base, ({"m": v} for v in range(4)))
        env = NullHardware(lat)
        leak_h = measure_leakage(cp.program, cp.gamma, lat, [lat["H"]],
                                 lat["L"], base, env, h_variants,
                                 mitigate_pc={})
        leak_m = measure_leakage(cp.program, cp.gamma, lat, [lat["M"]],
                                 lat["L"], base, env, m_variants,
                                 mitigate_pc={})
        assert leak_h.bits == 2.0
        assert leak_m.bits == 0.0  # sleep(h) doesn't read M

    def test_adversary_observing_level_sees_nothing_new(self):
        # L_{lA} excludes levels at or below the adversary.
        lat = chain(("L", "M", "H"))
        cp = compiled("sleep(m); h := 1", {"h": "H", "m": "M"},
                      lattice=lat, check=False)
        base = Memory({"h": 0, "m": 0})
        variants = secret_variants(base, ({"m": v} for v in range(4)))
        result = measure_leakage(
            cp.program, cp.gamma, lat, [lat["M"]], lat["M"], base,
            NullHardware(lat), variants, validate=False, mitigate_pc={},
        )
        # From M's own point of view, M is not a secret: allowed set empty,
        # so validation would reject variation; with it off, Q still counts
        # distinct observations (the adversary sees h's update at M? no --
        # h is above M, so the only events are invisible).
        assert result.distinguishable >= 1


class TestDefinition2AndTheorem2:
    def test_variations_of_mitigated_sleep(self):
        cp = compiled("mitigate(4, H) { sleep(h) }; l := 1",
                      {"h": "H", "l": "L"})
        base = Memory({"h": 0, "l": 0})
        variants = secret_variants(base, ({"h": v} for v in range(64)))
        v = timing_variations(
            cp.program, LAT, [H], L, base, NullHardware(LAT), variants,
            mitigate_pc=cp.typing.mitigate_pc,
        )
        assert 1 < v.observed_variations <= 6
        assert len(v.id_vectors) == 1  # Lemma 1: ids are low-deterministic

    def test_theorem2_holds_exhaustively(self):
        cp = compiled("mitigate(4, H) { sleep(h) }; l := 1",
                      {"h": "H", "l": "L"})
        base = Memory({"h": 0, "l": 0})
        variants = secret_variants(base, ({"h": v} for v in range(32)))
        result = verify_theorem2(
            cp.program, cp.gamma, LAT, [H], L, base, NullHardware(LAT),
            variants, mitigate_pc=cp.typing.mitigate_pc,
        )
        assert result.holds

    def test_theorem2_zero_leakage_without_mitigate(self):
        # Corollary: no mitigate commands -> |V| = 1 -> zero leakage.
        cp = compiled("h := h + 1; g := h", {"h": "H", "g": "H"})
        base = Memory({"h": 0, "g": 0})
        variants = secret_variants(base, ({"h": v} for v in range(8)))
        result = verify_theorem2(
            cp.program, cp.gamma, LAT, [H], L, base,
            PartitionedHardware(LAT, tiny_machine()), variants,
            mitigate_pc=cp.typing.mitigate_pc,
        )
        assert result.variations.observed_variations == 1
        assert result.leakage.bits == 0.0
        assert result.holds

    def test_theorem2_on_partitioned_hardware(self):
        cp = compiled(
            "mitigate(8, H) { while h > 0 do { h := h - 1 } }; l := 1",
            {"h": "H", "l": "L"},
        )
        base = Memory({"h": 0, "l": 0})
        variants = secret_variants(base, ({"h": v} for v in range(16)))
        result = verify_theorem2(
            cp.program, cp.gamma, LAT, [H], L, base,
            PartitionedHardware(LAT, tiny_machine()), variants,
            mitigate_pc=cp.typing.mitigate_pc,
        )
        assert result.holds

    def test_high_context_mitigations_projected_out(self):
        # Sec. 6.3's nesting example: only the outer (low-pc) mitigate
        # matters for the variation count.
        src = ("mitigate@outer (64, H) { if h then {"
               " mitigate@inner (1, H) { h := h + 1 } } else { skip } };"
               "l := 1")
        cp = compiled(src, {"h": "H", "l": "L"})
        base = Memory({"h": 0, "l": 0})
        variants = secret_variants(base, ({"h": v} for v in range(2)))
        v = timing_variations(
            cp.program, LAT, [H], L, base, NullHardware(LAT), variants,
            mitigate_pc=cp.typing.mitigate_pc,
        )
        for ids in v.id_vectors:
            assert ids == ("outer",)

    def test_low_determinism_checker(self):
        cp = compiled("mitigate(4, H) { sleep(h) }; l := 1",
                      {"h": "H", "l": "L"})
        base = Memory({"h": 0, "l": 0})
        variants = secret_variants(base, ({"h": v} for v in range(16)))
        violations = check_low_determinism(
            cp.program, LAT, [H], L, base, NullHardware(LAT), variants,
            mitigate_pc=cp.typing.mitigate_pc,
        )
        assert violations == []

    def test_low_determinism_keeps_low_level_mitigations(self):
        # Lemma 1 filters the vector on the pc label only: a mitigate in a
        # (claimed) low context counts whatever its level, so a loop on h
        # running an L-level mitigate h times breaks low-determinism.
        cp = compiled("while h > 0 do { mitigate(1, L) { h := h - 1 } };"
                      " l := 1", {"h": "H", "l": "L"}, check=False)
        (site,) = [c.mit_id for c in cp.program.walk()
                   if isinstance(c, ast.Mitigate)]
        base = Memory({"h": 0, "l": 0})
        variants = secret_variants(base, ({"h": v} for v in range(3)))
        violations = check_low_determinism(
            cp.program, LAT, [H], L, base, NullHardware(LAT), variants,
            mitigate_pc={site: L},
        )
        assert len(violations) == 2


class TestEntropyMeasures:
    def _observations(self, src, gamma, n, check=True):
        cp = compiled(src, gamma, check=check)
        base = Memory({k: 0 for k in gamma})
        variants = secret_variants(base, ({"h": v} for v in range(n)))
        return leak(cp, base, variants)

    def test_shannon_bounded_by_log_count(self):
        r = self._observations("mitigate(4, H) { sleep(h) }; l := 1",
                               {"h": "H", "l": "L"}, 32)
        assert shannon_leakage(r.observations) <= r.bits + 1e-9

    def test_min_entropy_bounded_by_log_count(self):
        r = self._observations("mitigate(4, H) { sleep(h) }; l := 1",
                               {"h": "H", "l": "L"}, 32)
        assert min_entropy_leakage(r.observations) <= r.bits + 1e-9

    def test_identity_channel_full_leakage(self):
        r = self._observations("l := h", {"h": "H", "l": "L"}, 16,
                               check=False)
        assert shannon_leakage(r.observations) == pytest.approx(4.0)
        assert min_entropy_leakage(r.observations) == pytest.approx(4.0)

    def test_constant_channel_zero(self):
        r = self._observations("l := 1", {"h": "H", "l": "L"}, 16)
        assert shannon_leakage(r.observations) == pytest.approx(0.0)
        assert min_entropy_leakage(r.observations) == pytest.approx(0.0)

    def test_nonuniform_prior(self):
        r = self._observations("l := h % 2", {"h": "H", "l": "L"}, 4,
                               check=False)
        skewed = [0.7, 0.1, 0.1, 0.1]
        assert shannon_leakage(r.observations, skewed) < shannon_leakage(
            r.observations
        )


class TestBounds:
    def test_relevant_level_count(self):
        lat = chain(("L", "M", "H"))
        assert relevant_level_count(lat, [lat["M"]], lat["L"]) == 2
        assert relevant_level_count(lat, [lat["H"]], lat["M"]) == 1

    def test_zero_when_no_mitigations(self):
        assert leakage_bound(LAT, [H], L, elapsed=10 ** 6,
                             relevant_mitigations=0) == 0.0

    def test_formula(self):
        # |L^| * log2(K+1) * (1 + log2 T)
        value = leakage_bound(LAT, [H], L, elapsed=1024,
                              relevant_mitigations=3)
        assert value == pytest.approx(1 * 2.0 * 11.0)

    def test_monotone_in_k_and_t(self):
        b1 = leakage_bound(LAT, [H], L, 1000, 1)
        b2 = leakage_bound(LAT, [H], L, 1000, 10)
        b3 = leakage_bound(LAT, [H], L, 100000, 10)
        assert b1 < b2 < b3

    def test_unknown_k_is_log_squared(self):
        t = 2 ** 20
        bound = leakage_bound_unknown_k(LAT, [H], L, t)
        assert bound == pytest.approx(math.log2(t + 1) * 21.0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            leakage_bound(LAT, [H], L, 10, -1)

    def test_bound_dominates_measured_leakage(self):
        cp = compiled("mitigate(4, H) { sleep(h) }; l := 1",
                      {"h": "H", "l": "L"})
        base = Memory({"h": 0, "l": 0})
        variants = secret_variants(base, ({"h": v} for v in range(64)))
        result = leak(cp, base, variants)
        # K = 1 relevant mitigate; T = worst-case run time.
        # Observation keys are (name, index, value, time) tuples.
        worst = max(
            max(key[-1][3] for key in result.observations), 1
        )
        bound = leakage_bound(LAT, [H], L, worst, 1)
        assert result.bits <= bound + 1e-9

    def test_doubling_duration_count(self):
        assert doubling_duration_count(4, 3) == 1
        assert doubling_duration_count(4, 4) == 1 + 0
        assert doubling_duration_count(4, 64) == 5
        assert doubling_duration_count(0, 64) == 7  # estimate clamps to 1
