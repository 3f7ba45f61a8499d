"""Unit tests for the timing statistics and the coresident probe."""

import pytest

from repro.lang import DEFAULT_LATTICE
from repro.machine import AccessTrace
from repro.hardware import (
    NoFillHardware,
    PartitionedHardware,
    StandardHardware,
    StepKind,
    tiny_machine,
)
from repro.hardware.verify import probe
from repro.attacks import (
    advantage,
    chance_accuracy,
    distinguishable,
    fit_weight_model,
    median,
    median_of_n,
    partition_by,
    pearson_correlation,
    threshold_classifier,
    username_probe,
    welch_t,
)

LAT = DEFAULT_LATTICE
L, H = LAT["L"], LAT["H"]
DATA = 0x1000_0000


class TestDistinguishers:
    def test_distinguishable(self):
        assert distinguishable([1, 2], [1, 3])
        assert not distinguishable([1, 2], [2, 1])

    def test_threshold_perfect_separation(self):
        r = threshold_classifier([10, 11, 12], [50, 51])
        assert r.accuracy == 1.0
        assert 12 < r.threshold < 50

    def test_threshold_orientation(self):
        r = threshold_classifier([50, 51], [10, 11], "slow", "fast")
        assert r.accuracy == 1.0
        assert r.low_class == "fast"

    def test_threshold_overlapping(self):
        r = threshold_classifier([1, 2, 3, 4], [3, 4, 5, 6])
        assert 0.5 <= r.accuracy < 1.0

    def test_threshold_identical_distributions(self):
        r = threshold_classifier([5, 5, 5], [5, 5, 5])
        assert r.accuracy == 0.5
        assert not r.separates()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            threshold_classifier([], [1])

    def test_chance_accuracy(self):
        assert chance_accuracy([1] * 9, [2]) == 0.9

    def test_partition_by(self):
        groups = partition_by([1, 2, 3], ["a", "b", "a"])
        assert groups == {"a": [1, 3], "b": [2]}
        with pytest.raises(ValueError):
            partition_by([1], ["a", "b"])

    def test_username_probe(self):
        times = [100, 100, 40, 41]
        validity = [True, True, False, False]
        r = username_probe(times, validity)
        assert r.accuracy == 1.0
        with pytest.raises(ValueError):
            username_probe([1, 2], [True, True])

    def test_pearson(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson_correlation([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
        assert pearson_correlation([1, 2, 3], [5, 5, 5]) == 0.0
        with pytest.raises(ValueError):
            pearson_correlation([1], [2])


class TestMedianSampling:
    def test_median_odd(self):
        assert median([3, 1, 2]) == 2.0

    def test_median_even(self):
        assert median([4, 1, 3, 2]) == 2.5

    def test_median_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    def test_median_of_n_rejects_outlier(self):
        samples = iter([10, 10, 900, 10, 10])
        assert median_of_n(lambda: next(samples), 5) == 10.0

    def test_median_of_n_needs_positive_n(self):
        with pytest.raises(ValueError):
            median_of_n(lambda: 1, 0)


class TestWelchAdvantage:
    def test_separated_samples_significant(self):
        fast = [100, 101, 99, 100, 102, 98, 100, 101]
        slow = [200, 201, 199, 200, 202, 198, 200, 199]
        result = advantage(fast, slow)
        assert result.advantage == pytest.approx(0.5)
        assert result.accuracy == 1.0
        assert result.p_value < 1e-6
        assert result.significant()

    def test_identical_constant_samples_not_significant(self):
        result = advantage([5, 5, 5, 5], [5, 5, 5, 5])
        assert result.advantage == 0.0
        assert result.t_stat == 0.0
        assert result.p_value == 1.0
        assert not result.significant()

    def test_distinct_constant_samples_deterministic(self):
        result = advantage([5, 5, 5], [9, 9, 9])
        assert result.t_stat == float("-inf")
        assert result.p_value == 0.0
        assert result.significant()

    def test_same_distribution_not_significant(self):
        import random

        rng = random.Random(2012)
        a = [rng.gauss(100, 10) for _ in range(40)]
        b = [rng.gauss(100, 10) for _ in range(40)]
        result = advantage(a, b)
        assert not result.significant(alpha=0.01)
        assert result.advantage < 0.3

    def test_welch_t_matches_known_value(self):
        # Classic Welch example: unequal sizes and variances.
        a = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6,
             23.1, 19.6, 19.0, 21.7, 21.4]
        b = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2,
             21.9, 22.1, 22.9, 30.5, 25.2, 27.3, 14.1, 15.9, 19.8, 14.0]
        t_stat, dof = welch_t(a, b)
        assert t_stat == pytest.approx(-1.2755, abs=0.001)
        assert dof == pytest.approx(32.63, abs=0.05)

    def test_welch_needs_two_per_class(self):
        with pytest.raises(ValueError):
            welch_t([1], [2, 3])

    def test_p_value_matches_reference(self):
        # t=2.0, dof=10 -> two-sided p = 0.07339 (reference tables).
        fast = [100, 101, 99, 100, 102, 98]
        slow = [200, 201, 199, 200, 202, 198]
        result = advantage(fast, slow)
        assert 0.0 <= result.p_value <= 1.0
        from repro.attacks.distinguisher import _student_t_sf

        assert 2 * _student_t_sf(2.0, 10.0) == pytest.approx(0.07339,
                                                             abs=1e-4)
        assert 2 * _student_t_sf(2.228, 10.0) == pytest.approx(0.05,
                                                               abs=1e-3)

    def test_clamp_at_chance_never_bites(self):
        """The outermost threshold puts every sample on one side, which
        scores exactly the majority guess: the best threshold is never
        below chance, so the advantage is ``accuracy - chance`` as is."""
        import random

        rng = random.Random(35)
        for _ in range(300):
            a = [rng.randrange(12) for _ in range(rng.randrange(2, 15))]
            b = [rng.randrange(12) for _ in range(rng.randrange(2, 15))]
            result = advantage(a, b)
            assert result.advantage == result.accuracy - result.chance >= 0

    def test_as_dict_round_trips(self):
        result = advantage([1, 2, 3, 4], [10, 11, 12, 13])
        d = result.as_dict()
        assert d["samples_a"] == 4 and d["samples_b"] == 4
        assert d["advantage"] == result.advantage


class TestWeightModel:
    def test_fit_recovers_line(self):
        weights = [4, 8, 12, 16]
        times = [100 + 7 * w for w in weights]
        model = fit_weight_model(weights, times)
        assert model.slope == pytest.approx(7.0)
        assert model.intercept == pytest.approx(100.0)
        assert model.predict_weight(100 + 7 * 10) == pytest.approx(10.0)

    def test_flat_line_predicts_nan(self):
        model = fit_weight_model([4, 8], [50, 50])
        assert model.predict_weight(50) != model.predict_weight(50) or \
            model.slope == 0.0

    def test_constant_weights(self):
        model = fit_weight_model([5, 5, 5], [1, 2, 3])
        assert model.slope == 0.0


class TestCacheProbe:
    def _victim(self, env, secret):
        # Victim touches DATA when the secret is set; labels [H,H].
        if secret:
            env.step(StepKind.ASSIGN,
                     AccessTrace(instruction=0x400000, reads=(DATA,)),
                     H, H)
        return env

    def test_probe_reads_clone(self):
        env = StandardHardware(LAT, tiny_machine())
        before = env.full_state()
        probe(env, [DATA, DATA + 64])
        assert env.full_state() == before

    def test_probe_distinguishes_on_standard(self):
        e0 = self._victim(StandardHardware(LAT, tiny_machine()), 0)
        e1 = self._victim(StandardHardware(LAT, tiny_machine()), 1)
        assert probe(e0, [DATA]) != probe(e1, [DATA])

    @pytest.mark.parametrize("hardware_cls", [NoFillHardware,
                                              PartitionedHardware])
    def test_probe_blind_on_secure_designs(self, hardware_cls):
        e0 = self._victim(hardware_cls(LAT, tiny_machine()), 0)
        e1 = self._victim(hardware_cls(LAT, tiny_machine()), 1)
        assert probe(e0, [DATA, DATA + 64]) == probe(e1, [DATA, DATA + 64])

    def test_probe_hit_classification(self):
        env = StandardHardware(LAT, tiny_machine())
        env.step(StepKind.ASSIGN,
                 AccessTrace(instruction=0x400000, reads=(DATA,)), L, L)
        cached, cold = probe(env, [DATA, DATA + 4096])
        assert cached < cold
