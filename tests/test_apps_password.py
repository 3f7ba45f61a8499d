"""Early-exit password comparison: the direct channel hardware cannot fix."""

import random

import pytest

from repro.adversary import prefix_crack, run_in_process
from repro.apps.password import PasswordChecker
from repro.semantics import MitigationState
from repro.typesystem import TypingError, typecheck

LENGTH = 5
ALPHABET = 8
SECRET = [3, 7, 1, 0, 5]
#: The crack's probe count: per position, one quick sample per symbol and
#: three verify samples for each of three promoted candidates; plus the
#: first position's 2 x 3 confirmation batch.
PROBES = LENGTH * (ALPHABET + 9) + 6


def crack(checker, hardware):
    """Run the engine's prefix crack against ``checker`` in process,
    observing the public ``done`` update; returns the findings and the
    number of victim runs."""
    times = []

    def measure(args):
        result = checker.run(SECRET, args["guess"], hardware=hardware)
        times.append(next(e.time for e in result.events
                          if e.name == "done"))
        return times[-1]

    strategy = prefix_crack(LENGTH, ALPHABET, lambda guess: {"guess": guess})
    return run_in_process(strategy, measure), len(times)


@pytest.fixture(scope="module")
def unmitigated():
    return PasswordChecker(length=LENGTH, mitigated=False)


@pytest.fixture(scope="module")
def mitigated():
    return PasswordChecker(length=LENGTH, mitigated=True, budget=400)


class TestFunctional:
    def test_correct_password_matches(self, unmitigated):
        assert unmitigated.matches(SECRET, SECRET)

    def test_wrong_password_rejected(self, unmitigated):
        assert not unmitigated.matches(SECRET, [0] * LENGTH)

    def test_prefix_only_rejected(self, unmitigated):
        almost = list(SECRET)
        almost[-1] = (almost[-1] + 1) % ALPHABET
        assert not unmitigated.matches(SECRET, almost)

    def test_mitigated_functionally_identical(self, mitigated):
        assert mitigated.matches(SECRET, SECRET)
        assert not mitigated.matches(SECRET, [0] * LENGTH)

    def test_length_validation(self, unmitigated):
        with pytest.raises(ValueError):
            unmitigated.memory(SECRET, [1, 2])


class TestTypeDiscipline:
    def test_unmitigated_ill_typed(self, unmitigated):
        with pytest.raises(TypingError):
            typecheck(unmitigated.program, unmitigated.gamma)

    def test_mitigated_typechecks(self, mitigated):
        info = typecheck(mitigated.program, mitigated.gamma)
        assert "compare" in info.mitigate_pc


class TestPrefixTiming:
    def test_time_grows_with_matching_prefix(self, unmitigated):
        times = []
        for prefix_len in range(LENGTH):
            guess = SECRET[:prefix_len] + [
                (SECRET[i] + 1) % ALPHABET for i in range(prefix_len, LENGTH)
            ]
            times.append(unmitigated.run(SECRET, guess,
                                         hardware="null").time)
        assert times == sorted(times)
        assert len(set(times)) == LENGTH


class TestAdaptiveAttack:
    @pytest.mark.parametrize("hardware", ["null", "nopar", "nofill",
                                          "partitioned"])
    def test_attack_succeeds_everywhere_unmitigated(self, unmitigated,
                                                    hardware):
        # A direct channel: the paper's secure hardware does NOT stop it.
        findings, probes = crack(unmitigated, hardware)
        assert findings.recovered == SECRET
        assert findings.extracted == LENGTH
        assert probes == PROBES

    def test_attack_is_linear_not_exponential(self, unmitigated):
        _, probes = crack(unmitigated, "null")
        assert probes == PROBES == 91
        assert probes < ALPHABET ** LENGTH

    def test_mitigation_defeats_the_attack(self, mitigated):
        findings, _ = crack(mitigated, "partitioned")
        # Every guess takes the padded duration: the strict-signal gate
        # refuses even the first position.
        assert findings.recovered == []
        assert findings.extracted == 0

    def test_mitigated_response_time_flat(self, mitigated):
        rng = random.Random(0)
        times = set()
        for _ in range(10):
            guess = [rng.randrange(ALPHABET) for _ in range(LENGTH)]
            r = mitigated.run(SECRET, guess, hardware="partitioned")
            times.add(next(e.time for e in r.events if e.name == "done"))
        # Correct-prefix variation collapses onto the padded duration.
        assert len(times) == 1

    def test_mitigated_leak_bounded_not_zero(self, mitigated):
        # With a deliberately tiny budget the doubling schedule still only
        # admits O(log) distinct durations across all prefixes.
        tiny = PasswordChecker(length=LENGTH, mitigated=True, budget=1)
        durations = set()
        for prefix_len in range(LENGTH + 1):
            guess = SECRET[:prefix_len] + [
                (SECRET[i] + 1) % ALPHABET
                for i in range(prefix_len, LENGTH)
            ]
            guess = guess[:LENGTH]
            r = tiny.run(SECRET, guess, hardware="null",
                         mitigation=MitigationState())
            durations.add(r.mitigations[0].duration)
        assert len(durations) <= 3
