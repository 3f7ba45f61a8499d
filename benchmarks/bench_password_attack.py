"""Extension experiment: the adaptive prefix attack and the division of labor.

The paper's architecture splits responsibilities: hardware discharges the
machine-environment properties (5-7), while *direct* dependencies -- timing
that flows through control, like the early-exit comparison's loop trip
count -- are the language level's job.  This bench quantifies that split:

* the adaptive prefix-recovery attack (the adversary engine's
  rank-then-verify ``prefix_crack``, run in process) extracts a password
  in a number of guesses linear in ``length x alphabet`` on **every**
  hardware design, secure ones included (hardware cannot see a direct
  channel);
* a single ``mitigate`` around the comparison defeats it on all of them;
* the attack's cost collapse (linear vs exponential guessing) is reported,
  which is why the channel matters at all.
"""

import random

from repro.adversary import prefix_crack, run_in_process
from repro.apps.password import PasswordChecker

from _report import Report

LENGTH = 6
ALPHABET = 16
DESIGNS = ("nopar", "nofill", "partitioned")


def _crack(checker, secret, hardware):
    """The engine's prefix crack against ``checker``, observing the
    public ``done`` update; returns the findings and the guess count."""
    times = []

    def measure(args):
        result = checker.run(secret, args["guess"], hardware=hardware)
        times.append(next(e.time for e in result.events
                          if e.name == "done"))
        return times[-1]

    strategy = prefix_crack(LENGTH, ALPHABET, lambda guess: {"guess": guess})
    return run_in_process(strategy, measure), len(times)


def _build_report():
    rng = random.Random(20120615)
    secret = [rng.randrange(ALPHABET) for _ in range(LENGTH)]
    unmitigated = PasswordChecker(length=LENGTH, mitigated=False)
    mitigated = PasswordChecker(length=LENGTH, mitigated=True, budget=600)

    report = Report("password_attack",
                    "Extension: adaptive prefix recovery vs hardware")
    report.line(f"secret: {LENGTH} symbols over alphabet {ALPHABET} "
                f"({ALPHABET ** LENGTH:,} brute-force guesses)")
    report.line()
    rows = []
    unmit_ok = {}
    mit_ok = {}
    guesses = {}
    for hw in DESIGNS:
        u, guesses[hw] = _crack(unmitigated, secret, hw)
        m, _ = _crack(mitigated, secret, hw)
        unmit_ok[hw] = u.recovered == secret
        mit_ok[hw] = m.recovered == secret
        rows.append((
            hw,
            f"recovered in {guesses[hw]} guesses" if unmit_ok[hw]
            else "failed",
            f"{m.extracted}/{LENGTH} positions"
            + (" (defeated)" if not mit_ok[hw] else ""),
        ))
    report.table(("hardware", "unmitigated checker", "mitigated checker"),
                 rows)

    attack_universal = all(unmit_ok.values())
    defense_universal = not any(mit_ok.values())
    report.expect(
        "the direct channel defeats every hardware design",
        "secure hardware cannot fix control-flow timing (Sec. 2.1)",
        f"{unmit_ok}", attack_universal,
    )
    report.expect(
        "language-level mitigation defeats the adaptive attack",
        "mitigate collapses prefix timings",
        f"{mit_ok}", defense_universal,
    )
    report.line()
    report.line(
        f"attack economics: {max(guesses.values())} timed guesses vs "
        f"{ALPHABET ** LENGTH:,} blind ones -- the exponential-to-linear "
        "collapse timing channels buy an attacker."
    )
    report.emit()
    return attack_universal and defense_universal


def test_password_attack(benchmark):
    ok = benchmark.pedantic(_build_report, rounds=1, iterations=1)
    assert ok
