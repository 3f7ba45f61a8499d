"""Edge cases of the contract checker itself.

The checker is the oracle for the whole verification campaign, so its
degenerate inputs -- empty stimulus budgets, one-point lattices, lattices
with incomparable levels -- must do something sensible rather than crash
or silently report vacuous success as a violation.
"""

import random

import pytest

from repro.hardware import (
    NullHardware,
    StandardHardware,
    run_contract_suite,
    tiny_machine,
)
from repro.hardware.contract import _diverging_labels, random_stimulus
from repro.lattice import Lattice, chain, diamond, two_point


class TestEmptyBudgets:
    def test_zero_trials_is_a_clean_pass(self):
        lattice = two_point()
        report = run_contract_suite(
            lambda: NullHardware(lattice), lattice, trials=0
        )
        assert report.ok()
        assert report.failing_properties() == ()
        # Nothing was checked -- the report must say so, not claim coverage.
        assert sum(report.checked.values(), 0) == 0

    def test_zero_trials_cannot_absolve_leaky_hardware(self):
        # ok() is True with zero checks; the campaign layer guards against
        # reading that as a security verdict (see ModelVerdict.as_expected),
        # but the report itself must at least expose the zero counts.
        lattice = two_point()
        report = run_contract_suite(
            lambda: StandardHardware(lattice, tiny_machine()),
            lattice,
            trials=0,
        )
        assert report.ok()
        assert not report.checked


class TestSingleLevelLattice:
    def test_suite_runs_on_a_one_point_lattice(self):
        lattice = Lattice(["only"], [])
        report = run_contract_suite(
            lambda: NullHardware(lattice), lattice, trials=3
        )
        assert report.ok()
        # P2/P5 are still exercised; P6/P7 run too (the pair construction
        # has no diverging labels, so the environments are simply equal).
        assert report.checked["P2-determinism"] > 0
        assert report.checked["P6-read-label"] > 0

    def test_one_point_lattice_has_no_diverging_labels(self):
        lattice = Lattice(["only"], [])
        (only,) = lattice.levels()
        assert _diverging_labels(lattice, only) == []


class TestDivergingLabels:
    """_diverging_labels picks write labels that cannot reach <= level."""

    def test_two_point_low(self):
        lattice = two_point()
        low, high = lattice.bottom, lattice.top
        pairs = _diverging_labels(lattice, low)
        assert pairs  # H diverges from an ~L pair
        assert all(write == high for _, write in pairs)

    def test_top_never_diverges(self):
        for lattice in (two_point(), chain(("L", "M", "H")), diamond()):
            assert _diverging_labels(lattice, lattice.top) == []

    def test_chain_middle(self):
        lattice = chain(("L", "M", "H"))
        pairs = _diverging_labels(lattice, lattice["M"])
        assert {write.name for _, write in pairs} == {"H"}

    def test_diamond_incomparable_level(self):
        # At level M1 of the diamond (L <= M1,M2 <= H): below(M1) = {L, M1}.
        # M2 is incomparable to M1, so both M2 and H diverge; writes at L or
        # M1 obviously reach <= M1 and must be excluded.
        lattice = diamond()
        pairs = _diverging_labels(lattice, lattice["M1"])
        writes = {write.name for _, write in pairs}
        assert writes == {"M2", "H"}
        # Every level may appear as the *read* label of a diverging step.
        reads = {read.name for read, _ in pairs}
        assert reads == {level.name for level in lattice.levels()}

    def test_diamond_bottom_sees_everything_else(self):
        lattice = diamond()
        pairs = _diverging_labels(lattice, lattice.bottom)
        assert {write.name for _, write in pairs} == {"M1", "M2", "H"}


class TestRandomStimulus:
    def test_respects_pinned_labels(self):
        lattice = two_point()
        rng = random.Random(0)
        pool = [0x1000_0000, 0x1000_0018]
        for _ in range(50):
            stim = random_stimulus(
                rng, lattice, pool, pool,
                labels=(lattice.bottom, lattice.top),
            )
            assert stim.read_label == lattice.bottom
            assert stim.write_label == lattice.top

    def test_branch_steps_carry_an_outcome(self):
        lattice = two_point()
        rng = random.Random(1)
        pool = [0x1000_0000]
        from repro.hardware import StepKind

        for _ in range(100):
            stim = random_stimulus(rng, lattice, pool, pool)
            if stim.kind is StepKind.BRANCH:
                assert stim.trace.taken in (True, False)
            else:
                assert stim.trace.taken is None
