"""The software/hardware contract, checked per design (Properties 2, 5-7).

These tests are the paper's claim that implementers can *verify* their
designs: the secure models must pass every property; the commodity baseline
must be caught violating the write-label discipline.
"""

import pytest

from repro.lang import DEFAULT_LATTICE
from repro.lattice import chain, diamond
from repro.hardware import (
    NoFillHardware,
    NullHardware,
    PartitionedHardware,
    StandardHardware,
    run_contract_suite,
    tiny_machine,
)

LAT = DEFAULT_LATTICE

SECURE_FACTORIES = [
    ("null", lambda lat: NullHardware(lat)),
    ("nofill", lambda lat: NoFillHardware(lat, tiny_machine())),
    ("partitioned", lambda lat: PartitionedHardware(lat, tiny_machine())),
]


@pytest.mark.parametrize("name,make", SECURE_FACTORIES)
def test_secure_designs_pass_all_properties(name, make):
    report = run_contract_suite(lambda: make(LAT), LAT, trials=15)
    assert report.ok(), f"{name}: {report.summary()}"


@pytest.mark.parametrize("name,make", SECURE_FACTORIES)
def test_secure_designs_pass_multilevel(name, make):
    lat = chain(("L", "M", "H"))
    report = run_contract_suite(lambda: make(lat), lat, trials=10)
    assert report.ok(), f"{name} on chain: {report.summary()}"


@pytest.mark.parametrize("name,make", SECURE_FACTORIES)
def test_secure_designs_pass_diamond(name, make):
    lat = diamond()
    report = run_contract_suite(lambda: make(lat), lat, trials=10)
    assert report.ok(), f"{name} on diamond: {report.summary()}"


class TestStandardHardwareIsInsecure:
    def test_fails_write_label(self):
        # The Sec. 2.2 implicit flow: high-context steps modify the shared
        # (bottom-level) cache state.
        report = run_contract_suite(
            lambda: StandardHardware(LAT, tiny_machine()), LAT, trials=10
        )
        assert not report.ok("P5-write-label")

    def test_still_deterministic(self):
        report = run_contract_suite(
            lambda: StandardHardware(LAT, tiny_machine()), LAT, trials=10
        )
        assert report.ok("P2-determinism")

    def test_whole_suite_flags_it(self):
        report = run_contract_suite(
            lambda: StandardHardware(LAT, tiny_machine()), LAT, trials=10
        )
        assert "P5-write-label" in report.failing_properties()


class TestDeliberatelyBrokenHardware:
    """The checker must catch each kind of bug, not just pass good designs."""

    def test_nondeterminism_caught(self):
        class Flaky(NullHardware):
            def __init__(self, lattice, costs=None):
                super().__init__(lattice, costs)
                self.counter = 0

            def step(self, kind, trace, read_label, write_label):
                self.counter += 1
                # Cost depends on identity of this instance's history in a
                # way a fresh clone will not reproduce after interleaving.
                return (id(self) % 7) + 1

        report = run_contract_suite(lambda: Flaky(LAT), LAT, trials=5)
        assert not report.ok("P2-determinism")

    def test_read_label_violation_caught(self):
        class LeakyRead(PartitionedHardware):
            def step(self, kind, trace, read_label, write_label):
                cost = super().step(kind, trace, read_label, write_label)
                # Bug: cost depends on the H partition even for lr = L.
                high = self.partitions[self.lattice.top]
                tags = sum(sum(s) for s in high.l1_data.state())
                return cost + tags % 17

        report = run_contract_suite(
            lambda: LeakyRead(LAT, tiny_machine()), LAT, trials=10
        )
        assert not report.ok("P6-read-label")

    def test_single_step_ni_violation_caught(self):
        class LeakyWrite(PartitionedHardware):
            def step(self, kind, trace, read_label, write_label):
                cost = super().step(kind, trace, read_label, write_label)
                # Bug: copy a high line into the low partition whenever the
                # high partition holds the touched address.
                if trace.reads:
                    high = self.partitions[self.lattice.top]
                    low = self.partitions[self.lattice.bottom]
                    if high.holds_data(trace.reads[0]):
                        low.l1_data.touch(trace.reads[0])
                return cost

        report = run_contract_suite(
            lambda: LeakyWrite(LAT, tiny_machine()), LAT, trials=15
        )
        assert not (
            report.ok("P7-single-step-NI") and report.ok("P5-write-label")
        )


class TestReportPlumbing:
    def test_summary_format(self):
        report = run_contract_suite(lambda: NullHardware(LAT), LAT, trials=2)
        text = report.summary()
        assert "P2-determinism" in text
        assert "OK" in text

    def test_failing_properties_sorted(self):
        report = run_contract_suite(
            lambda: StandardHardware(LAT, tiny_machine()), LAT, trials=5
        )
        failing = report.failing_properties()
        assert failing == tuple(sorted(failing))
