"""The adversarial hardware zoo: every model leaks exactly as advertised.

Two layers of assurance per model: a unit test that triggers the leak
mechanism by hand (so we know *why* it is insecure), and a contract-suite
run asserting the randomized checker detects it with the declared property
(so we know the checker is not vacuous).
"""

import pytest

from repro.hardware import (
    REGISTRY,
    FrequencyScalingHardware,
    LeakyTlbHardware,
    SharedBusHardware,
    SpeculativeHardware,
    StepKind,
    WriteBackHardware,
    paper_machine,
    run_contract_suite,
    tiny_machine,
)
from repro.hardware.registry import LATTICE_POINTS
from repro.lattice import two_point
from repro.machine.layout import AccessTrace

DATA = 0x1000_0000
CODE = 0x0040_0000


def _labels(lattice):
    low = lattice.bottom
    high = lattice.top
    return low, high


def _skip(env, addr, read, write):
    return env.step(
        StepKind.SKIP, AccessTrace(instruction=CODE, writes=(addr,)), read, write
    )


def _scaled8():
    """The machine `repro contract` checks on."""
    return paper_machine().scaled_down(8)


def _assert_secure(name, machine):
    spec = REGISTRY.get(name)
    for point in spec.lattice_points:
        lattice = LATTICE_POINTS[point]()
        report = run_contract_suite(
            lambda lat=lattice: spec.make(lat, machine()),
            lattice,
            trials=12,
            seed=11,
        )
        assert report.ok(), (
            f"{name} on {point}: {report.failing_properties()}"
        )


def _failing(name, machine):
    spec = REGISTRY.get(name)
    lattice = two_point()
    report = run_contract_suite(
        lambda: spec.make(lattice, machine()),
        lattice,
        trials=40,
        seed=7,
    )
    return spec, report.failing_properties()


SECURE = [s.name for s in REGISTRY.specs(secure=True)]
INSECURE = [s.name for s in REGISTRY.specs(secure=False)]


class TestContractVerdicts:
    """run_contract_suite agrees with every spec's declared verdict."""

    @pytest.mark.parametrize("name", SECURE)
    def test_secure_models_pass(self, name):
        _assert_secure(name, tiny_machine)

    @pytest.mark.parametrize("name", SECURE)
    def test_secure_models_pass_on_scaled8(self, name):
        _assert_secure(name, _scaled8)

    @pytest.mark.parametrize("name", INSECURE)
    def test_insecure_models_detected_with_declared_property(self, name):
        spec, failing = _failing(name, tiny_machine)
        assert failing, f"{name} went undetected"
        assert set(failing) == set(spec.violates), (
            f"{name} violated {failing}, spec declares {spec.violates}"
        )

    @pytest.mark.parametrize("name", INSECURE)
    def test_insecure_models_detected_on_scaled8(self, name):
        spec, failing = _failing(name, _scaled8)
        assert failing, f"{name} went undetected"
        assert set(failing) <= set(spec.violates), (
            f"{name} violated {failing}, spec declares {spec.violates}"
        )


class TestSharedBus:
    def test_queued_traffic_stalls_the_next_step(self):
        lattice = two_point()
        low, high = _labels(lattice)
        quiet = SharedBusHardware(lattice, tiny_machine())
        busy = quiet.clone()
        # High traffic enqueues transactions the low reader must stall behind.
        _skip(busy, DATA, high, high)
        assert quiet.equivalent_to(busy, low)
        probe = AccessTrace(instruction=CODE + 24, reads=(DATA + 24,))
        cost_quiet = quiet.step(StepKind.ASSIGN, probe, low, low)
        cost_busy = busy.step(StepKind.ASSIGN, probe, low, low)
        assert cost_busy > cost_quiet

    def test_queue_drains_and_caps(self):
        lattice = two_point()
        _, high = _labels(lattice)
        env = SharedBusHardware(lattice, tiny_machine())
        for _ in range(10_000):
            _skip(env, DATA, high, high)
        assert env._bus_queue <= SharedBusHardware.QUEUE_CAP


class TestWriteBack:
    def test_high_dirty_lines_tax_low_reads(self):
        lattice = two_point()
        low, high = _labels(lattice)
        params = tiny_machine()
        clean = WriteBackHardware(lattice, params)
        dirty = clean.clone()
        # A high store dirties a block; the conflicting address below maps
        # to the same (tiny, 2-set) cache set but a different block.
        block_bytes = params.l1_data.block_bytes
        victim = DATA
        conflict = DATA + block_bytes * params.l1_data.sets
        _skip(dirty, victim, high, high)
        assert clean.equivalent_to(dirty, low)
        probe = AccessTrace(instruction=CODE, reads=(conflict,))
        cost_clean = clean.step(StepKind.ASSIGN, probe, low, low)
        cost_dirty = dirty.step(StepKind.ASSIGN, probe, low, low)
        assert cost_dirty == cost_clean + WriteBackHardware.WRITEBACK_PENALTY
        # The drain cleared the high dirty bit (legal under P5; the cost
        # already leaked).
        assert not dirty._dirty[high]

    def test_bypassed_steps_owe_no_writebacks(self):
        lattice = two_point()
        low, high = _labels(lattice)
        env = WriteBackHardware(lattice, tiny_machine())
        _skip(env, DATA, high, high)
        before = {level: set(s) for level, s in env._dirty.items()}
        # lr != lw runs uncached: no drain, no new dirty lines.
        env.step(
            StepKind.ASSIGN,
            AccessTrace(instruction=CODE, reads=(DATA + 16,), writes=(DATA + 16,)),
            low,
            high,
        )
        assert env._dirty == before


class TestSpeculative:
    def test_high_training_flips_low_branch_cost(self):
        lattice = two_point()
        low, high = _labels(lattice)
        cold = SpeculativeHardware(lattice, tiny_machine())
        trained = cold.clone()
        taken = AccessTrace(instruction=CODE, taken=True)
        for _ in range(3):
            trained.step(StepKind.BRANCH, taken, high, high)
        assert cold.equivalent_to(trained, low)
        # Same low branch, not taken: the cold predictor (weakly not-taken)
        # predicts right; the high-trained one mispredicts and flushes.
        not_taken = AccessTrace(instruction=CODE, taken=False)
        cost_cold = cold.step(StepKind.BRANCH, not_taken, low, low)
        cost_trained = trained.step(StepKind.BRANCH, not_taken, low, low)
        assert cost_trained == cost_cold + SpeculativeHardware.FLUSH_PENALTY

    def test_mispredict_squashes_wrong_path_fetches(self):
        lattice = two_point()
        low, high = _labels(lattice)
        cold = SpeculativeHardware(lattice, tiny_machine())
        trained = cold.clone()
        for _ in range(3):
            trained.step(
                StepKind.BRANCH, AccessTrace(instruction=CODE, taken=True),
                high, high,
            )
        # Warm both low I-cache partitions with the fall-through blocks.
        for env in (cold, trained):
            for i in range(1, SpeculativeHardware.WINDOW + 1):
                env.step(
                    StepKind.SKIP,
                    AccessTrace(instruction=CODE + i * 8),
                    low, low,
                )
        assert cold.equivalent_to(trained, low)
        not_taken = AccessTrace(instruction=CODE, taken=False)
        cold.step(StepKind.BRANCH, not_taken, low, low)
        trained.step(StepKind.BRANCH, not_taken, low, low)
        # The squash evicted low-partition state: single-step NI is gone.
        assert not cold.equivalent_to(trained, low)


class TestFrequencyScaling:
    def test_high_activity_throttles_low_steps(self):
        lattice = two_point()
        low, high = _labels(lattice)
        cool = FrequencyScalingHardware(lattice, tiny_machine())
        hot = cool.clone()
        # Push the meter into an odd (throttled) thermal window.
        for _ in range(FrequencyScalingHardware.WINDOW):
            hot.step(StepKind.SKIP, AccessTrace(instruction=CODE), high, high)
        assert cool.equivalent_to(hot, low)
        probe = AccessTrace(instruction=CODE + 8)
        cost_cool = cool.step(StepKind.SKIP, probe, low, low)
        cost_hot = hot.step(StepKind.SKIP, probe, low, low)
        assert cost_hot == cost_cool * FrequencyScalingHardware.SLOWDOWN


class TestLeakyTlb:
    def test_high_walk_installs_into_public_tlb(self):
        lattice = two_point()
        low, high = _labels(lattice)
        cold = LeakyTlbHardware(lattice, tiny_machine())
        warm = cold.clone()
        # A high access walk-installs a translation into the shared TLB --
        # a write to bottom-projected state: the Property 5 violation.
        _skip(warm, DATA, high, high)
        assert not cold.equivalent_to(warm, low)

    def test_shared_tlb_is_wider_than_partition_tlbs(self):
        lattice = two_point()
        env = LeakyTlbHardware(lattice, tiny_machine())
        assert env.shared_dtlb.params.ways >= LeakyTlbHardware.MIN_WAYS
        assert env.shared_itlb.params.ways >= LeakyTlbHardware.MIN_WAYS

    def test_low_probe_times_the_victims_page(self):
        lattice = two_point()
        low, high = _labels(lattice)
        cold = LeakyTlbHardware(lattice, tiny_machine())
        warm = cold.clone()
        _skip(warm, DATA, high, high)
        probe = AccessTrace(instruction=CODE, reads=(DATA,))
        # Same page, so the warmed TLB hits where the cold one walks.
        cost_cold = cold.step(StepKind.ASSIGN, probe, low, low)
        cost_warm = warm.step(StepKind.ASSIGN, probe, low, low)
        assert cost_warm < cost_cold
