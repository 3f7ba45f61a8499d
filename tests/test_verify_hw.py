"""The verification campaign: case checking, serialization, replay."""

import json
from pathlib import Path

import pytest

from repro.hardware import REGISTRY, NullHardware, StepKind, tiny_machine
from repro.hardware.contract import (
    ContractCase,
    Stimulus,
    Violation,
    check_case,
    shrink_case,
)
from repro.hardware.registry import HardwareRegistry, HardwareSpec
from repro.hardware.verify import (
    COUNTEREXAMPLE_SCHEMA,
    campaign_point,
    case_from_dict,
    case_to_dict,
    counterexample_to_dict,
    lattice_from_dict,
    lattice_to_dict,
    measure_end_to_end,
    point_seed,
    replay_counterexample,
    run_campaign,
    stimulus_from_dict,
    stimulus_to_dict,
)
from repro.lattice import diamond, two_point
from repro.machine.layout import AccessTrace

GOLDEN = Path(__file__).parent / "golden" / "counterexample_writeback.json"

#: Instruction addresses for hand-built cases, 24 bytes apart so that on
#: the tiny machine (8-byte blocks, 2 sets, 64-byte pages) they share sets
#: and pages.
CODE_POOL = tuple(0x0040_0000 + i * 24 for i in range(8))


def _stim(kind, instruction, read, write, reads=(), writes=(), taken=None):
    return Stimulus(
        kind,
        AccessTrace(
            instruction=instruction, reads=reads, writes=writes, taken=taken
        ),
        read,
        write,
    )


class TestCheckCase:
    def test_null_hardware_passes_any_case(self):
        lattice = two_point()
        low, high = lattice.bottom, lattice.top
        case = ContractCase(
            level=low,
            shared=(_stim(StepKind.ASSIGN, CODE_POOL[0], low, low,
                          reads=(0x1000_0000,)),),
            divergent=(_stim(StepKind.ASSIGN, CODE_POOL[1], high, high,
                             writes=(0x1000_0018,)),),
            probe=_stim(StepKind.ASSIGN, CODE_POOL[0], low, low,
                        reads=(0x1000_0000,)),
        )
        assert check_case(lambda: NullHardware(lattice), lattice, case) == ()

    def test_hand_built_bus_case_breaks_p6(self):
        lattice = two_point()
        low, high = lattice.bottom, lattice.top
        spec = REGISTRY.get("bus")
        # One high step enqueues bus traffic; the low probe stalls behind it.
        case = ContractCase(
            level=low,
            shared=(),
            divergent=(_stim(StepKind.SKIP, CODE_POOL[0], high, high),),
            probe=_stim(StepKind.SKIP, CODE_POOL[0], low, low),
        )
        violations = check_case(
            lambda: spec.make(lattice, tiny_machine()), lattice, case
        )
        assert violations[0].prop == "P6-read-label"

    def test_hand_built_speculative_case_breaks_p6(self):
        lattice = two_point()
        low, high = lattice.bottom, lattice.top
        spec = REGISTRY.get("speculative")
        # The divergence phase trains the shared predictor taken; the low
        # probe branch then mispredicts only on the trained environment.
        train = _stim(StepKind.BRANCH, CODE_POOL[0], low, high, taken=True)
        case = ContractCase(
            level=low,
            shared=(),
            divergent=(train, train),
            probe=_stim(StepKind.BRANCH, CODE_POOL[0], low, low, taken=False),
        )
        violations = check_case(
            lambda: spec.make(lattice, tiny_machine()), lattice, case
        )
        assert violations[0].prop == "P6-read-label"

    def test_p5_violation_does_not_hide_a_later_p6(self):
        lattice = two_point()
        low, high = lattice.bottom, lattice.top
        # The shared mitigate step stamps low state under lw=H (P5), but on
        # both sides, so the pair stays ~L-equivalent and the low probe
        # still pays for the extra high step only one side ran (P6).
        case = ContractCase(
            level=low,
            shared=(_stim(StepKind.MITIGATE, CODE_POOL[0], high, high),),
            divergent=(_stim(StepKind.SKIP, CODE_POOL[1], high, high),),
            probe=_stim(StepKind.SKIP, CODE_POOL[0], low, low),
        )
        violations = check_case(lambda: MarkAndMeter(lattice), lattice, case)
        assert [v.prop for v in violations] == [
            "P5-write-label", "P6-read-label"
        ]

        registry = HardwareRegistry()
        registry.register(HardwareSpec(
            name="markmeter",
            factory=lambda lattice, params=None: MarkAndMeter(lattice),
            summary="stamps low state from high mitigates; meters high steps",
            expected_secure=False,
            violates=("P5-write-label", "P6-read-label"),
            lattice_points=("two_point",),
        ))
        doc = counterexample_to_dict(
            model="markmeter", lattice_point="two_point", param_point="tiny",
            seed=0, violation=violations[0], case=case, lattice=lattice,
        )
        assert replay_counterexample(
            json.loads(json.dumps(doc)), registry
        ) == violations[0]


class MarkAndMeter(NullHardware):
    """Two deliberate bugs on a stateful null machine: a mitigate step
    stamps bottom-level state whatever its write label (P5), and every
    step's cost counts the top level's steps (P6)."""

    def __init__(self, lattice, costs=None):
        super().__init__(lattice, costs)
        self.marks = 0
        self.traffic = 0

    def step(self, kind, trace, read_label, write_label):
        cost = super().step(kind, trace, read_label, write_label)
        cost += self.traffic
        if kind is StepKind.MITIGATE:
            self.marks += 1
        if write_label == self.lattice.top:
            self.traffic += 1
        return cost

    def project(self, level):
        if level == self.lattice.bottom:
            return self.marks
        if level == self.lattice.top:
            return self.traffic
        return ()

    def clone(self):
        twin = super().clone()
        twin.marks, twin.traffic = self.marks, self.traffic
        return twin


class TestSerialization:
    def test_lattice_round_trip(self):
        for lattice in (two_point(), diamond()):
            twin = lattice_from_dict(lattice_to_dict(lattice))
            assert [l.name for l in twin.levels()] == [
                l.name for l in lattice.levels()
            ]
            for a in lattice.levels():
                for b in lattice.levels():
                    assert a.flows_to(b) == twin[a.name].flows_to(twin[b.name])

    def test_stimulus_round_trip(self):
        lattice = two_point()
        stim = _stim(
            StepKind.BRANCH, CODE_POOL[2], lattice.bottom, lattice.top,
            reads=(0x1000_0000, 0x1000_0018), writes=(0x1000_0030,),
            taken=True,
        )
        doc = json.loads(json.dumps(stimulus_to_dict(stim)))
        assert stimulus_from_dict(doc, lattice) == stim

    def test_case_round_trip(self):
        lattice = two_point()
        low, high = lattice.bottom, lattice.top
        case = ContractCase(
            level=low,
            shared=(_stim(StepKind.SKIP, CODE_POOL[0], low, low),),
            divergent=(_stim(StepKind.ASSIGN, CODE_POOL[1], high, high,
                             writes=(0x1000_0000,)),),
            probe=_stim(StepKind.ASSIGN, CODE_POOL[0], low, low,
                        reads=(0x1000_0000,)),
        )
        assert case_from_dict(case_to_dict(case), lattice) == case

    def test_counterexample_survives_json(self):
        lattice = two_point()
        low = lattice.bottom
        case = ContractCase(
            level=low, shared=(), divergent=(),
            probe=_stim(StepKind.SKIP, CODE_POOL[0], low, low),
        )
        doc = counterexample_to_dict(
            model="null", lattice_point="two_point", param_point="tiny",
            seed=42, violation=Violation("P6-read-label", "demo"),
            case=case, lattice=lattice,
        )
        twin = json.loads(json.dumps(doc))
        assert twin["schema"] == COUNTEREXAMPLE_SCHEMA
        assert twin["seed"] == 42
        restored = case_from_dict(
            twin["case"], lattice_from_dict(twin["lattice"])
        )
        assert restored.probe.kind is StepKind.SKIP

    def test_replay_rejects_foreign_schema(self):
        with pytest.raises(ValueError, match="schema"):
            replay_counterexample({"schema": "something/else"})


class TestGoldenCounterexample:
    """The stored write-back counterexample must keep reproducing.

    This is the regression net for the whole replay path: JSON -> lattice ->
    case -> fresh environments -> the exact violation the campaign found.
    """

    def test_golden_writeback_replays_to_p6(self):
        violation = replay_counterexample(GOLDEN)
        assert violation is not None
        assert violation.prop == "P6-read-label"

    def test_golden_file_matches_schema(self):
        doc = json.loads(GOLDEN.read_text())
        assert doc["schema"] == COUNTEREXAMPLE_SCHEMA
        assert doc["model"] == "writeback"
        assert doc["violation"]["prop"] == "P6-read-label"


class TestShrink:
    def test_padded_bus_case_shrinks_to_one_divergent_step(self):
        lattice = two_point()
        low, high = lattice.bottom, lattice.top
        spec = REGISTRY.get("bus")
        factory = lambda: spec.make(lattice, tiny_machine())
        padding = _stim(StepKind.ASSIGN, CODE_POOL[3], low, low,
                        reads=(0x1000_0000,), writes=(0x1000_0018,))
        case = ContractCase(
            level=low,
            shared=(padding, _stim(StepKind.SKIP, CODE_POOL[2], low, low),
                    padding),
            divergent=(
                _stim(StepKind.SKIP, CODE_POOL[4], high, high),
                _stim(StepKind.ASSIGN, CODE_POOL[5], high, high,
                      reads=(0x1000_0030,)),
                _stim(StepKind.BRANCH, CODE_POOL[6], low, high, taken=True),
            ),
            probe=_stim(StepKind.SKIP, CODE_POOL[0], low, low),
        )
        assert check_case(factory, lattice, case)[0].prop == "P6-read-label"
        shrunk = shrink_case(factory, lattice, case, "P6-read-label")
        assert shrunk.shared == ()
        assert len(shrunk.divergent) == 1
        assert shrunk.probe == case.probe
        assert check_case(factory, lattice, shrunk)[0].prop == (
            "P6-read-label"
        )

    def test_a_move_that_changes_the_first_property_is_not_kept(self):
        lattice = two_point()
        low, high = lattice.bottom, lattice.top
        factory = lambda: MarkAndMeter(lattice)
        # Without the shared mitigate step the case still fails, but P6
        # first, not P5: so the shrinker keeps the step.
        case = ContractCase(
            level=low,
            shared=(_stim(StepKind.MITIGATE, CODE_POOL[0], high, high),),
            divergent=(_stim(StepKind.SKIP, CODE_POOL[1], high, high),),
            probe=_stim(StepKind.SKIP, CODE_POOL[0], low, low),
        )
        shrunk = shrink_case(factory, lattice, case, "P5-write-label")
        assert shrunk.shared == case.shared
        assert check_case(factory, lattice, shrunk)[0].prop == (
            "P5-write-label"
        )

    def test_addresses_move_only_where_the_property_still_fails(self):
        # A stimulus-independent leak: every address can merge into the
        # smallest one, and the shrunk case still breaks P6 first.
        lattice = two_point()
        low, high = lattice.bottom, lattice.top
        spec = REGISTRY.get("bus")
        factory = lambda: spec.make(lattice, tiny_machine())
        case = ContractCase(
            level=low,
            shared=(),
            divergent=(_stim(StepKind.SKIP, CODE_POOL[5], high, high),),
            probe=_stim(StepKind.SKIP, CODE_POOL[1], low, low),
        )
        shrunk = shrink_case(factory, lattice, case, "P6-read-label")
        assert shrunk.divergent[0].trace.instruction == CODE_POOL[1]
        assert check_case(factory, lattice, shrunk)[0].prop == (
            "P6-read-label"
        )


class TestCampaignPoint:
    def test_finds_bus_violation_and_is_reproducible(self):
        lattice = two_point()
        spec = REGISTRY.get("bus")
        factory = lambda: spec.make(lattice, tiny_machine())
        first = campaign_point(factory, lattice, max_examples=60, seed=3)
        assert first["violation"] is not None
        assert first["violation"].prop == "P6-read-label"
        # Same seed, same generation: the shrunk case comes back identical.
        second = campaign_point(factory, lattice, max_examples=60, seed=3)
        assert second["case"] == first["case"]

    def test_same_seed_gives_the_same_shrunk_case(self):
        lattice = two_point()
        spec = REGISTRY.get("frequency")
        factory = lambda: spec.make(lattice, tiny_machine())
        first = campaign_point(factory, lattice, max_examples=150, seed=0)
        second = campaign_point(factory, lattice, max_examples=150, seed=0)
        assert first["violation"] is not None
        assert second["case"] == first["case"]
        assert second["violation"] == first["violation"]
        # The violation is the shrunk case's own.
        assert check_case(factory, lattice, first["case"])[0] == (
            first["violation"]
        )

    def test_database_replays_stored_failures(self, tmp_path):
        # A fresh search at seed 2 first finds the speculative leak at
        # example 22, so two examples miss it: a detection at that budget
        # can only come from the stored counterexample.
        fresh = run_campaign(
            models=["speculative"], max_examples=2, seed=2, quantify=False,
        )
        assert not fresh.ok()
        first = run_campaign(
            models=["speculative"], max_examples=150, seed=2,
            quantify=False, counterexample_dir=tmp_path,
        )
        assert first.ok()
        second = run_campaign(
            models=["speculative"], max_examples=2, seed=2,
            quantify=False, counterexample_dir=tmp_path,
        )
        assert second.ok()
        (verdict,) = second.verdicts
        assert verdict.detected
        assert verdict.examples == 1

    def test_database_drops_stale_entries(self, tmp_path):
        # Each stored document below must be discarded, and the null point
        # searched afresh: the golden write-back counterexample relabelled
        # as null's (it cannot reproduce there), the same document with a
        # field of the wrong type, the golden itself (another point's),
        # and files that do not parse.
        golden = json.loads(GOLDEN.read_text())
        stale = dict(golden, model="null")
        malformed = json.loads(json.dumps(stale))
        malformed["case"]["probe"]["trace"]["reads"] = 5
        stored = tmp_path / "counterexample_null_two_point_tiny.json"
        for content in (
            json.dumps(stale).encode(), json.dumps(malformed).encode(),
            json.dumps(golden).encode(), b"[1, 2]", b"{", b"\xff",
        ):
            stored.write_bytes(content)
            result = run_campaign(
                models=["null"], lattice_points=["two_point"],
                max_examples=5, seed=0, quantify=False,
                counterexample_dir=tmp_path,
            )
            assert result.ok(), content
            assert not stored.exists(), content

    def test_point_seed_is_stable_and_point_specific(self):
        a = point_seed(0, "bus", "two_point", "tiny")
        assert a == point_seed(0, "bus", "two_point", "tiny")
        assert a != point_seed(0, "bus", "two_point", "scaled8")
        assert a != point_seed(1, "bus", "two_point", "tiny")


class TestCampaign:
    def test_secure_subset_passes(self):
        result = run_campaign(
            models=["null"], max_examples=15, seed=0, quantify=False
        )
        assert result.ok()
        assert {v.lattice_point for v in result.verdicts} == {
            "two_point", "chain3", "diamond"
        }
        assert all(not v.detected for v in result.verdicts)

    def test_insecure_point_writes_replayable_counterexample(self, tmp_path):
        result = run_campaign(
            models=["bus"], max_examples=60, seed=3, quantify=False,
            counterexample_dir=tmp_path,
        )
        assert result.ok()
        (verdict,) = result.verdicts
        assert verdict.detected
        path = tmp_path / "counterexample_bus_two_point_tiny.json"
        assert path.exists()
        assert replay_counterexample(path) is not None

    def test_undetected_insecure_model_is_a_surprise(self):
        # A spec that *claims* to leak but is actually the null design can
        # never be detected: the campaign must flag it, not quietly pass.
        from repro.hardware.registry import HardwareRegistry, HardwareSpec

        registry = HardwareRegistry()
        registry.register(HardwareSpec(
            name="imposter",
            factory=lambda lattice, params=None: NullHardware(lattice),
            summary="claims a leak it does not have",
            expected_secure=False,
            violates=("P6-read-label",),
            lattice_points=("two_point",),
        ))
        result = run_campaign(
            registry, max_examples=20, seed=0, quantify=False
        )
        assert not result.ok()
        (verdict,) = [v for v in result.verdicts if not v.as_expected()]
        assert verdict.model == "imposter"
        assert not verdict.detected

    def test_leaky_model_claiming_secure_is_a_surprise(self):
        # The other direction: an expected-secure spec wrapping the bus
        # model must be falsified, and the falsification is a surprise.
        from repro.hardware.registry import HardwareRegistry, HardwareSpec
        from repro.hardware import SharedBusHardware

        registry = HardwareRegistry()
        registry.register(HardwareSpec(
            name="optimist",
            factory=SharedBusHardware,
            summary="ships the shared bus, claims the contract",
            expected_secure=True,
            lattice_points=("two_point",),
        ))
        result = run_campaign(
            registry, max_examples=60, seed=3, quantify=False
        )
        assert not result.ok()
        (verdict,) = [v for v in result.verdicts if not v.as_expected()]
        assert verdict.model == "optimist"
        assert verdict.detected


class TestEndToEnd:
    def test_partitioned_hardware_yields_one_probe_class(self):
        leak = measure_end_to_end(REGISTRY.get("partitioned"), secrets=4)
        assert leak.probe_classes == 1
        assert leak.probe_bits == 0.0
        # The unmitigated victims still leak on the direct channel --
        # that is the mitigation's job, not the hardware's.
        assert leak.direct_classes > 1

    def test_standard_hardware_leaks_through_probes(self):
        leak = measure_end_to_end(REGISTRY.get("standard"), secrets=4)
        assert leak.probe_classes > 1
        assert leak.probe_bits > 0.0

    def test_as_dict_is_json_safe(self):
        leak = measure_end_to_end(REGISTRY.get("null"), secrets=2)
        doc = json.loads(json.dumps(leak.as_dict()))
        assert doc["secrets"] == 2
        assert doc["probe_classes"] == 1
