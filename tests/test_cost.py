"""The static cycle-cost analyzer: intervals, contracts, soundness,
the cost-backed lints TL021-TL025, and the ``repro cost`` CLI."""

import glob
import json
import os

import pytest

from repro.analysis import analyze_source
from repro.analysis.cost import (
    check_corpus,
    compute_cost,
    default_memory,
    replay_program,
    unpadded_regions,
)
from repro.analysis.engine import LintOptions
from repro.analysis.rules import COST_RULE_CODES
from repro.cli import main
from repro.hardware.costmodel import (
    ZERO,
    CacheGeometry,
    CostContract,
    Interval,
    contract_for,
)
from repro.hardware.registry import REGISTRY
from repro.lang import parse

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
LINT_DIR = os.path.join(REPO_ROOT, "examples", "lint")
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")


def analyze(source, **kw):
    options = LintOptions(**{"gamma": {"h": "H", "l": "L"}, **kw})
    return analyze_source(source, path="test.tl", options=options)


def codes(result):
    return [d.code for d in result.diagnostics]


class TestInterval:
    def test_exact_and_top(self):
        assert Interval.exact(5) == Interval(5, 5)
        assert Interval.exact(5).is_exact
        top = Interval.top(3)
        assert top.hi is None and not top.is_exact

    def test_add_propagates_top(self):
        assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)
        s = Interval(1, 2) + Interval.top(3)
        assert s.lo == 4 and s.hi is None

    def test_join_is_hull(self):
        assert Interval(1, 2).join(Interval(5, 9)) == Interval(1, 9)
        j = Interval(5, 9).join(Interval.top(1))
        assert j.lo == 1 and j.hi is None

    def test_contains(self):
        assert Interval(3, 9).contains(3)
        assert Interval(3, 9).contains(9)
        assert not Interval(3, 9).contains(10)
        assert Interval.top(3).contains(10 ** 9)
        assert not Interval.top(3).contains(2)

    def test_disjoint_and_gap(self):
        a, b = Interval(1, 3), Interval(7, 9)
        assert a.disjoint_from(b) and b.disjoint_from(a)
        assert a.gap(b) == 4
        assert not Interval(1, 5).disjoint_from(Interval(5, 9))
        assert not Interval.top(1).disjoint_from(Interval(100, 100))

    def test_str(self):
        assert str(Interval(1, 2)) == "[1, 2]"
        assert str(Interval.top(4)) == "[4, ⊤]"
        assert ZERO == Interval(0, 0)


class TestContracts:
    """Per-model cost contracts derived from the hardware registry."""

    PROG = ("x := 1;\n"
            "if x > 0 then { y := x + 2 } else { skip }\n")

    def test_every_registry_model_has_a_contract(self):
        program = parse("skip\n")
        for name in REGISTRY.names():
            contract = contract_for(name)
            assert isinstance(contract, CostContract)
            assert compute_cost(program, hardware=name).hardware == name

    def test_unknown_model_rejected(self):
        with pytest.raises(Exception):
            contract_for("nosuch")

    def test_null_model_is_exact(self):
        report = compute_cost(parse(self.PROG))
        assert report.hardware == "null"
        assert report.program.is_exact

    def test_null_contained_in_cache_envelopes(self):
        program = parse(self.PROG)
        exact = compute_cost(program).program
        for name in ("standard", "nofill", "partitioned", "writeback",
                     "speculative", "frequency", "leakytlb"):
            envelope = compute_cost(program, hardware=name).program
            assert envelope.lo <= exact.lo, name
            assert envelope.hi is None or envelope.hi >= exact.hi, name
        # The bus model adds guaranteed queue stalls, raising even the
        # best case above the null floor -- only the ceiling must cover.
        bus = compute_cost(program, hardware="bus").program
        assert bus.hi >= exact.hi

    def test_frequency_stretches_worst_case(self):
        program = parse(self.PROG)
        standard = compute_cost(program, hardware="standard").program
        frequency = compute_cost(program, hardware="frequency").program
        assert frequency.hi == 2 * standard.hi

    def test_geometry_from_l1(self):
        geometry = CacheGeometry.of(contract_for("standard").params.l1_data)
        assert geometry.sets > 1 and geometry.block_bytes > 0
        assert contract_for("null").geometry() is None


class TestComputeCost:
    def test_constant_loop_unrolled_exactly(self):
        bounded = compute_cost(parse(
            "i := 4;\nwhile i > 0 do { i := i - 1 }\n"))
        assert bounded.program.is_exact
        assert not bounded.notes
        (loop,) = bounded.loops.values()
        assert loop.unrolled == 4 and not loop.widened

    def test_unbounded_loop_widens_to_top(self):
        report = compute_cost(parse("while h > 0 do { h := h - 1 }\n"))
        assert report.program.hi is None
        (loop,) = report.loops.values()
        assert loop.widened
        assert report.notes and "unbounded" in report.notes[0].message

    def test_branch_and_mitigate_sites_recorded(self):
        report = compute_cost(parse(
            "mitigate(8, H) { if h > 0 then { x := h } else { skip } }\n"))
        (site,) = report.mitigates.values()
        assert site.budget == 8 and site.initial_prediction == 8
        (branch,) = report.branches.values()
        assert branch.then_interval.lo >= branch.else_interval.lo

    def test_sleep_counts_as_unpadded_time(self):
        report = compute_cost(parse("sleep(10)\n"))
        assert report.program.lo >= 10

    def test_as_dict_round_trips_json(self):
        report = compute_cost(parse(self.SIMPLE), hardware="bus")
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["hardware"] == "bus"
        assert payload["program"] == [report.program.lo, report.program.hi]

    SIMPLE = "x := 1;\ny := x + 2\n"


class TestSoundness:
    """Profiler-replay cross-check: observed unpadded cycles must fall
    inside the static interval, per region, on every hardware model."""

    def test_unpadded_regions_strips_nested_padding(self):
        total, regions = unpadded_regions(
            [("inner", 5, 20, 30), ("outer", 40, 60, 70)], 100)
        # outer window [10, 50] contains inner epoch [10, 30]: the inner
        # 15 cycles of padding are not body work.
        assert dict(regions)["outer"] == 40 - 15
        assert dict(regions)["inner"] == 5
        assert total == 100 - 15 - 20

    def test_default_memory_covers_arrays(self):
        memory = default_memory(parse("a[0] := 1;\nx := a[3]\n"))
        assert isinstance(memory["a"], list) and memory["x"] == 0

    def test_replay_single_program(self):
        check = replay_program(
            "// gamma: h=H, ready=L\n"
            "mitigate(16, H) { h := h + 1 };\nready := 1\n",
            hardware="standard")
        assert check.status == "checked"
        assert not check.violations
        regions = {o.region for o in check.observations}
        assert {"<program>", "<padded>"} <= regions
        assert regions - {"<program>", "<padded>"}

    def test_corpus_sound_on_every_model(self):
        paths = sorted(
            glob.glob(os.path.join(LINT_DIR, "*.tl"))
            + glob.glob(os.path.join(EXAMPLES_DIR, "*.tl")))
        assert paths
        checks = check_corpus(paths)
        assert len(checks) == len(paths) * len(REGISTRY.names())
        violations = [c for c in checks if c.violations]
        assert violations == []
        checked = [c for c in checks if c.status == "checked"]
        assert len(checked) >= len(checks) // 2
        # Only deliberately broken fixtures may skip.
        for check in checks:
            if check.status == "skipped":
                assert os.path.basename(check.path) in {
                    "tl000_syntax_error.tl",
                }, (check.path, check.reason)


FIRING = {
    "TL021": "tl021_unbalanced_secret_branch.tl",
    "TL022": "tl022_mitigate_quantum_insufficient.tl",
    "TL023": "tl023_overprovisioned_mitigate.tl",
    "TL024": "tl024_unbounded_secret_loop_cost.tl",
    "TL025": "tl025_cost_divergent_array_access.tl",
}

NEAR_MISS = {
    "TL021": "near_tl021_balanced_branch.tl",
    "TL022": "near_tl022_budget_covers_body.tl",
    "TL023": "near_tl023_modest_budget.tl",
    "TL024": "near_tl024_unconditional_public_loop.tl",
    "TL025": "near_tl025_single_block_index.tl",
}


def _analyze_fixture(name):
    path = os.path.join(LINT_DIR, name)
    with open(path) as handle:
        source = handle.read()
    return analyze_source(source, path=path, options=LintOptions())


class TestCostLints:
    """TL021-TL025 fire on their fixture and stay silent on the
    adjacent near-miss."""

    @pytest.mark.parametrize("code", sorted(FIRING))
    def test_fixture_fires_exactly_its_code(self, code):
        result = _analyze_fixture(FIRING[code])
        assert codes(result) == [code]

    @pytest.mark.parametrize("code", sorted(NEAR_MISS))
    def test_near_miss_is_silent(self, code):
        result = _analyze_fixture(NEAR_MISS[code])
        assert not set(codes(result)) & set(COST_RULE_CODES)

    def test_tl021_absorbed_by_enclosing_mitigate(self):
        result = analyze(
            "mitigate(16, H) {\n"
            "    if h > 0 then { x := h + 1;\nx := x * 2 }\n"
            "    else { skip }\n"
            "};\nh := x\n",
            gamma={"h": "H", "x": "H"})
        assert "TL021" not in codes(result)

    def test_tl022_skips_degenerate_budget(self):
        result = analyze(
            "mitigate(0, H) { if h > 0 then { x := h } else { skip } }"
            ";\nh := x\n", gamma={"h": "H", "x": "H"})
        assert "TL011" in codes(result)
        assert "TL022" not in codes(result)

    def test_tl024_needs_secret_context(self):
        result = analyze("while l > 0 do { l := l - 1 }\n")
        assert "TL024" not in codes(result)

    def test_shipped_examples_clean_of_cost_family(self):
        for path in sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.tl"))):
            with open(path) as handle:
                source = handle.read()
            result = analyze_source(source, path=path,
                                    options=LintOptions())
            fired = set(codes(result)) & set(COST_RULE_CODES)
            assert not fired, (path, fired)


class TestCostCLI:
    FIXTURE = os.path.join(LINT_DIR, FIRING["TL022"])
    CLEAN = os.path.join(EXAMPLES_DIR, "mitigate_demo.tl")

    def test_text_report_and_exit_1(self, capsys):
        rc = main(["cost", self.FIXTURE])
        assert rc == 1
        out = capsys.readouterr().out
        assert "static cycle-cost analysis" in out
        assert "TL022" in out
        for model in REGISTRY.names():
            assert model in out

    def test_clean_program_exit_0(self, capsys):
        rc = main(["cost", self.CLEAN, "--hardware", "null"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clean: no cost-backed findings" in out

    def test_json_schema(self, capsys):
        rc = main(["cost", self.FIXTURE, "--format", "json",
                   "--hardware", "null", "--hardware", "bus"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.cost/1"
        assert payload["hardware"] == ["null", "bus"]
        (program,) = payload["programs"]
        assert set(program["hardware"]) == {"null", "bus"}
        (site,) = program["sites"]
        assert site["budget"] == 2
        assert site["intervals"]["null"] == [7, 7]
        assert [d["code"] for d in program["diagnostics"]] == ["TL022"]

    def test_sarif_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "cost.sarif"
        rc = main(["cost", self.FIXTURE, "--format", "sarif",
                   "--output", str(out_path)])
        assert rc == 1
        sarif = json.loads(out_path.read_text())
        results = sarif["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["TL022"]

    def test_missing_file_exit_2(self, capsys):
        assert main(["cost", "/nonexistent.tl"]) == 2

    def test_unknown_hardware_exit_2(self, capsys):
        rc = main(["cost", self.CLEAN, "--hardware", "warpdrive"])
        assert rc == 2
        assert "unknown hardware" in capsys.readouterr().err

    def test_syntax_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.tl"
        path.write_text("if h > then {\n")
        assert main(["cost", str(path)]) == 2
