"""The quantitative leakage solver (``repro.analysis.quantify``), the
mitigation-placement synthesizer (``repro tune``), and the
capacity-backed lints TL026-TL028."""

import json
import math
import os

import pytest

from repro.analysis import analyze_source
from repro.analysis.engine import DirectiveError, LintOptions
from repro.analysis.quantify import (
    _MAX_MISSES,
    deadline_span,
    quantify,
    quantify_all,
    settle_misses,
)
from repro.analysis.rules import LEAKAGE_RULE_CODES
from repro.analysis.synthesize import synthesize
from repro.cli import main
from repro.hardware.registry import REGISTRY
from repro.lang import ast, parse
from repro.semantics.mitigation import make_scheme
from repro.typesystem.environment import SecurityEnvironment

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
LINT_DIR = os.path.join(REPO_ROOT, "examples", "lint")
TUNE_DIR = os.path.join(REPO_ROOT, "examples", "tune")

BRANCH = (
    "if h > 0 then {\n"
    "    x := h + 1;\n"
    "    x := x * 2;\n"
    "    x := x + 3\n"
    "} else {\n"
    "    skip\n"
    "}\n"
)


def _env(**bindings):
    from repro.lang.parser import DEFAULT_LATTICE

    lattice = DEFAULT_LATTICE
    return lattice, SecurityEnvironment(
        lattice, {k: lattice[v] for k, v in bindings.items()}
    )


def _quantify(source, hardware="null", **kw):
    lattice, gamma = _env(h="H", x="H")
    program = parse(source, lattice)
    from repro.typesystem.inference import infer_labels

    infer_labels(program, gamma)
    return quantify(program, gamma, hardware=hardware, **kw), program, gamma


def codes(result):
    return [d.code for d in result.diagnostics]


class TestQuantify:
    def test_secret_branch_forks_one_bit(self):
        report, _, _ = _quantify(BRANCH)
        assert report.classes == 2
        assert report.capacity_bits == pytest.approx(1.0)
        assert not report.saturated

    def test_public_branch_does_not_fork(self):
        lattice, gamma = _env(l="L", x="L")
        program = parse(
            "if l > 0 then { x := 1 } else { x := 2;\nx := 3 }\n",
            lattice,
        )
        report = quantify(program, gamma)
        assert report.capacity_bits == pytest.approx(0.0)

    def test_generous_mitigate_collapses_to_zero(self):
        report, _, _ = _quantify(
            "mitigate(64, H) {\n" + BRANCH + "}\n"
        )
        assert report.capacity_bits == pytest.approx(0.0)
        (site,) = report.sites.values()
        assert site.deadline_classes == 1

    def test_straddling_budget_leaks_through_deadlines(self):
        report, _, _ = _quantify(
            "mitigate(8, H) {\n" + BRANCH + "}\n"
        )
        (site,) = report.sites.values()
        assert site.deadline_classes == 2
        assert report.capacity_bits == pytest.approx(1.0)
        assert any(f.kind == "deadline" for f in report.forks)

    def test_padded_interval_covers_deadlines(self):
        report, _, _ = _quantify(
            "mitigate(8, H) {\n" + BRANCH + "}\n"
        )
        # Arms pad to the 8-cycle and 16-cycle doubling deadlines (plus
        # the mitigate's own entry cost).
        assert report.padded.lo >= 8
        assert report.padded.hi >= 16

    def test_quantify_all_covers_registry(self):
        lattice, gamma = _env(h="H", x="H")
        program = parse(BRANCH, lattice)
        from repro.typesystem.inference import infer_labels

        infer_labels(program, gamma)
        reports = quantify_all(program, gamma)
        assert set(reports) == set(REGISTRY.names())
        # The exact null contract separates the arms; wide cache-model
        # intervals may overlap and legitimately merge the classes.
        assert reports["null"].capacity_bits == pytest.approx(1.0)
        for report in reports.values():
            assert report.capacity_bits >= 0.0

    def test_exceeds_budget(self):
        report, _, _ = _quantify(BRANCH)
        assert report.exceeds(0.5)
        assert not report.exceeds(1.0)
        assert not report.exceeds(2.0)

    @pytest.mark.parametrize("first", [
        # The public loop may settle Miss[L] anywhere from 0 up to the
        # horizon's count.
        "mitigate(1, L) { while l > 0 do { l := l - 1 } }",
        # The widened loop may also run zero times, leaving Miss[L] at 0.
        "while l > 0 do { mitigate(1, L) { sleep(100) }; l := l - 1 }",
    ])
    def test_miss_counter_range_keeps_later_deadlines_sound(self, first):
        # The second site must start from the whole Miss range the first
        # statement leaves, not its top, or h's bit disappears.
        from repro import api

        compiled = api.compile_program(
            first + ";\nmitigate(1, L) { if h > 0 then { sleep(100) } "
            "else { skip } }\n",
            gamma={"l": "L", "h": "H"}, infer=True, check=False,
        )
        report = quantify(compiled.program, compiled.gamma,
                          hardware="null")
        assert report.capacity_bits >= 1.0
        for h in (0, 1):
            run = compiled.run({"l": 0, "h": h}, hardware="null")
            assert report.padded.contains(run.final_time()), (
                h, run.final_time(), report.padded)

    def test_deadline_helpers(self):
        scheme = make_scheme("doubling")
        from repro.hardware.costmodel import Interval

        assert settle_misses(scheme, 8, 0, 7) == 0
        assert settle_misses(scheme, 8, 0, 8) == 1
        lo, hi = deadline_span(scheme, 8, 0, Interval(7, 16), 1 << 20)
        assert (lo, hi) == (0, 2)


def _settle_linear(scheme, budget, misses, elapsed):
    """S-UPDATE one miss at a time, up to the cap: the reference
    ``settle_misses`` must agree with."""
    m = misses
    while (scheme.predict(budget, m) <= elapsed
           and m - misses < _MAX_MISSES):
        m += 1
    return m


class TestSettleMisses:
    """``settle_misses`` bisects where S-UPDATE counts one miss at a
    time; both predictions strictly increase in the Miss count, so the
    least count found is the same, cap included."""

    BUDGETS = (0, 1, 8, 4095, 1 << 20)
    MISSES = (0, 5, 4000)

    @pytest.mark.parametrize("name", ["doubling", "polynomial"])
    def test_equals_the_linear_scan(self, name):
        scheme = make_scheme(name)
        for budget in self.BUDGETS:
            for misses in self.MISSES:
                # Every prediction boundary of the first misses, plus
                # elapsed values below any budget and far past the
                # horizon.
                elapsed = {-(1 << 40), -1, 0, 1, 1 << 20, (1 << 20) + 1,
                           1 << 40, (1 << 40) + 1, 1 << 62}
                for m in (*range(misses, misses + 6),
                          misses + _MAX_MISSES):
                    deadline = scheme.predict(budget, m)
                    elapsed.update((deadline - 1, deadline, deadline + 1))
                for time in sorted(elapsed):
                    assert settle_misses(scheme, budget, misses, time) == (
                        _settle_linear(scheme, budget, misses, time)
                    ), (name, budget, misses, time)

    @pytest.mark.parametrize("name", ["doubling", "polynomial"])
    def test_the_cap_holds(self, name):
        scheme = make_scheme(name)
        beyond = scheme.predict(1, 10_000)
        assert settle_misses(scheme, 1, 0, beyond) == _MAX_MISSES
        assert settle_misses(scheme, 1, 4000, beyond) == 4000 + _MAX_MISSES


def _corpus_programs():
    """Compiling corpus programs, leaving out the syntax fixture and the
    two whose census takes seconds (``multi_bug``, ``tl019``)."""
    left_out = ("tl000_syntax_error.tl", "multi_bug.tl",
                "tl019_shadowed_mitigate.tl")
    return sorted(
        os.path.relpath(os.path.join(directory, name), REPO_ROOT)
        for directory in (os.path.join(REPO_ROOT, "examples"), LINT_DIR,
                          TUNE_DIR)
        for name in os.listdir(directory)
        if name.endswith(".tl") and name not in left_out
    )


class TestTranslation:
    """The census is translation-equivariant in the entry time: starting
    ``P`` 1000 cycles later moves every class by exactly 1000 and changes
    nothing else.  The walker relies on this to walk each state once."""

    SHIFT = 1000

    @staticmethod
    def _compiled(path):
        with open(os.path.join(REPO_ROOT, path)) as handle:
            result = analyze_source(
                handle.read(), path=path,
                options=LintOptions(lints=False, audit=False))
        assert result.program is not None, path
        return result

    def _check(self, program, gamma):
        shifted = ast.seq(ast.Sleep(duration=ast.IntLit(self.SHIFT)),
                          program)
        for scheme in ("doubling", "polynomial"):
            plain = quantify_all(program, gamma, scheme=scheme)
            moved = quantify_all(shifted, gamma, scheme=scheme)
            for model, report in plain.items():
                before, after = report.as_dict(), moved[model].as_dict()
                lo, hi = before.pop("padded")
                assert after.pop("padded") == [
                    lo + self.SHIFT, None if hi is None else hi + self.SHIFT
                ], (scheme, model)
                # Classes, capacity, saturation, sites (body, deadline
                # classes, padded_hi), forks and notes all stay put.
                assert after == before, (scheme, model)

    @pytest.mark.parametrize("path", _corpus_programs())
    def test_written_budgets(self, path):
        result = self._compiled(path)
        self._check(result.program, result.gamma)

    @pytest.mark.parametrize("path", [
        "examples/mitigate_demo.tl", "examples/tune/password.tl",
        "examples/tune/sbox.tl",
    ])
    def test_budget_one(self, path):
        # The tuner's probe: budget 1 fans each site out the furthest.
        result = self._compiled(path)
        for site in ast.mitigates(result.program):
            site.budget = ast.IntLit(1)
        self._check(result.program, result.gamma)


class TestBundles:
    """A budget-1 fan-out is one class per body state that carries all of
    its (deadline, Miss) pairs, through a second site and the commands
    after it; the census still counts every pair."""

    @pytest.mark.parametrize("scheme, pairs", [
        ("doubling", 36), ("polynomial", 496),
    ])
    def test_chained_fan_outs_stay_one_bundle(self, scheme, pairs):
        from repro.analysis.quantify import CensusWalker
        from repro.hardware.costmodel import contract_for

        result = TestTranslation._compiled("examples/tune/sbox.tl")
        for site in ast.mitigates(result.program):
            site.budget = ast.IntLit(1)
        walker = CensusWalker(
            contract_for("standard"), make_scheme(scheme), 1 << 20,
            result.gamma, result.gamma.lattice.bottom,
        )
        (bundle,) = walker.walk(result.program)
        assert len(bundle.pairs) == pairs
        report = quantify(result.program, result.gamma,
                          hardware="standard", scheme=scheme)
        assert report.classes == pairs


class TestSaturation:
    """A census that hits the MAX_CLASSES cap.  Thirteen secret branches
    of distinct lengths make 2^13 classes: the bare census saturates,
    and inside a budget-1 mitigate the saturated body still fans out
    into its deadlines.  Each document is pinned in full, so a change to
    how the walker counts, orders or merges classes shows here."""

    BRANCHES = ";\n".join(
        f"if h > {i} then {{ sleep({2 ** i}) }} else {{ skip }}"
        for i in range(1, 14)
    )

    @staticmethod
    def _forks(first_line):
        return [
            {"line": first_line + i - 1, "kind": "branch", "bits": 1.0,
             "message": "confidential guard with distinguishable arms "
                        f"(then [{2 ** i}, {2 ** i}], else [1, 1]): the "
                        "clock reads the arm taken"}
            for i in range(1, 14)
        ]

    def _census(self, source, scheme):
        lattice, gamma = _env(h="H")
        program = parse(source, lattice)
        from repro.typesystem.inference import infer_labels

        infer_labels(program, gamma)
        return quantify(program, gamma, scheme=scheme).as_dict()

    def test_bare_branches_saturate(self):
        assert self._census(self.BRANCHES, "doubling") == {
            "hardware": "null", "scheme": "doubling", "horizon": 1048576,
            "classes": 4096, "capacity_bits": 12.0, "saturated": True,
            "padded": [52, 16421], "sites": [], "forks": self._forks(1),
            "notes": [],
        }

    @pytest.mark.parametrize("scheme, classes, bits, padded_hi", [
        ("doubling", 10, 3.3219, 32768),
        ("polynomial", 122, 6.9307, 16641),
    ])
    def test_saturated_body_fans_out(self, scheme, classes, bits,
                                     padded_hi):
        source = f"mitigate@sat(1, H) {{\n{self.BRANCHES}\n}}"
        assert self._census(source, scheme) == {
            "hardware": "null", "scheme": scheme, "horizon": 1048576,
            "classes": classes, "capacity_bits": 12.0, "saturated": True,
            "padded": [66, padded_hi + 2],
            "sites": [{
                "mit_id": "sat", "line": 1, "level": "H", "budget": 1,
                "body": [52, 16421], "deadline_classes": classes,
                "deadline_bits": bits, "padded_hi": padded_hi,
            }],
            "forks": self._forks(2) + [{
                "line": 1, "kind": "deadline", "bits": bits,
                "message": "the scheme's deadline sequence quantizes the "
                           f"body cost [52, 16421] into {classes} "
                           "observable padded durations",
            }],
            "notes": [],
        }


class TestLeakageLints:
    """TL026-TL028 fire on their fixture and stay silent on the
    adjacent near-miss."""

    FIRING = {
        "TL026": "tl026_leakage_exceeds_budget.tl",
        "TL027": "tl027_dominated_mitigate.tl",
        "TL028": "tl028_quantum_dominates_leakage.tl",
    }
    NEAR_MISS = {
        "TL026": "near_tl026_budget_covers_capacity.tl",
        "TL027": "near_tl027_snug_budget.tl",
        "TL028": "near_tl028_single_deadline.tl",
    }

    @staticmethod
    def _analyze(name):
        path = os.path.join(LINT_DIR, name)
        with open(path) as handle:
            source = handle.read()
        return analyze_source(source, path=path, options=LintOptions())

    @pytest.mark.parametrize("code", sorted(FIRING))
    def test_fixture_fires_its_code(self, code):
        result = self._analyze(self.FIRING[code])
        assert code in codes(result)
        leaked = set(codes(result)) & set(LEAKAGE_RULE_CODES)
        assert leaked == {code}

    @pytest.mark.parametrize("code", sorted(NEAR_MISS))
    def test_near_miss_is_silent(self, code):
        result = self._analyze(self.NEAR_MISS[code])
        assert not set(codes(result)) & set(LEAKAGE_RULE_CODES)

    def test_tl027_and_tl028_carry_fixits(self):
        for code in ("TL027", "TL028"):
            result = self._analyze(self.FIRING[code])
            diag = next(d for d in result.diagnostics if d.code == code)
            assert diag.fix is not None
            assert "mitigate(" in diag.fix

    def test_budget_directive_validation(self):
        with pytest.raises(DirectiveError):
            analyze_source("// budget: lots\nskip\n")
        with pytest.raises(DirectiveError):
            analyze_source("// budget: -1\nskip\n")
        with pytest.raises(DirectiveError):
            analyze_source("// budget: nan\nskip\n")

    def test_bits_budget_option_overrides_directive(self):
        source = "// gamma: h=H, x=H\n// budget: 2.0\n" + BRANCH
        silent = analyze_source(source)
        assert "TL026" not in codes(silent)
        tight = analyze_source(
            source, options=LintOptions(bits_budget=0.25)
        )
        assert "TL026" in codes(tight)


class TestSynthesize:
    SOURCE = "mitigate(4096, H) {\n" + BRANCH + "}\n;\nh := x\n"

    def _program(self):
        lattice, gamma = _env(h="H", x="H")
        program = parse(self.SOURCE, lattice)
        from repro.typesystem.inference import infer_labels

        infer_labels(program, gamma)
        return program, gamma

    def test_finds_cheaper_feasible_policy(self):
        program, gamma = self._program()
        result = synthesize(program, gamma, bits_budget=0.0)
        assert result.feasible and result.improved
        assert result.best.objective < result.baseline.objective
        for model, bits in result.best.capacity.items():
            assert bits == pytest.approx(0.0), model

    def test_winner_reaudits_within_budget_on_every_model(self):
        program, gamma = self._program()
        result = synthesize(program, gamma, bits_budget=0.0)
        lattice, fresh_gamma = _env(h="H", x="H")
        winner = parse(result.best.source, lattice)
        from repro.typesystem.inference import infer_labels

        infer_labels(winner, fresh_gamma)
        for model in REGISTRY.names():
            report = quantify(winner, fresh_gamma, hardware=model)
            assert not report.exceeds(0.0), model

    def test_deterministic(self):
        program, gamma = self._program()
        first = synthesize(program, gamma, bits_budget=0.0).as_dict()
        program2, gamma2 = self._program()
        second = synthesize(program2, gamma2, bits_budget=0.0).as_dict()
        assert first == second

    def test_infeasible_unbounded_leak(self):
        lattice, gamma = _env(h="H", x="H")
        program = parse(
            "x := 0;\nwhile h > 0 do { x := x + 1;\nh := h - 1 }\n",
            lattice,
        )
        result = synthesize(program, gamma, bits_budget=0.0,
                            models=["null"])
        assert not result.feasible

    NESTED = (
        "mitigate(1, H) {\n"
        "    if h > 0 then { x := h + 1; x := x * 2; x := x + 3 }\n"
        "    else { skip };\n"
        "    mitigate(1, H) { if h > 1 then { x := 1 } else { skip } }\n"
        "}\n"
    )

    def test_nested_sites_get_their_own_options(self):
        # The census lists a site when its walk completes (inner first);
        # budgets follow the program (outer first).  Each site must be
        # offered its own body's tight deadline, not its neighbour's.
        lattice, gamma = _env(h="H", x="H")
        program = parse(self.NESTED, lattice)
        from repro.typesystem.inference import infer_labels

        infer_labels(program, gamma)
        result = synthesize(program, gamma, bits_budget=0.0,
                            models=["null"], placements=("as-written",))
        inner, outer = result.baseline.reports["null"].sites.values()
        assert inner.body.hi < outer.body.hi
        assert result.best.budgets == (outer.body.hi + 1,
                                       inner.body.hi + 1)

    @staticmethod
    def _fixture(name):
        path = os.path.join(LINT_DIR, name)
        with open(path) as handle:
            result = analyze_source(
                handle.read(), path=path,
                options=LintOptions(lints=False, audit=False))
        return result.program, result.gamma

    def test_unreached_site_keeps_its_budget(self):
        # tl020's one mitigate never runs: the census has no facts for
        # it, yet the winner must still give it a budget, and the probe
        # must not be scored a second time as an empty combination.
        program, gamma = self._fixture("tl020_unreachable_mitigate.tl")
        result = synthesize(program, gamma, bits_budget=0.0)
        assert result.best.budgets == (1,)
        assert result.explored == 11

    def test_nested_unbounded_sites_stay_infeasible(self):
        # tl012 nests two mitigates around sleep(h).  No ladder rung
        # exceeds the horizon, so an unbounded body keeps two deadlines
        # and nothing certifies 0 bits (as in the unbounded loop above);
        # reading the inner site's options for the outer one used to.
        program, gamma = self._fixture("tl012_redundant_mitigate.tl")
        result = synthesize(program, gamma, bits_budget=0.0)
        assert not result.feasible

    def test_spec_fragment_shape(self):
        program, gamma = self._program()
        result = synthesize(program, gamma, bits_budget=0.0,
                            models=["null"])
        fragment = result.spec_fragment(tenants=["alice"])
        assert fragment["policy"] == "quantized"
        assert fragment["quantum"] >= 1
        assert fragment["scheme"] in ("doubling", "polynomial")
        assert fragment["tenants"][0]["name"] == "alice"

    def test_as_dict_schema(self):
        program, gamma = self._program()
        doc = synthesize(program, gamma, bits_budget=0.0,
                         models=["null"]).as_dict()
        assert doc["schema"] == "repro.tune/1"
        for key in ("baseline", "best", "spec", "search", "feasible"):
            assert key in doc


class TestTuneCLI:
    FIXTURE = os.path.join(LINT_DIR, "tl028_quantum_dominates_leakage.tl")

    def test_feasible_exit_0(self, capsys):
        rc = main(["tune", self.FIXTURE, "--bits-budget", "0",
                   "--models", "null"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best:" in out and "quantum:" in out

    def test_json_document(self, capsys):
        rc = main(["tune", self.FIXTURE, "--bits-budget", "0",
                   "--models", "null", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.tune/1"
        assert doc["feasible"] is True
        assert doc["spec"]["policy"] == "quantized"

    def test_skipped_placement_cites_the_users_line_once(self, capsys):
        # `repro check` puts the failing assignment at line 8, col 5.
        path = os.path.join(LINT_DIR, "tl018_constant_secret_branch.tl")
        rc = main(["tune", path, "--bits-budget", "0", "--models", "null",
                   "--format", "json"])
        assert rc == 0
        reason = json.loads(
            capsys.readouterr().out)["search"]["skipped_placements"]["auto"]
        assert reason.endswith(
            "wrap the timing-variable code in a mitigate command "
            "(at Assign, line 8, col 5)")
        assert reason.count("(at ") == 1

    def test_infeasible_exit_1(self, tmp_path, capsys):
        path = tmp_path / "leaky.tl"
        path.write_text(
            "// gamma: h=H, x=H\n"
            "x := 0;\nwhile h > 0 do { x := x + 1;\nh := h - 1 }\n"
        )
        rc = main(["tune", str(path), "--bits-budget", "0",
                   "--models", "null"])
        assert rc == 1
        assert "no feasible policy" in capsys.readouterr().out

    def test_budget_directive_is_the_default_budget(self, tmp_path, capsys):
        path = tmp_path / "budgeted.tl"
        path.write_text("// budget: 2\n"
                        + open(self.FIXTURE, encoding="utf-8").read())
        assert main(["tune", str(path), "--models", "null"]) == 0
        assert "(budget 2 bits," in capsys.readouterr().out
        assert main(["tune", str(path), "--bits-budget", "0",
                     "--models", "null"]) == 0
        assert "(budget 0 bits," in capsys.readouterr().out

    def test_negative_budget_exit_2(self, capsys):
        # A bad flag value is an argparse error, made when it is parsed.
        with pytest.raises(SystemExit) as exc:
            main(["tune", self.FIXTURE, "--bits-budget", "-1"])
        assert exc.value.code == 2
        assert "--bits-budget: bits budget must be >= 0" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("bits", ["nan", "inf"])
    def test_non_finite_budget_exit_2(self, bits, tmp_path, capsys):
        # NaN compares false against every capacity: the secret loop
        # that is infeasible at 0 bits would come back "feasible".
        path = tmp_path / "leaky.tl"
        path.write_text(
            "// gamma: h=H, x=H\n"
            "x := 0;\nwhile h > 0 do { x := x + 1;\nh := h - 1 }\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["tune", str(path), "--bits-budget", bits,
                  "--models", "null"])
        assert exc.value.code == 2
        assert "--bits-budget: bits budget must be >= 0 and finite" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("bits", ["nan", "-1"])
    def test_lint_rejects_bad_budget(self, bits, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", self.FIXTURE, "--bits-budget", bits])
        assert exc.value.code == 2
        assert "--bits-budget: bits budget must be >= 0 and finite" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command", [
        ["lint"], ["cost"], ["tune", "--bits-budget", "0"],
    ])
    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_non_positive_horizon_exit_2(self, command, horizon, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command[0], self.FIXTURE, *command[1:],
                  "--horizon", horizon])
        assert exc.value.code == 2
        assert "--horizon: must be >= 1" in capsys.readouterr().err

    def test_unknown_model_exit_2(self, capsys):
        rc = main(["tune", self.FIXTURE, "--bits-budget", "0",
                   "--models", "quantum-annealer"])
        assert rc == 2

    def test_service_objective_requires_spec(self, capsys):
        rc = main(["tune", self.FIXTURE, "--bits-budget", "0",
                   "--objective", "service"])
        assert rc == 2
        assert "--spec" in capsys.readouterr().err

    def test_emit_program_and_spec(self, tmp_path, capsys):
        prog = tmp_path / "tuned.tl"
        spec = tmp_path / "fragment.json"
        rc = main(["tune", self.FIXTURE, "--bits-budget", "0",
                   "--models", "null",
                   "--emit-program", str(prog),
                   "--emit-spec", str(spec)])
        assert rc == 0
        assert "mitigate(" in prog.read_text()
        fragment = json.loads(spec.read_text())
        assert fragment["policy"] == "quantized"
        capsys.readouterr()

    def test_emitted_program_reaudits_clean(self, tmp_path, capsys):
        prog = tmp_path / "tuned.tl"
        rc = main(["tune", self.FIXTURE, "--bits-budget", "0",
                   "--emit-program", str(prog)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["lint", str(prog), "--gamma", "h=H,x=H",
                   "--bits-budget", "0", "--select", "TL026"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out


class TestTuneExamples:
    """The shipped examples/tune/ programs: the synthesized policy beats
    the hand-written baseline and certifies at zero bits."""

    @pytest.mark.parametrize("name", ["password.tl", "sbox.tl"])
    def test_example_improves_over_baseline(self, name, capsys):
        path = os.path.join(TUNE_DIR, name)
        rc = main(["tune", path, "--bits-budget", "0",
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] and doc["improved"]
        assert doc["best"]["objective"] < doc["baseline"]["objective"]
        for model, bits in doc["best"]["capacity_bits"].items():
            assert bits is not None and bits <= 0.0 + 1e-9, model
