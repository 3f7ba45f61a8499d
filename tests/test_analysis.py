"""The static-analysis engine: collector, lints, audit, renderers."""

import glob
import math
import os
import re

import pytest

from repro.analysis import (
    analyze_program,
    analyze_source,
    audit_leakage,
    collect_typing_diagnostics,
    render_json,
    render_lint,
    render_sarif,
)
from repro.analysis.engine import DirectiveError, LintOptions, parse_directives
from repro.analysis.rules import RULES
from repro.lang import B, parse
from repro.lang.parser import DEFAULT_LATTICE
from repro.typesystem import SecurityEnvironment, infer_labels

LINT_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "lint")

GAMMA_HL = {"h": "H", "l": "L"}


def analyze(source, **kw):
    options = LintOptions(**{"gamma": GAMMA_HL, **kw})
    return analyze_source(source, path="test.tl", options=options)


def codes(result):
    return [d.code for d in result.diagnostics]


class TestCollector:
    """The error-recovering type checker (TL001-TL009)."""

    def test_reports_every_violation_in_one_run(self):
        result = analyze(
            "l := h;\n"
            "if h > 0 then { l := 1 } else { skip };\n"
            "sleep(h)\n",
            lints=False,
        )
        assert "TL001" in codes(result)
        assert "TL002" in codes(result)
        assert len(result.diagnostics) >= 3

    def test_explicit_flow_alone(self):
        result = analyze("l := h\n", lints=False)
        assert codes(result) == ["TL001"]

    def test_implicit_flow_from_pc(self):
        result = analyze(
            "if h > 0 then { l := 1 } else { skip }\n", lints=False
        )
        assert "TL002" in codes(result)
        assert "TL001" not in codes(result)

    def test_timing_flow_from_prefix(self):
        result = analyze("sleep(h);\nl := 0\n", lints=False)
        assert codes(result) == ["TL003"]
        (diag,) = result.diagnostics
        assert diag.span.line == 2

    def test_flow_violations_decompose(self):
        # One failing T-ASGN whose value, pc, and timing all break: three
        # separate diagnostics at the same node.
        result = analyze(
            "if h > 0 then { sleep(h); l := h } else { skip }\n",
            lints=False,
        )
        at_assign = [d for d in result.diagnostics
                     if d.code in ("TL001", "TL002", "TL003")]
        assert sorted(d.code for d in at_assign) == [
            "TL001", "TL002", "TL003"
        ]
        assert len({d.node_id for d in at_assign}) == 1

    def test_while_fixpoint_does_not_duplicate(self):
        result = analyze(
            "while l < 4 do { x := h };\nl := x\n",
            gamma={"h": "H", "l": "L", "x": "L"},
            lints=False,
        )
        assert codes(result) == ["TL001"]

    def test_write_label_violation(self):
        result = analyze(
            "if h > 0 then { skip [L,L] } else { skip [H,H] }\n",
            lints=False,
        )
        assert "TL004" in codes(result)

    def test_mitigate_level_violation(self):
        result = analyze(
            "mitigate(1, L) { sleep(h) [H,H] }\n", lints=False
        )
        assert "TL005" in codes(result)

    def test_array_index_leak(self):
        result = analyze(
            "x := a[h] [L,L]\n",
            gamma={"a": "L", "h": "H", "x": "H"},
            lints=False,
        )
        assert codes(result) == ["TL006"]

    def test_missing_label_without_inference(self):
        result = analyze("l := 1\n", infer=False, lints=False)
        assert "TL007" in codes(result)

    def test_cache_label_mismatch(self):
        result = analyze(
            "l := 1 [L,H]\n", require_cache_labels=True, lints=False
        )
        assert "TL008" in codes(result)

    def test_unbound_variable(self):
        result = analyze("x := y + 1\n", gamma={"x": "L"}, lints=False)
        assert "TL009" in codes(result)
        diag = next(d for d in result.diagnostics if d.code == "TL009")
        assert "'y'" in diag.message

    def test_typing_info_still_produced(self):
        result = analyze("l := h\n", lints=False)
        assert result.typing is not None
        assert result.typing.end_label is not None

    def test_collect_typing_diagnostics_direct(self):
        program = infer_labels(
            parse("l := h\n"),
            SecurityEnvironment(DEFAULT_LATTICE, {
                "h": DEFAULT_LATTICE["H"], "l": DEFAULT_LATTICE["L"],
            }),
        )
        gamma = SecurityEnvironment(DEFAULT_LATTICE, {
            "h": DEFAULT_LATTICE["H"], "l": DEFAULT_LATTICE["L"],
        })
        diags, info = collect_typing_diagnostics(program, gamma)
        assert [d.code for d in diags] == ["TL001"]
        assert info.end_label is not None


class TestLints:
    """The AST lint passes (TL010-TL016)."""

    def test_secret_sleep_with_fix(self):
        result = analyze("sleep(h)\n")
        diag = next(d for d in result.diagnostics if d.code == "TL010")
        assert diag.fix is not None
        assert "mitigate(1, H)" in diag.fix

    def test_degenerate_budget(self):
        result = analyze("mitigate(2 - 2, H) { sleep(h) }\n")
        diag = next(d for d in result.diagnostics if d.code == "TL011")
        assert "constantly 0" in diag.message
        assert "mitigate(1, H)" in diag.fix

    def test_redundant_nested_mitigate(self):
        result = analyze(
            "mitigate(1, H) { mitigate(1, H) { sleep(h) } }\n"
        )
        assert "TL012" in codes(result)

    def test_secret_guarded_loop(self):
        result = analyze("while h > 0 do { h := h - 1 }\n")
        assert "TL013" in codes(result)

    def test_useless_mitigate(self):
        result = analyze("mitigate(1, H) { l := 1 };\nx := l\n",
                         gamma={"l": "L", "x": "L"})
        diag = next(d for d in result.diagnostics if d.code == "TL014")
        assert diag.fix == "l := 1 [L,L]"

    def test_unused_variable(self):
        result = analyze("tmp := 5;\nout := tmp + 1\n",
                         gamma={"tmp": "L", "out": "L"})
        unused = [d for d in result.diagnostics if d.code == "TL015"]
        assert len(unused) == 1
        assert "'out'" in unused[0].message

    def test_unreachable_branch_and_loop(self):
        result = analyze(
            "if 0 then { l := 1 } else { skip };\n"
            "while 0 do { l := 2 };\nx := l\n",
            gamma={"l": "L", "x": "L"},
        )
        unreachable = [d for d in result.diagnostics if d.code == "TL016"]
        assert len(unreachable) == 2

    def test_clean_program_is_clean(self):
        result = analyze("l := 1;\nout := l + 1;\nready := out\n",
                         gamma={"l": "L", "out": "L", "ready": "L"})
        assert [d.code for d in result.diagnostics] == ["TL015"]  # ready


class TestSpans:
    """Diagnostics carry real source positions; builder ASTs fall back."""

    def test_every_parsed_diagnostic_has_a_real_span(self):
        result = analyze(
            "l := h;\nsleep(h);\nwhile h > 0 do { h := h - 1 }\n"
        )
        assert result.diagnostics
        for diag in result.diagnostics:
            assert not diag.span.is_synthetic, diag
            assert diag.location().startswith("test.tl:")
            assert re.search(r":\d+:\d+$", diag.location())

    def test_builder_programs_fall_back_to_node_ids(self):
        lat = DEFAULT_LATTICE
        b = B(lat)
        program = b.assign("l", b.v("h"), lat["L"], lat["L"])
        gamma = SecurityEnvironment(lat, {"h": lat["H"], "l": lat["L"]})
        result = analyze_program(program, gamma)
        diag = next(d for d in result.diagnostics if d.code == "TL001")
        assert diag.span.is_synthetic
        assert "node#" in diag.location()

    def test_diagnostics_sorted_by_position(self):
        result = analyze("sleep(h);\nl := h\n")
        lines = [d.span.line for d in result.diagnostics]
        assert lines == sorted(lines)


class TestDirectives:
    def test_parse_directives(self):
        found = parse_directives(
            "// gamma: h=H, l=L\n"
            "// levels: L,M,H\n"
            "// adversary: L\n"
            "// infer: off\n"
            "// require-cache-labels\n"
            "// just a comment\n"
            "skip [L,L]\n"
            "// gamma: ignored=H\n"
        )
        assert found == {
            "gamma": "h=H, l=L",
            "levels": "L,M,H",
            "adversary": "L",
            "infer": "off",
            "require-cache-labels": "on",
        }

    def test_gamma_directive_binds_names(self):
        result = analyze_source("// gamma: h=H, l=L\nl := h\n")
        assert "TL001" in [d.code for d in result.diagnostics]

    def test_levels_directive_builds_chain(self):
        result = analyze_source(
            "// levels: L,M,H\n// gamma: m=M, l=L\nl := m\n"
        )
        assert "TL001" in [d.code for d in result.diagnostics]

    def test_infer_off_directive(self):
        result = analyze_source("// gamma: l=L\n// infer: off\nl := 1\n")
        assert "TL007" in [d.code for d in result.diagnostics]

    def test_cli_gamma_overrides_directive(self):
        result = analyze_source(
            "// gamma: h=L\nl := h\n",
            options=LintOptions(gamma={"h": "H", "l": "L"}),
        )
        assert "TL001" in [d.code for d in result.diagnostics]

    def test_bad_gamma_directive_raises(self):
        with pytest.raises(DirectiveError):
            analyze_source("// gamma: h=TOPSECRET\nskip [L,L]\n")

    def test_bad_adversary_raises(self):
        with pytest.raises(DirectiveError):
            analyze_source("// adversary: Q\nskip [L,L]\n")

    def test_syntax_error_becomes_tl000(self):
        result = analyze_source("// gamma: l=L\nl := [L,L]\n")
        assert result.fatal
        (diag,) = result.diagnostics
        assert diag.code == "TL000"
        assert diag.span.line == 2


class TestAudit:
    def test_no_mitigates_means_zero_bound(self):
        result = analyze("l := 1\n", gamma={"l": "L"})
        assert result.audit.bound_bits == 0.0
        assert result.audit.sites == ()

    def test_single_relevant_site_bound(self):
        result = analyze("mitigate(4, H) { sleep(h) }\n", horizon=1024)
        audit = result.audit
        assert audit.relevant_count == 1
        assert audit.closure_size == 1
        # |L^| * log2(K+1) * (1 + log2 T) = 1 * 1 * 11
        assert audit.bound_bits == pytest.approx(11.0)
        (site,) = audit.sites
        assert site.relevant
        assert site.contribution_bits == pytest.approx(11.0)

    def test_high_context_site_not_relevant(self):
        result = analyze(
            "if h > 0 then { mitigate(1, H) { sleep(h) } }\n"
            "else { skip }\n"
        )
        (site,) = result.audit.sites
        assert not site.relevant
        assert "high context" in site.reason

    def test_observable_level_not_relevant(self):
        result = analyze("mitigate(1, L) { l := 1 };\nx := l\n",
                         gamma={"l": "L", "x": "L"})
        (site,) = result.audit.sites
        assert not site.relevant
        assert "already observable" in site.reason

    def test_audit_lines_show_the_formula(self):
        result = analyze("mitigate(4, H) { sleep(h) }\n", horizon=1024)
        text = "\n".join(render_lint(
            render_json([], {"test.tl": result.audit})))
        assert "|L^_{L}| = 1" in text
        assert "log2(2)" in text

    def test_audit_respects_adversary_option(self):
        result = analyze_source(
            "// levels: L,M,H\n// gamma: h=H\n"
            "mitigate(1, M) { sleep(h) [H,H] }\n",
            options=LintOptions(adversary="M"),
        )
        # level M is observable at adversary M: not relevant.
        (site,) = result.audit.sites
        assert not site.relevant

    def test_direct_audit_call(self):
        result = analyze("mitigate(4, H) { sleep(h) }\n")
        audit = audit_leakage(
            result.program, result.lattice, result.typing, horizon=2
        )
        assert audit.bound_bits == pytest.approx(
            math.log2(2) * (1 + math.log2(2))
        )


class TestRenderers:
    def _result(self):
        return analyze("l := h;\nsleep(h)\n")

    def test_text_has_excerpt_and_caret(self):
        result = self._result()
        lines = render_lint(render_json(result.diagnostics),
                            {"test.tl": result.source})
        text = "\n".join(lines)
        assert "test.tl:1:1: error[TL001]" in text
        assert "    l := h;" in text
        assert "    ^" in text
        assert "finding" in lines[-1]

    def test_text_clean_summary(self):
        assert render_lint(render_json([])) == ["clean: no findings"]

    def test_json_document(self):
        result = self._result()
        doc = render_json(result.diagnostics, {"test.tl": result.audit})
        assert doc["schema"] == "repro.lint/1"
        assert doc["summary"]["total"] == len(result.diagnostics)
        assert doc["summary"]["by_code"]["TL001"] == 1
        for entry in doc["diagnostics"]:
            assert {"code", "severity", "message", "span"} <= set(entry)
            assert {"line", "column"} <= set(entry["span"])
        assert doc["audit"]["test.tl"]["adversary"] == "L"


SARIF_LEVELS = {"none", "note", "warning", "error"}


def assert_sarif_2_1_0_shape(doc):
    """Structural validation against the SARIF 2.1.0 schema's required
    properties (the schema itself is not vendored; this checks every
    constraint code-scanning ingestion actually relies on)."""
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    assert isinstance(doc["runs"], list) and doc["runs"]
    for run in doc["runs"]:
        driver = run["tool"]["driver"]
        assert isinstance(driver["name"], str) and driver["name"]
        rule_ids = []
        for rule in driver.get("rules", []):
            assert isinstance(rule["id"], str) and rule["id"]
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in SARIF_LEVELS
            rule_ids.append(rule["id"])
        for result in run.get("results", []):
            assert result["message"]["text"]
            assert result["level"] in SARIF_LEVELS
            if "ruleId" in result:
                assert result["ruleId"] in rule_ids
            if "ruleIndex" in result:
                assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            for location in result.get("locations", []):
                physical = location["physicalLocation"]
                assert physical["artifactLocation"]["uri"]
                region = physical["region"]
                assert region["startLine"] >= 1
                assert region["startColumn"] >= 1
                assert region["endLine"] >= region["startLine"]


class TestSarif:
    def test_sarif_shape_validates(self):
        result = analyze("l := h;\nsleep(h)\n")
        assert_sarif_2_1_0_shape(render_sarif(result.diagnostics))

    def test_sarif_shape_validates_empty(self):
        assert_sarif_2_1_0_shape(render_sarif([]))

    def test_sarif_covers_synthetic_spans(self):
        lat = DEFAULT_LATTICE
        b = B(lat)
        program = b.assign("l", b.v("h"), lat["L"], lat["L"])
        gamma = SecurityEnvironment(lat, {"h": lat["H"], "l": lat["L"]})
        result = analyze_program(program, gamma)
        doc = render_sarif(result.diagnostics)
        assert_sarif_2_1_0_shape(doc)

    def test_every_rule_in_driver_table(self):
        doc = render_sarif([])
        ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
        assert ids == list(RULES)


class TestCorpus:
    """Golden sweep: every fixture triggers the rule it is named after."""

    FIXTURES = sorted(
        glob.glob(os.path.join(LINT_DIR, "tl[0-9][0-9][0-9]_*.tl"))
    )

    def test_corpus_is_complete(self):
        named = {os.path.basename(p)[:5].upper() for p in self.FIXTURES}
        assert named == set(RULES)

    @pytest.mark.parametrize(
        "path", FIXTURES, ids=[os.path.basename(p) for p in FIXTURES]
    )
    def test_fixture_triggers_its_rule(self, path):
        expected = os.path.basename(path)[:5].upper()
        with open(path) as handle:
            source = handle.read()
        result = analyze_source(source, path=path)
        assert expected in [d.code for d in result.diagnostics]

    def test_multi_bug_reports_many_rules_in_one_run(self):
        path = os.path.join(LINT_DIR, "multi_bug.tl")
        with open(path) as handle:
            source = handle.read()
        result = analyze_source(source, path=path)
        found = {d.code for d in result.diagnostics}
        assert len(found) >= 8
        assert len(result.diagnostics) >= 10
        for diag in result.diagnostics:
            assert not diag.span.is_synthetic


class TestSarifCompleteness:
    """Code-scanning completeness: columnKind, rule metadata,
    fingerprints, codeFlows -- plus an exact golden-file comparison."""

    GOLDEN_SOURCE = (
        "// gamma: h=H, l=L, x=H\n"
        "mitigate(20, H) {\n"
        "    if h > 0 then {\n"
        "        x := h + 1\n"
        "    } else {\n"
        "        x := h - 1\n"
        "    }\n"
        "}\n"
        ";\n"
        "h := x\n"
        ";\n"
        "if h > 0 then {\n"
        "    l := 1\n"
        "} else {\n"
        "    skip\n"
        "}\n"
    )
    GOLDEN_PATH = os.path.join(
        os.path.dirname(__file__), "golden", "explain.sarif.json"
    )

    def render_golden(self):
        from repro.analysis.render import dump

        result = analyze_source(
            self.GOLDEN_SOURCE, path="golden.tl",
            options=LintOptions(explain=True),
        )
        return dump(render_sarif(result.diagnostics))

    def test_run_declares_column_kind(self):
        doc = render_sarif([])
        assert doc["runs"][0]["columnKind"] == "utf16CodeUnits"

    def test_rules_carry_help_uri_and_full_description(self):
        doc = render_sarif([])
        for rule in doc["runs"][0]["tool"]["driver"]["rules"]:
            assert rule["helpUri"].startswith("http")
            assert rule["id"].lower() in rule["helpUri"]
            assert rule["fullDescription"]["text"]

    def test_fingerprints_are_stable_and_location_sensitive(self):
        result = analyze("l := h;\nl := h\n", lints=False)
        doc = render_sarif(result.diagnostics)
        prints = [
            r["partialFingerprints"]["reproLint/v1"]
            for r in doc["runs"][0]["results"]
        ]
        assert len(prints) == len(set(prints))  # distinct lines differ
        again = render_sarif(result.diagnostics)
        assert prints == [
            r["partialFingerprints"]["reproLint/v1"]
            for r in again["runs"][0]["results"]
        ]

    def test_code_flows_source_to_sink(self):
        result = analyze_source(
            self.GOLDEN_SOURCE, path="golden.tl",
            options=LintOptions(explain=True),
        )
        doc = render_sarif(result.diagnostics)
        assert_sarif_2_1_0_shape(doc)
        flows = [r for r in doc["runs"][0]["results"] if "codeFlows" in r]
        assert flows
        for r in flows:
            steps = r["codeFlows"][0]["threadFlows"][0]["locations"]
            assert steps[0]["location"]["message"]["text"].startswith(
                "[source]")
            assert steps[-1]["location"]["message"]["text"].startswith(
                "[sink]")
            related = r["relatedLocations"]
            assert [loc["id"] for loc in related] == list(range(len(steps)))

    def test_matches_golden_file(self):
        with open(self.GOLDEN_PATH) as handle:
            golden = handle.read()
        assert self.render_golden() == golden
