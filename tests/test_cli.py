"""The command-line interface (python -m repro)."""

import glob
import json
import os
import re

import pytest

from repro import __version__
from repro.cli import main

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")

LEAKY = "while h > 0 do { h := h - 1 };\nready := 1\n"
MITIGATED = (
    "mitigate(16, H) { while h > 0 do { h := h - 1 } };\nready := 1\n"
)


@pytest.fixture()
def leaky(tmp_path):
    path = tmp_path / "leaky.tl"
    path.write_text(LEAKY)
    return str(path)


@pytest.fixture()
def mitigated(tmp_path):
    path = tmp_path / "mitigated.tl"
    path.write_text(MITIGATED)
    return str(path)


class TestCheck:
    def test_rejects_leaky(self, leaky, capsys):
        rc = main(["check", leaky, "--gamma", "h=H,ready=L"])
        assert rc == 1
        assert "ILL-TYPED" in capsys.readouterr().out

    def test_accepts_mitigated(self, mitigated, capsys):
        rc = main(["check", mitigated, "--gamma", "h=H,ready=L"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "well-typed" in out
        assert "mitigate" in out

    def test_custom_lattice(self, tmp_path, capsys):
        path = tmp_path / "p.tl"
        path.write_text("m := 1\n")
        rc = main(["check", str(path), "--gamma", "m=M",
                   "--levels", "L,M,H"])
        assert rc == 0

    def test_bad_gamma_spec(self, leaky):
        with pytest.raises(SystemExit):
            main(["check", leaky, "--gamma", "h:H"])

    def test_unknown_level(self, leaky):
        with pytest.raises(SystemExit):
            main(["check", leaky, "--gamma", "h=TOPSECRET"])


LINT_DIR = os.path.join(REPO_ROOT, "examples", "lint")

MULTI_BUG = ("// gamma: h=H, l=L\nl := h;\nsleep(h);\nl := 0;\n"
             "mitigate(0, H) { skip }\n")


@pytest.fixture()
def multi_bug(tmp_path):
    path = tmp_path / "multi_bug.tl"
    path.write_text(MULTI_BUG)
    return str(path)


class TestCheckAll:
    def test_reports_every_violation(self, multi_bug, capsys):
        rc = main(["check", multi_bug, "--all"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "TL001" in out
        assert "TL003" in out
        assert "2:1" in out  # real line:col positions

    def test_all_leaves_welltyped_alone(self, mitigated, capsys):
        rc = main(["check", mitigated, "--all", "--gamma", "h=H,ready=L"])
        assert rc == 0
        assert "well-typed" in capsys.readouterr().out

    def test_all_reports_lint_free_but_ill_typed_only_type_errors(
            self, multi_bug, capsys):
        # --all is the type system only: no TL010+ lint codes.
        main(["check", multi_bug, "--all"])
        out = capsys.readouterr().out
        assert "TL010" not in out

    def test_default_check_output_unchanged(self, leaky, capsys):
        rc = main(["check", leaky, "--gamma", "h=H,ready=L"])
        assert rc == 1
        assert capsys.readouterr().out.startswith("ILL-TYPED")

    def test_all_syntax_error_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.tl"
        path.write_text("l := [L,L]\n")
        rc = main(["check", str(path), "--all"])
        assert rc == 2


class TestLint:
    def test_clean_program_exit_0(self, tmp_path, capsys):
        path = tmp_path / "clean.tl"
        path.write_text("// gamma: l=L, out=L\nl := 1;\nout := l + 1;\n"
                        "l := out\n")
        rc = main(["lint", str(path)])
        assert rc == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_findings_exit_1(self, multi_bug, capsys):
        rc = main(["lint", multi_bug])
        assert rc == 1
        out = capsys.readouterr().out
        assert "TL001" in out and "TL010" in out and "TL011" in out
        assert "findings" in out

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["lint", str(tmp_path / "nope.tl")])
        assert rc == 2
        assert "repro lint" in capsys.readouterr().err

    def test_syntax_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.tl"
        path.write_text("l := [L,L]\n")
        rc = main(["lint", str(path)])
        assert rc == 2
        assert "TL000" in capsys.readouterr().out

    def test_corpus_sweep_covers_rule_catalog(self, capsys):
        fixtures = sorted(glob.glob(os.path.join(LINT_DIR, "*.tl")))
        assert fixtures, "examples/lint corpus missing"
        rc = main(["lint", *fixtures, "--format", "json", "--no-audit"])
        assert rc == 2  # the corpus includes the TL000 syntax fixture
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["summary"]["by_code"]) >= 8

    def test_json_format(self, multi_bug, capsys):
        rc = main(["lint", multi_bug, "--format", "json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.lint/1"
        assert doc["summary"]["total"] >= 3
        assert "audit" in doc

    def test_sarif_format_and_output_file(self, multi_bug, tmp_path,
                                          capsys):
        out_file = tmp_path / "report.sarif"
        rc = main(["lint", multi_bug, "--format", "sarif",
                   "--output", str(out_file)])
        assert rc == 1
        assert "written to" in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]
        assert {r["ruleId"] for r in doc["runs"][0]["results"]} >= {
            "TL001", "TL010"
        }

    def test_gamma_flag_overrides_directive(self, tmp_path, capsys):
        path = tmp_path / "p.tl"
        path.write_text("// gamma: h=L, l=L\nl := h\n")
        rc = main(["lint", str(path), "--gamma", "h=H"])
        assert rc == 1
        assert "TL001" in capsys.readouterr().out

    def test_audit_in_text_output(self, capsys, tmp_path):
        path = tmp_path / "p.tl"
        path.write_text("// gamma: h=H\nmitigate(4, H) { sleep(h) }\n")
        rc = main(["lint", str(path)])
        assert rc == 1  # TL010 inside
        out = capsys.readouterr().out
        assert "static Theorem 2 audit" in out
        assert "relevant" in out

    def test_no_audit_flag(self, capsys, tmp_path):
        path = tmp_path / "p.tl"
        path.write_text("// gamma: h=H\nmitigate(4, H) { sleep(h) }\n")
        main(["lint", str(path), "--no-audit"])
        assert "Theorem 2 audit" not in capsys.readouterr().out

    def test_bad_directive_exit_2(self, tmp_path, capsys):
        path = tmp_path / "p.tl"
        path.write_text("// gamma: h=TOPSECRET\nskip [L,L]\n")
        rc = main(["lint", str(path)])
        assert rc == 2
        assert "unknown security level" in capsys.readouterr().err


class TestLintSelection:
    """`--select` / `--ignore` / `--list-rules`."""

    def test_select_narrows_to_listed_codes(self, multi_bug, capsys):
        rc = main(["lint", multi_bug, "--select", "TL010"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "TL010" in out
        assert "TL001" not in out and "TL011" not in out

    def test_ignore_drops_listed_codes(self, multi_bug, capsys):
        rc = main(["lint", multi_bug, "--ignore", "TL001,TL010"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "TL001" not in out and "TL010" not in out
        assert "TL011" in out

    def test_select_everything_away_exits_0(self, multi_bug, capsys):
        rc = main(["lint", multi_bug, "--select", "TL019"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_codes_are_case_insensitive(self, multi_bug, capsys):
        rc = main(["lint", multi_bug, "--select", "tl010"])
        assert rc == 1
        assert "TL010" in capsys.readouterr().out

    def test_unknown_code_rejected(self, multi_bug, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", multi_bug, "--select", "TL999"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "TL999" in err
        assert "--list-rules" in err

    def test_unknown_code_suggests_nearest(self, multi_bug, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", multi_bug, "--select", "TL01"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean TL" in err

    def test_unknown_ignore_code_rejected(self, multi_bug, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", multi_bug, "--ignore", "TL026,TL9999"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--ignore" in err
        assert "TL9999" in err

    def test_list_rules_catalog(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        from repro.analysis.rules import RULES
        for code, rule in RULES.items():
            assert code in out
            assert rule.name in out
        assert "29 rules" in out

    def test_no_programs_without_list_rules_exit_2(self, capsys):
        rc = main(["lint"])
        assert rc == 2
        assert "--list-rules" in capsys.readouterr().err


class TestFlowCommand:
    FIXTURE = os.path.join(LINT_DIR, "tl021_unbalanced_secret_branch.tl")

    def test_cfg_dot(self, capsys):
        rc = main(["flow", self.FIXTURE, "--dot", "cfg"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph cfg")
        assert "cost" not in out

    def test_cfg_dot_with_costs(self, capsys):
        rc = main(["flow", self.FIXTURE, "--dot", "cfg",
                   "--costs", "partitioned"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "digraph cfg_partitioned" in out
        assert "cost [" in out

    def test_costs_rejects_tdg(self, capsys):
        rc = main(["flow", self.FIXTURE, "--dot", "tdg",
                   "--costs", "null"])
        assert rc == 2
        assert "--dot cfg" in capsys.readouterr().err

    def test_costs_unknown_model(self, capsys):
        rc = main(["flow", self.FIXTURE, "--dot", "cfg",
                   "--costs", "warpdrive"])
        assert rc == 2


class TestInferAndFix:
    def test_infer_prints_annotated(self, leaky, capsys):
        rc = main(["infer", leaky, "--gamma", "h=H,ready=L"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[H,H]" in out and "[L,L]" in out

    def test_fix_produces_welltyped_output(self, leaky, capsys, tmp_path):
        rc = main(["fix", leaky, "--gamma", "h=H,ready=L"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mitigate" in out
        # The printed program must itself check.
        program = "\n".join(
            line for line in out.splitlines() if not line.startswith("//")
        )
        fixed = tmp_path / "fixed.tl"
        fixed.write_text(program)
        assert main(["check", str(fixed), "--gamma", "h=H,ready=L"]) == 0


class TestRun:
    def test_run_mitigated(self, mitigated, capsys):
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0",
                   "--hardware", "partitioned"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "time:" in out
        assert "final ready = 1" in out
        assert "mitigations (DoublingScheme/local):" in out

    def test_run_scheme_and_penalty_flags(self, mitigated, capsys):
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0",
                   "--scheme", "polynomial", "--penalty", "global"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mitigations (PolynomialScheme(q=2)/global):" in out

    def test_run_arrays(self, tmp_path, capsys):
        path = tmp_path / "arr.tl"
        path.write_text("s := a[0] + a[1] + a[2]\n")
        rc = main(["run", str(path), "--gamma", "a=L,s=L",
                   "--set", "a=1:2:3", "--set", "s=0", "--hardware", "null"])
        assert rc == 0
        assert "final s = 6" in capsys.readouterr().out

    def test_gamma_scalars_missing_from_set_default_to_zero(self, tmp_path,
                                                           capsys):
        demo = os.path.join(REPO_ROOT, "examples", "mitigate_demo.tl")
        args = ["run", demo, "--gamma", "h=H,ready=L", "--set", "h=9"]
        assert main(args) == 0
        defaulted = capsys.readouterr().out
        assert main([*args, "--set", "ready=0"]) == 0
        explicit = capsys.readouterr().out
        # Same run either way (mitigate ids differ per compile).
        assert (re.sub(r"m\d+:", "m:", explicit)
                == re.sub(r"m\d+:", "m:", defaulted))
        assert "final ready = 1" in defaulted  # the demo ends ready := 1
        path = tmp_path / "reads.tl"
        path.write_text("s := t + 1\n")
        assert main(["run", str(path), "--gamma", "s=L,t=L",
                     "--hardware", "null"]) == 0
        out = capsys.readouterr().out
        assert "final s = 1" in out and "final t = 0" in out

    def test_unchecked_flag(self, leaky, capsys):
        rc = main(["run", leaky, "--gamma", "h=H,ready=L",
                   "--set", "h=3", "--set", "ready=0", "--unchecked",
                   "--hardware", "null"])
        assert rc == 0


class TestLeakage:
    def test_mitigated_leakage_bounded(self, mitigated, capsys):
        rc = main(["leakage", mitigated, "--gamma", "h=H,ready=L",
                   "--secret", "h", "--values", "0..16",
                   "--hardware", "null"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Theorem 2 holds" in out

    def test_unmitigated_leaks_more(self, leaky, capsys):
        rc = main(["leakage", leaky, "--gamma", "h=H,ready=L",
                   "--secret", "h", "--values", "0..8", "--unchecked",
                   "--hardware", "null"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Q        = 3.000 bits" in out


class TestServe:
    @pytest.fixture()
    def workload(self, tmp_path):
        path = tmp_path / "workload.json"
        path.write_text(json.dumps({
            "seed": 5,
            "requests": 15,
            "policy": "quantized",
            "quantum": 1024,
            "workers": 2,
            "arrival": {"kind": "open", "mean_gap": 1200},
            "tenants": [
                {"name": "a", "app": "login",
                 "config": {"table_size": 4}},
                {"name": "b", "app": "password",
                 "config": {"length": 4}},
                {"name": "c", "app": "sbox", "config": {"length": 4}},
            ],
        }))
        return str(path)

    def test_serve_audits_clean(self, workload, capsys):
        rc = main(["serve", "--spec", workload])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy quantized(q=1024)" in out
        assert "audit: OK" in out

    def test_serve_metrics_out_stdout(self, workload, capsys):
        rc = main(["serve", "--spec", workload, "--metrics-out", "-"])
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["schema"] == "repro.telemetry/1"
        assert doc["service"]["audit_ok"] is True
        assert "audit: OK" in captured.err  # summary moved to stderr

    def test_serve_overrides(self, workload, capsys):
        rc = main(["serve", "--spec", workload, "--policy", "fifo",
                   "--requests", "8", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy fifo" in out
        assert "8 submitted" in out

    def test_serve_outputs_and_report_round_trip(self, workload, tmp_path,
                                                 capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        journal = tmp_path / "j.jsonl"
        rc = main(["serve", "--spec", workload,
                   "--metrics-out", str(metrics),
                   "--trace-out", str(trace),
                   "--journal-out", str(journal)])
        assert rc == 0
        assert json.loads(trace.read_text())  # Chrome trace events exist
        assert journal.read_text().strip()
        capsys.readouterr()
        rc = main(["report", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "service: policy quantized(q=1024)" in out
        assert "service audit: OK" in out

    def test_serve_rejects_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tenants": [], "policy": "fifo"}))
        assert main(["serve", "--spec", str(bad)]) == 2
        bad.write_text("not json")
        assert main(["serve", "--spec", str(bad)]) == 2
        missing = tmp_path / "nope.json"
        assert main(["serve", "--spec", str(missing)]) == 2
        capsys.readouterr()

    def test_serve_rejects_bad_override(self, workload, capsys):
        assert main(["serve", "--spec", workload, "--requests", "0"]) == 2
        capsys.readouterr()

    def test_serve_example_spec_is_shipping_quality(self, capsys):
        spec = os.path.join(REPO_ROOT, "examples", "service", "basic.json")
        raw = json.loads(open(spec).read())
        assert raw["requests"] >= 100
        assert len(raw["tenants"]) >= 3
        assert raw["policy"] == "quantized"


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert f"repro {__version__}" in out

    def test_version_matches_package_metadata(self):
        # The single source of truth is the installed distribution
        # metadata, not a hand-maintained string.
        assert __version__ == "1.0.0"


class TestReport:
    @pytest.fixture()
    def metrics_doc(self, mitigated, tmp_path):
        path = tmp_path / "metrics.json"
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0",
                   "--metrics-out", str(path)])
        assert rc == 0
        return path

    def test_report_on_run_metrics(self, metrics_doc, capsys):
        capsys.readouterr()
        rc = main(["report", str(metrics_doc)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mitigate sites" in out
        assert "leakage verdict" in out
        assert "static Theorem 2 bound" in out
        assert ": ok" in out

    def test_report_on_journal(self, mitigated, capsys, tmp_path):
        journal = tmp_path / "journal.jsonl"
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0",
                   "--journal-out", str(journal)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["report", str(journal)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mitigate sites" in out
        assert "time sinks (top first):" in out

    def test_report_on_committed_bench_metrics(self, capsys):
        path = os.path.join(REPO_ROOT, "benchmarks", "results",
                            "fig7_metrics.json")
        if not os.path.exists(path):
            pytest.skip("benches not yet run in this checkout")
        rc = main(["report", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "leakage verdict" in out
        assert "VIOLATED" not in out

    def test_violated_bound_exits_one(self, metrics_doc, capsys):
        doc = json.loads(metrics_doc.read_text())
        doc["leakage"]["within_bound"] = False
        doc["leakage"]["observed_bits"] = 99.0
        metrics_doc.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["report", str(metrics_doc)])
        assert rc == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys, tmp_path):
        rc = main(["report", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "repro report:" in capsys.readouterr().err

    def test_non_telemetry_document_exits_two(self, capsys, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        rc = main(["report", str(path)])
        assert rc == 2
        assert "repro report:" in capsys.readouterr().err

    def test_truncated_json_exits_two(self, metrics_doc, capsys):
        # A document cut off mid-write (crashed producer, partial copy)
        # must produce a diagnostic, not a traceback.
        metrics_doc.write_text(metrics_doc.read_text()[:200])
        capsys.readouterr()
        rc = main(["report", str(metrics_doc)])
        assert rc == 2
        assert "repro report:" in capsys.readouterr().err

    def test_document_missing_sections_exits_two(self, metrics_doc, capsys):
        # Valid JSON whose expected sections were nulled or dropped used
        # to traceback inside the renderer; it must exit 2 instead.
        doc = json.loads(metrics_doc.read_text())
        doc["timing"] = None
        doc.pop("mitigation", None)
        metrics_doc.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["report", str(metrics_doc)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "truncated or malformed" in err

    def test_non_object_journal_record_exits_two(self, capsys, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            '{"type": "header"}\n{"type": "span"}\n[1, 2, 3]\n'
        )
        rc = main(["report", str(journal)])
        assert rc == 2
        assert "JSON objects" in capsys.readouterr().err

    def test_report_renders_profile_section(self, mitigated, tmp_path,
                                            capsys):
        metrics = tmp_path / "profiled.json"
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0",
                   "--profile", "--metrics-out", str(metrics)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["report", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile (subsystem attribution):" in out
        assert "hardware.partitioned" in out
        assert "total attributed cycles:" in out


class TestProfileFlags:
    def test_run_profile_prints_summary(self, mitigated, capsys):
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "hardware.partitioned" in out
        assert "total attributed cycles:" in out

    def test_run_prom_out_writes_exposition(self, mitigated, tmp_path,
                                            capsys):
        prom = tmp_path / "metrics.prom"
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0",
                   "--prom-out", str(prom)])
        assert rc == 0
        capsys.readouterr()
        text = prom.read_text()
        assert "# TYPE repro_profile_cycles_total counter" in text
        assert 'subsystem="hardware.partitioned"' in text

    def test_serve_profile_reports_tenant_burn_down(self, tmp_path, capsys):
        spec = os.path.join(REPO_ROOT, "examples", "service", "basic.json")
        prom = tmp_path / "serve.prom"
        rc = main(["serve", "--spec", spec, "--requests", "12",
                   "--profile", "--prom-out", str(prom)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "leakage-budget burn-down (bits):" in out
        assert "latency gateway.latency" in out
        text = prom.read_text()
        assert "repro_profile_tenant_budget_bits" in text
        assert 'kind="remaining"' in text

    def test_run_without_profile_stays_quiet(self, mitigated, capsys):
        rc = main(["run", mitigated, "--gamma", "h=H,ready=L",
                   "--set", "h=9", "--set", "ready=0"])
        assert rc == 0
        assert "profile:" not in capsys.readouterr().out


class TestContract:
    def test_partitioned_passes(self, capsys):
        rc = main(["contract", "partitioned", "--trials", "4"])
        assert rc == 0
        assert "all contract properties hold" in capsys.readouterr().out

    def test_nopar_fails(self, capsys):
        rc = main(["contract", "nopar", "--trials", "4"])
        assert rc == 1
        assert "P5-write-label" in capsys.readouterr().out

    def test_unknown_model_is_a_usage_error(self, capsys):
        # argparse enforces the registry-derived choices list.
        with pytest.raises(SystemExit) as excinfo:
            main(["contract", "vaporware"])
        assert excinfo.value.code == 2
        assert "vaporware" in capsys.readouterr().err


class TestVerifyHw:
    def test_list_catalogs_the_zoo(self, capsys):
        rc = main(["verify-hw", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("null", "standard", "writeback", "speculative",
                     "leakytlb"):
            assert name in out
        assert "nopar" in out  # aliases are advertised too

    def test_secure_subset_passes(self, capsys, tmp_path):
        output = tmp_path / "campaign.json"
        rc = main([
            "verify-hw", "--models", "null", "--lattices", "two_point",
            "--max-examples", "15", "--no-quantify",
            "--output", str(output),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "derandomization seed: 0" in out
        assert "campaign passed" in out
        doc = json.loads(output.read_text())
        assert doc["schema"] == "repro.verify-hw.campaign/1"
        assert doc["ok"] is True

    def test_detected_leak_writes_counterexample_artifact(
        self, capsys, tmp_path
    ):
        rc = main([
            "verify-hw", "--models", "bus", "--max-examples", "60",
            "--seed", "3", "--no-quantify",
            "--counterexamples", str(tmp_path),
        ])
        assert rc == 0
        assert "VIOLATED P6-read-label" in capsys.readouterr().out
        artifact = tmp_path / "counterexample_bus_two_point_tiny.json"
        doc = json.loads(artifact.read_text())
        assert doc["schema"] == "repro.verify-hw/1"
        assert doc["model"] == "bus"

    def test_undetected_insecure_model_fails_the_campaign(self, capsys):
        # Two examples cannot find the speculative leak (verified for seed
        # 0): the campaign must fail rather than quietly pass the model.
        rc = main([
            "verify-hw", "--models", "speculative", "--max-examples", "2",
            "--seed", "0", "--no-quantify",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "CAMPAIGN FAILED" in out
        assert "undetected" in out

    def test_unknown_model_is_a_usage_error(self, capsys):
        rc = main(["verify-hw", "--models", "bogus"])
        assert rc == 2
        assert "unknown hardware model" in capsys.readouterr().err

    def test_unknown_lattice_is_a_usage_error(self, capsys):
        rc = main(["verify-hw", "--lattices", "pentagon"])
        assert rc == 2
        assert "pentagon" in capsys.readouterr().err


class TestAttack:
    def test_list_catalogs_the_registry(self, capsys):
        rc = main(["attack", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("password-crack", "password-crack-mitigated",
                     "tag-forge", "contention-probe"):
            assert name in out

    def test_quantized_defeats_every_attack(self, capsys, tmp_path):
        out_path = tmp_path / "campaign.json"
        rc = main(["attack", "--policy", "quantized", "--quick",
                   "--attacks", "password-crack,tag-forge",
                   "--seed", "7", "--output", str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.adversary/1"
        assert doc["cells"]
        assert all(cell["within_budget"] for cell in doc["cells"])
        text = capsys.readouterr().out
        assert "defeated" in text
        assert "campaign: OK" in text

    def test_fifo_satisfies_the_positive_control(self, capsys):
        rc = main(["attack", "--policy", "fifo", "--quick",
                   "--attacks", "password-crack", "--seed", "7",
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["positive_control"]["checked"]
        assert doc["positive_control"]["ok"]
        (cell,) = doc["cells"]
        assert cell["bits_extracted"] > 0
        assert cell["significant"]

    def test_rejects_unknown_policy(self, capsys):
        rc = main(["attack", "--policy", "lifo"])
        assert rc == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_rejects_unknown_attack(self, capsys):
        rc = main(["attack", "--attacks", "port-scan",
                   "--policy", "fifo", "--quick"])
        assert rc == 2
        assert "unknown attack" in capsys.readouterr().err
