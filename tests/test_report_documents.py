"""`repro report` renders every document the commands write: for lint,
cost, tune, attack and verify-hw, the report of a command's JSON is that
command's own text output (lint without its source excerpts) with the
command's exit code.  `serve`, `leakage` and `run --trace` print the
sections of the telemetry document they write, and the report of that
document shows the same lines as one block, with the same exit code.
SARIF, Chrome traces and counterexamples have readers of their own and
exit 2, named."""

import itertools
import json
import os
import re

import pytest

from repro import cli
from repro.lang import ast

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

LINT_FINDINGS = "examples/lint/tl012_redundant_mitigate.tl"
LINT_CLEAN = "examples/lint/near_tl021_balanced_branch.tl"

#: (id, the command's text invocation, its JSON invocation, and the file
#: the JSON one writes -- None when it prints the document).
CASES = [
    ("lint-findings", ["lint", LINT_FINDINGS],
     ["lint", LINT_FINDINGS, "--format", "json"], None),
    ("lint-explain", ["lint", LINT_FINDINGS, "--explain"],
     ["lint", LINT_FINDINGS, "--explain", "--format", "json"], None),
    ("lint-clean", ["lint", LINT_CLEAN],
     ["lint", LINT_CLEAN, "--format", "json"], None),
    ("cost", ["cost", "examples/mitigate_demo.tl"],
     ["cost", "examples/mitigate_demo.tl", "--format", "json"], None),
    ("tune-feasible",
     ["tune", "examples/tune/password.tl", "--bits-budget", "0"],
     ["tune", "examples/tune/password.tl", "--bits-budget", "0",
      "--format", "json"], None),
    ("tune-infeasible",
     ["tune", "examples/lint/tl019_shadowed_mitigate.tl",
      "--bits-budget", "0"],
     ["tune", "examples/lint/tl019_shadowed_mitigate.tl",
      "--bits-budget", "0", "--format", "json"], None),
    ("attack",
     ["attack", "--quick", "--seed", "0", "--attacks", "tag-forge",
      "--policy", "fifo"],
     ["attack", "--quick", "--seed", "0", "--attacks", "tag-forge",
      "--policy", "fifo", "--format", "json"], None),
    ("verify-hw",
     ["verify-hw", "--models", "null", "--max-examples", "5",
      "--no-quantify"],
     ["verify-hw", "--models", "null", "--max-examples", "5",
      "--no-quantify", "--output", "campaign.json"], "campaign.json"),
]

#: A caret excerpt line of the lint text (flow and fix lines are "    |").
EXCERPT = re.compile(r"^    (?!\|)")


@pytest.fixture
def repro(monkeypatch, capsys):
    """Run one CLI invocation from the repo root, numbering AST nodes
    from 1 as a fresh process does (generated mitigate ids appear in the
    reports): its exit code, stdout and stderr."""
    monkeypatch.chdir(ROOT)

    def run(argv):
        monkeypatch.setattr(ast, "_node_counter", itertools.count(1))
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    return run


def _document(repro, tmp_path, argv, written):
    """The path of the document ``argv`` writes (or prints)."""
    if written is not None:
        argv = [arg if arg != written else str(tmp_path / written)
                for arg in argv]
        repro(argv)
        return str(tmp_path / written)
    _, out, _ = repro(argv)
    path = tmp_path / "document.json"
    path.write_text(out)
    return str(path)


@pytest.mark.parametrize("text_argv, json_argv, written",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_report_is_the_commands_text(repro, tmp_path, text_argv, json_argv,
                                     written):
    code, text, _ = repro(text_argv)
    document = _document(repro, tmp_path, json_argv, written)
    report_code, report, err = repro(["report", document])
    assert err == ""
    if text_argv[0] == "lint":
        text = "".join(line for line in text.splitlines(True)
                       if not EXCERPT.match(line))
    assert report == text
    assert report_code == code


def test_the_cases_cover_both_verdicts(repro):
    """Findings and no findings, a feasible and an infeasible tune."""
    codes = {case[0]: repro(case[1])[0] for case in CASES
             if case[1][0] in ("lint", "tune")}
    assert codes == {"lint-findings": 1, "lint-explain": 1,
                     "lint-clean": 0, "tune-feasible": 0,
                     "tune-infeasible": 1}


def test_failed_campaign_exits_1(repro, tmp_path):
    """Two examples per point miss the frequency leak: the campaign fails,
    and so does its report."""
    argv = ["verify-hw", "--max-examples", "2", "--seed", "0",
            "--no-quantify"]
    code, text, _ = repro(argv)
    document = _document(repro, tmp_path, argv + ["--output", "c.json"],
                         "c.json")
    assert code == 1 and "CAMPAIGN FAILED" in text
    assert repro(["report", document])[:2] == (1, text)


@pytest.fixture
def sarif(repro, tmp_path):
    path = tmp_path / "lint.sarif"
    repro(["lint", LINT_FINDINGS, "--format", "sarif",
           "--output", str(path)])
    return str(path)


@pytest.fixture
def chrome_trace(repro, tmp_path):
    path = tmp_path / "trace.json"
    repro(["run", "examples/mitigate_demo.tl", "--set", "h=3",
           "--trace-out", str(path)])
    return str(path)


@pytest.fixture
def counterexample():
    return os.path.join(ROOT, "tests", "golden",
                        "counterexample_writeback.json")


@pytest.mark.parametrize("document, message", [
    ("sarif", "a SARIF log: open it in a SARIF viewer or code scanning"),
    ("chrome_trace",
     "a Chrome trace: open it in Perfetto or chrome://tracing"),
    ("counterexample",
     "a repro.verify-hw/1 counterexample: replay it with "
     "repro.hardware.verify.replay_counterexample"),
], ids=["sarif", "chrome-trace", "counterexample"])
def test_documents_read_elsewhere_exit_2(repro, request, document, message):
    path = request.getfixturevalue(document)
    code, out, err = repro(["report", path])
    assert (code, out) == (2, "")
    assert err == (f"repro report: document is {message}; repro report "
                   f"does not render it\n")


DEMO = ["examples/mitigate_demo.tl", "--set", "h=9", "--set", "ready=0"]
SERVE = ["serve", "--spec", "examples/service/basic.json",
         "--requests", "24"]
SWEEP = ["leakage", "examples/mitigate_demo.tl", "--secret", "h",
         "--values", "0..4"]
#: Q = 2 bits through sleep(h), no mitigate variation: Theorem 2 fails.
VIOLATED_SWEEP = ["leakage", "examples/lint/tl003_timing_flow.tl",
                  "--secret", "h", "--values", "0..4", "--unchecked"]

#: (id, a command writing a telemetry document, its exit code).
TELEMETRY_CASES = [
    ("serve", SERVE, 0),
    ("serve-profile", SERVE + ["--profile"], 0),
    ("leakage", SWEEP, 0),
    ("leakage-trace", SWEEP + ["--trace"], 0),
    ("leakage-violated", VIOLATED_SWEEP, 1),
    ("run-trace", ["run", *DEMO, "--trace"], 0),
    ("run-trace-profile", ["run", *DEMO, "--trace", "--profile"], 0),
]


def _is_block_of(block, lines):
    """Whether ``block`` is a run of consecutive ``lines``."""
    return any(lines[i:i + len(block)] == block
               for i in range(len(lines) - len(block) + 1))


@pytest.mark.parametrize("argv, want", [case[1:] for case in TELEMETRY_CASES],
                         ids=[case[0] for case in TELEMETRY_CASES])
def test_report_shows_the_printed_section(repro, tmp_path, argv, want):
    document = str(tmp_path / "metrics.json")
    code, out, err = repro(argv + ["--metrics-out", document])
    assert (code, err) == (want, "")
    printed = out.splitlines()
    assert printed.pop() == f"metrics written to {document}"
    if argv[0] == "run":  # no document carries the execution lines
        printed = printed[printed.index("final ready = 1") + 1:]
    report_code, report, err = repro(["report", document])
    assert (report_code, err) == (code, "")
    assert printed and _is_block_of(printed, report.splitlines())


@pytest.mark.parametrize("argv", [SERVE, SWEEP, ["run", *DEMO, "--trace"]],
                         ids=["serve", "leakage", "run"])
def test_metrics_to_stdout_is_json_alone(repro, argv):
    """With ``--metrics-out -`` the document is all of stdout, and the
    command's text moves to stderr as it is."""
    code, out, err = repro(argv + ["--metrics-out", "-"])
    assert code == 0
    assert json.loads(out)["schema"] == "repro.telemetry/1"
    assert err == repro(argv)[1]


@pytest.fixture
def run_document(repro, tmp_path):
    path = tmp_path / "run.json"
    repro(["run", *DEMO, "--metrics-out", str(path)])
    return json.loads(path.read_text())


@pytest.mark.parametrize("section, value", [
    ("service", "policy fifo"),
    ("service", ["fifo"]),
    ("service", {"tenants": {"a": {"audit": 3}}}),
    ("service", {"cross_tenant": [{"advantage": "high"}]}),
    ("sweep", "h in [0, 4)"),
    ("sweep", {"values": [0]}),
    ("sweep", {"values": [0, 4], "q_bits": "two"}),
], ids=["service-string", "service-list", "service-truncated-tenant",
        "service-mistyped-probe", "sweep-string", "sweep-truncated-range",
        "sweep-mistyped-bits"])
def test_malformed_section_exits_2(repro, tmp_path, run_document, section,
                                   value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**run_document, section: value}))
    code, out, err = repro(["report", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("repro report: telemetry document is truncated "
                          "or malformed: ")
    assert "Traceback" not in err
