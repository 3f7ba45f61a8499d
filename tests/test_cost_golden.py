"""Golden: the static cost and census documents, pinned by digest.

The cost analysis (``repro cost``, ``repro flow --costs``, the audit's
``cost=[lo, hi]`` column) and the timing-class census (``quantify``,
``repro tune``) read the same walk over the program.  The golden holds
the sha256 of every document either side writes for the shipped corpus
(``examples/*.tl``, ``examples/lint/*.tl``, ``examples/tune/*.tl``):

* ``repro cost --format json`` per corpus file, on all 9 registry models;
* ``repro flow examples/mitigate_demo.tl --dot cfg --costs M`` per model
  (the per-command intervals on the CFG);
* ``quantify_all(...).as_dict()`` per compiling corpus program under the
  ``doubling`` and ``polynomial`` schemes, on the program and tolerant
  Gamma the lint engine builds from the file's directives;
* the same census per compiling program that has a mitigate, with every
  mitigate budget rewritten to 1 (the tuner's probe: the smallest
  budget fans each site out into the most deadline classes);
* ``repro tune --bits-budget 0 --format json`` per tune example, and
  on three infeasible programs whose searches prune nothing
  (:data:`TUNED`): they cover the auto and whole-program skeletons and
  unbounded bodies under both schemes;
* ``repro lint`` text per corpus file (its Theorem 2 audit, on by
  default, carries each site's ``cost=[lo, hi]`` column).

Each case records the exit code next to the digest of stdout.

Regenerate (only for an intended change to one of these documents)::

    PYTHONPATH=src python tests/test_cost_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro import cli
from repro.analysis import analyze_source
from repro.analysis.engine import LintOptions
from repro.analysis.quantify import quantify_all
from repro.hardware.registry import REGISTRY
from repro.lang import ast

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cost_census_digests.json"
CORPUS = ("examples/*.tl", "examples/lint/*.tl", "examples/tune/*.tl")
SCHEMES = ("doubling", "polynomial")
DEMO = ["examples/mitigate_demo.tl", "--gamma", "h=H,ready=L"]
#: The ``repro tune`` cases: every tune example, then the corpus
#: programs whose searches score every candidate.
TUNED = (*sorted(str(path.relative_to(ROOT))
                 for path in ROOT.glob("examples/tune/*.tl")),
         "examples/mitigate_demo.tl",
         "examples/lint/tl012_redundant_mitigate.tl",
         "examples/lint/tl019_shadowed_mitigate.tl")


def corpus():
    """The corpus files, repo-relative, in a fixed order."""
    return [str(path.relative_to(ROOT))
            for pattern in CORPUS for path in sorted(ROOT.glob(pattern))]


def _cli_cases():
    """``{name: argv}`` for the CLI cases."""
    cases = {}
    for path in corpus():
        cases[f"cost/{path}"] = ["cost", path, "--format", "json"]
    for model in REGISTRY.names():
        cases[f"flow/{model}"] = ["flow", *DEMO, "--dot", "cfg",
                                  "--costs", model]
    for path in TUNED:
        cases[f"tune/{Path(path).stem}"] = [
            "tune", path, "--bits-budget", "0", "--format", "json"]
    for path in corpus():
        cases[f"audit/{path}"] = ["lint", path]
    return cases


CLI_CASES = _cli_cases()
CENSUS_CASES = [f"{scheme}/{path}" for scheme in SCHEMES
                for path in corpus()]
#: Census cases of the budget-1 rewrite (``budget1/<scheme>/<path>``),
#: listed for every program that compiles and has a mitigate.
BUDGET1 = "budget1/"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fresh_ids():
    """Number AST nodes from 1, as a fresh process does: generated
    mitigate ids (``m<node id>``) appear in the documents."""
    return mock.patch.object(ast, "_node_counter", itertools.count(1))


@contextlib.contextmanager
def _in_root():
    """Run from the repo root, where the cases' relative paths resolve."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(cwd)


def cli_document(argv):
    """Run one CLI invocation from the repo root: its exit code and the
    sha256 of its stdout."""
    out = io.StringIO()
    with _in_root(), _fresh_ids(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"exit": code, "stdout": _sha256(out.getvalue())}


def _compile(path: str):
    """The lint engine's compile of one corpus file (program is ``None``
    when it does not compile)."""
    return analyze_source(
        (ROOT / path).read_text(), path=path,
        options=LintOptions(lints=False, audit=False))


def _budget1_cases():
    cases = []
    for scheme in SCHEMES:
        for path in corpus():
            with _fresh_ids():
                program = _compile(path).program
            if program is not None and ast.mitigates(program):
                cases.append(f"{BUDGET1}{scheme}/{path}")
    return cases


BUDGET1_CASES = _budget1_cases()


def census_document(case: str):
    """The sha256 of one corpus program's census on every model, or
    ``None`` when the program does not compile."""
    budget1 = case.startswith(BUDGET1)
    scheme, path = case.removeprefix(BUDGET1).split("/", 1)
    with _fresh_ids():
        result = _compile(path)
        if result.program is None:
            return None
        if budget1:
            for site in ast.mitigates(result.program):
                site.budget = ast.IntLit(1)
        reports = quantify_all(result.program, result.gamma, scheme=scheme)
    document = {name: report.as_dict() for name, report in reports.items()}
    return _sha256(json.dumps(document, sort_keys=True))


def render():
    """The golden document."""
    return {
        "cli": {name: cli_document(argv)
                for name, argv in CLI_CASES.items()},
        "census": {case: census_document(case)
                   for case in CENSUS_CASES + BUDGET1_CASES},
    }


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    golden = _golden()
    assert list(golden["cli"]) == list(CLI_CASES)
    assert list(golden["census"]) == CENSUS_CASES + BUDGET1_CASES
    assert len(corpus()) == 42
    assert [name for name in golden["cli"] if name.startswith("tune/")] == [
        "tune/password", "tune/sbox", "tune/mitigate_demo",
        "tune/tl012_redundant_mitigate", "tune/tl019_shadowed_mitigate"]
    # Every compiling program has a census; the syntax fixture does not.
    assert sum(golden["census"][case] is not None
               for case in CENSUS_CASES) >= 80
    assert len(BUDGET1_CASES) == 38


@pytest.mark.parametrize("name", list(CLI_CASES))
def test_cli_documents_match_golden(name):
    assert cli_document(CLI_CASES[name]) == _golden()["cli"][name]


@pytest.mark.parametrize("case", CENSUS_CASES + BUDGET1_CASES)
def test_census_documents_match_golden(case):
    assert census_document(case) == _golden()["census"][case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cost_golden.py --write")
    GOLDEN.write_text(json.dumps(render(), indent=1) + "\n")
