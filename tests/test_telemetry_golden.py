"""Golden: the telemetry documents the CLI writes, pinned by digest.

Each case is one ``repro run`` or ``repro serve`` invocation writing
``--metrics-out``, ``--trace-out`` and ``--journal-out``; the golden holds
the sha256 of each file (the serve journal alone is ~2 MB, so documents
are not stored).  The cases cover every place the hardware classifies an
access:

* ``examples/mitigate_demo.tl`` on all 9 registry models;
* a program with array reads (``examples/tune/password.tl``) and one with
  an ``lr != lw`` step, the partitioned design's bypass path
  (``examples/lint/tl008_cache_label.tl``), on ``partitioned``,
  ``nofill``, ``standard`` and ``leakytlb``;
* ``mitigate_demo`` again on a machine with a branch predictor
  (``MachineParams(branch=BranchPredictorParams())``), so ``hw.branch.*``
  is exercised;
* ``examples/service/basic.json`` under each scheduler policy, plus the
  gateway's per-tenant registries.

Two more entries pin the whole metrics document of a recorded run that
raises (``max_steps`` exhausted, an out-of-bounds read): counters recorded
before the error must survive it.

The cases above also write a trace and a journal, so a sink consumes
every step.  The ``metrics_only`` section pins the runs no such sink
observes: ``repro run --metrics-out`` alone on all 9 models, ``repro
serve --metrics-out`` alone under each policy together with the
gateway's per-tenant registries, and one lone metrics recorder whose run
exhausts ``max_steps``.

Regenerate (only for an intended change to a telemetry document)::

    PYTHONPATH=src python tests/test_telemetry_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro import api, cli
from repro.hardware import BranchPredictorParams, MachineParams
from repro.hardware.registry import REGISTRY
from repro.lang import ast
from repro.semantics.core import EvaluationError
from repro.semantics.mitigation import MitigationState, make_scheme
from repro.service import Gateway
from repro.service.workload import WorkloadSpec
from repro.telemetry import (
    DynamicLeakageMeter, RecordingTraceRecorder, combine,
)
from repro.telemetry.spans import load_journal, spans_from_journal

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "telemetry_digests.json"
SPEC = "examples/service/basic.json"

DEMO = ["examples/mitigate_demo.tl", "--gamma", "h=H,ready=L",
        "--set", "h=9", "--set", "ready=0"]
PASSWORD = ["examples/tune/password.tl",
            "--gamma", "stored=H,guess=L,ok=H,match=H,done=L",
            "--set", "stored=1:2:3:4", "--set", "guess=1:2:0:0"]
BYPASS = ["examples/lint/tl008_cache_label.tl", "--gamma", "l=L"]
CACHE_MODELS = ("partitioned", "nofill", "standard", "leakytlb")
POLICIES = ("fifo", "rr", "quantized")


def _cases():
    """``{name: (argv, branch_machine)}`` for the CLI cases."""
    cases = {}
    for model in REGISTRY.names():
        cases[f"run/mitigate_demo/{model}"] = (
            ["run", *DEMO, "--hardware", model], False)
    for name, argv in (("password", PASSWORD), ("cache_label", BYPASS)):
        for model in CACHE_MODELS:
            cases[f"run/{name}/{model}"] = (
                ["run", *argv, "--hardware", model], False)
    for model in REGISTRY.names():
        cases[f"branch/mitigate_demo/{model}"] = (
            ["run", *DEMO, "--hardware", model], True)
    for policy in POLICIES:
        cases[f"serve/{policy}"] = (
            ["serve", "--spec", SPEC, "--policy", policy], False)
    return cases


CASES = _cases()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fresh_ids():
    """Number AST nodes from 1, as a fresh process does: generated
    mitigate ids (``m<node id>``) appear in every document, so each case
    must not depend on what the process parsed before it."""
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


def documents(argv, branch_machine: bool,
              kinds=("metrics", "trace", "journal")):
    """Run one CLI invocation from the repo root, writing the telemetry
    documents ``kinds``; the sha256 of each."""
    machine = (MachineParams(branch=BranchPredictorParams())
               if branch_machine else MachineParams())
    with tempfile.TemporaryDirectory() as tmp, _in_root():
        out = {kind: str(Path(tmp) / kind) for kind in kinds}
        with _fresh_ids(), \
                mock.patch.object(cli, "paper_machine", lambda: machine), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main([*argv, *(arg for kind, path in out.items()
                               for arg in (f"--{kind}-out", path))])
        return {kind: _sha256(Path(path).read_bytes())
                for kind, path in out.items()}


def _registries(registries) -> dict:
    return {name: _sha256(json.dumps(registry.as_dict()).encode())
            for name, registry in sorted(registries.items())}


def tenant_documents(policy: str):
    """The sha256 of each tenant registry's document after serving."""
    spec = WorkloadSpec.from_dict(
        {**json.loads((ROOT / SPEC).read_text()), "policy": policy})
    with _fresh_ids():
        result = Gateway(spec).serve()
    return _registries(result.tenant_registries)


RAISING = """
i := 0;
while i < 6 do {
  mitigate(64, L) { s := s + a[i] };
  i := i + 1
}
"""


def raised_registries(length: int, max_steps: int):
    """The metrics documents of a recorded run that raises: ``a`` holds
    ``length`` elements (fewer than 6 reads past its end) and the run may
    take at most ``max_steps`` steps."""
    with _fresh_ids():
        compiled = api.compile_program(RAISING,
                                       {"a": "L", "s": "L", "i": "L"})
    # The run raises, so no result reaches the meter.
    meter = DynamicLeakageMeter(compiled.lattice)
    sinks = (RecordingTraceRecorder(), RecordingTraceRecorder())
    memory = {"a": list(range(1, length + 1)), "s": 0, "i": 0}
    with pytest.raises((EvaluationError, TimeoutError)) as error:
        compiled.run(memory, hardware="partitioned", max_steps=max_steps,
                     recorder=combine(*sinks))
    return {
        "error": type(error.value).__name__,
        "metrics": sinks[0].registry.as_dict(),
        "metered": sinks[1].registry.as_dict(leakage=meter.as_dict()),
    }


RAISED = {
    "max_steps": (8, 9),
    "out_of_bounds": (4, 1000),
}


#: ``{name: argv}``: CLI runs writing ``--metrics-out`` alone.
METRICS_CASES = {
    **{f"run/mitigate_demo/{model}": ["run", *DEMO, "--hardware", model]
       for model in REGISTRY.names()},
    **{f"serve/{policy}": ["serve", "--spec", SPEC, "--policy", policy]
       for policy in POLICIES},
}


def metrics_only(argv):
    """The sha256 of the ``--metrics-out`` document alone and, for a
    serve, of each per-tenant registry the same gateway filled."""
    served = []
    serve = Gateway.serve

    def keep(gateway):
        served.append(serve(gateway))
        return served[-1]
    with mock.patch.object(Gateway, "serve", keep):
        digests = documents(argv, False, kinds=("metrics",))
    if served:
        digests["tenants"] = _registries(served[0].tenant_registries)
    return digests


def raised_alone(max_steps: int):
    """The metrics document of a lone metrics recorder whose run
    exhausts ``max_steps``."""
    with _fresh_ids():
        compiled = api.compile_program(RAISING,
                                       {"a": "L", "s": "L", "i": "L"})
    recorder = RecordingTraceRecorder()
    with pytest.raises(TimeoutError):
        compiled.run({"a": [1, 2, 3, 4, 5, 6], "s": 0, "i": 0},
                     hardware="partitioned", max_steps=max_steps,
                     recorder=recorder)
    return recorder.registry.as_dict()


def render_metrics_only():
    return {
        **{name: metrics_only(argv) for name, argv in METRICS_CASES.items()},
        "raised/max_steps": raised_alone(9),
    }


def render():
    """The golden document."""
    return {
        "documents": {name: documents(*case)
                      for name, case in CASES.items()},
        "tenants": {policy: tenant_documents(policy)
                    for policy in POLICIES},
        "raised": {name: raised_registries(*args)
                   for name, args in RAISED.items()},
        "metrics_only": render_metrics_only(),
    }


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    golden = _golden()
    assert list(golden["documents"]) == list(CASES)
    assert list(golden["tenants"]) == list(POLICIES)
    assert list(golden["raised"]) == list(RAISED)
    assert list(golden["metrics_only"]) == [*METRICS_CASES,
                                            "raised/max_steps"]


@pytest.mark.parametrize("name", list(CASES))
def test_documents_match_golden(name):
    assert documents(*CASES[name]) == _golden()["documents"][name]


@pytest.mark.parametrize("policy", POLICIES)
def test_tenant_registries_match_golden(policy):
    assert tenant_documents(policy) == _golden()["tenants"][policy]


@pytest.mark.parametrize("name", list(RAISED))
def test_raised_run_keeps_its_counters(name):
    expected = _golden()["raised"][name]
    assert raised_registries(*RAISED[name]) == expected
    # The steps taken before the error are all counted.
    assert expected["metrics"]["counters"]["steps.total"] > 0
    assert expected["metrics"]["counters"]["hw.l1d.hits"] > 0


@pytest.mark.parametrize("name", list(METRICS_CASES))
def test_metrics_only_documents_match_golden(name):
    assert (metrics_only(METRICS_CASES[name])
            == _golden()["metrics_only"][name])


def test_metrics_only_raised_run_keeps_its_counters():
    expected = _golden()["metrics_only"]["raised/max_steps"]
    assert raised_alone(9) == expected
    assert expected["counters"]["steps.total"] > 0
    assert expected["counters"]["hw.l1d.hits"] > 0


def test_run_that_raises_still_writes_its_metrics(tmp_path):
    """`run --metrics-out` writes the steps taken before the run raised:
    the document a library-level run with the same ``max_steps`` fills,
    built as the ``raised`` cases build theirs."""
    out = tmp_path / "metrics.json"
    stderr = io.StringIO()
    with _in_root(), _fresh_ids(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(["run", *DEMO, "--max-steps", "5",
                         "--metrics-out", str(out)])
    assert code == 2
    assert stderr.getvalue() == (
        "repro run: program did not terminate within 5 steps\n")

    with _fresh_ids():
        compiled = api.compile_program((ROOT / DEMO[0]).read_text(),
                                       {"h": "H", "ready": "L"})
    meter = DynamicLeakageMeter(compiled.lattice)
    recorder = RecordingTraceRecorder()
    with pytest.raises(TimeoutError):
        compiled.run({"h": 9, "ready": 0}, hardware="partitioned",
                     params=cli.paper_machine(),
                     mitigation=MitigationState(make_scheme("doubling")),
                     max_steps=5, recorder=recorder)
    expected = recorder.registry.as_dict(leakage=meter.as_dict())
    assert expected["counters"]["steps.total"] == 5
    assert json.loads(out.read_text()) == json.loads(json.dumps(expected))


def test_run_that_raises_still_writes_its_trace_and_journal(tmp_path):
    """`run --trace-out --journal-out` writes the spans of the steps taken
    before the run raised: the steps nest under the run span, and every
    span the abort closed says why."""
    trace, journal = tmp_path / "trace.json", tmp_path / "journal.jsonl"
    with _in_root(), _fresh_ids(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", *DEMO, "--max-steps", "5",
                         "--trace-out", str(trace),
                         "--journal-out", str(journal)])
    assert code == 2

    message = "program did not terminate within 5 steps"
    records = load_journal(str(journal))
    assert records[-1] == {"type": "run_abort", "track": 0, "time": 288,
                           "error": message}
    spans = spans_from_journal(records)
    assert [span.name for span in spans if span.category == "command"] == [
        "mitigate", "branch", "assign", "branch", "assign"]
    ids = {span.span_id for span in spans}
    assert all(span.parent_id in ids for span in spans
               if span.parent_id is not None)
    assert [(span.name, span.end) for span in spans
            if "aborted" in span.attrs] == [("run 0", 288), ("m3", 288)]
    assert all(span.attrs["aborted"] == message for span in spans
               if "aborted" in span.attrs)

    events = json.loads(trace.read_text())["traceEvents"]
    assert sum(event["ph"] == "B" for event in events) == len(spans)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_telemetry_golden.py --write")
    GOLDEN.write_text(json.dumps(render(), indent=1) + "\n")
