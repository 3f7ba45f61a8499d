"""Golden: every shipped corpus program, run on every hardware model.

Each of the 42 corpus files (``examples/*.tl``, ``examples/lint/*.tl``,
``examples/tune/*.tl``) is replayed on each of the 9 registry models
exactly as :func:`repro.analysis.cost.check_corpus` replays it (gamma
and lattice from the file's directives, labels inferred, no type check,
zero-filled default memory).  Per pair the golden pins the outcome
(``checked``, or ``uncompiled``/``skipped`` with the error message), the
step count, the final clock, the mitigate vector and digests of the
event trace and the final memory.  A mitigate is named by its preorder
position, since generated mitigate ids depend on parse order.  Simulated cycles are deterministic, so any change to the
interpreter or a hardware model that moves one cycle shows up here.

Each pair runs twice -- unobserved, and with the same region-recorder +
profiler tee ``check_corpus`` attaches -- and both runs must match.

Each pair's metrics document must also be the same whether the metrics
recorder runs alone (it takes the run's totals, and no sink takes a
step) or tee'd with a span recorder (every step goes to the spans), for
the whole run and for the run cut short by ``max_steps``.

Regenerate (only for an intentional semantic change)::

    PYTHONPATH=src python tests/test_corpus_runs.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import api
from repro.analysis.cost import RegionRecorder, default_memory
from repro.analysis.engine import DirectiveError, resolve_config
from repro.hardware.registry import REGISTRY
from repro.lang import ast
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError
from repro.semantics.core import EvaluationError
from repro.semantics.full import SemanticsError
from repro.telemetry.profiling import Profiler
from repro.telemetry.recorder import (
    RecordingTraceRecorder, TeeRecorder, combine,
)
from repro.telemetry.spans import SpanRecorder
from repro.typesystem.errors import TypingError

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "corpus_runs.json"
CORPUS = ("examples/*.tl", "examples/lint/*.tl", "examples/tune/*.tl")


def corpus():
    """The corpus files, repo-relative, in a fixed order."""
    return [str(path.relative_to(ROOT))
            for pattern in CORPUS for path in sorted(ROOT.glob(pattern))]


def _digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _label(label):
    return None if label is None else label.name


def _compile(path: str):
    """The corpus file compiled as ``check_corpus`` compiles it; raises
    the compile error of a file that does not compile."""
    source = (ROOT / path).read_text()
    return api.compile_program(source, gamma=resolve_config(source).gamma,
                               check=False)


UNCOMPILED = (DirectiveError, LexError, ParseError, TypingError)
FAILED = (EvaluationError, SemanticsError, TimeoutError, KeyError)


def replay(path: str, model: str, observed: bool):
    """One corpus run, reduced to the pinned outcome."""
    try:
        compiled = _compile(path)
    except UNCOMPILED as err:
        return {"status": "uncompiled", "reason": str(err)}
    recorder = TeeRecorder(RegionRecorder(), Profiler()) if observed else None
    try:
        result = compiled.run(default_memory(compiled.program),
                              hardware=model, recorder=recorder)
    except FAILED as err:
        return {"status": "skipped",
                "reason": f"{type(err).__name__}: {err}"}
    sites = [cmd.mit_id for cmd in compiled.program.walk()
             if isinstance(cmd, ast.Mitigate)]
    return {
        "status": "checked",
        "steps": result.steps,
        "cycles": result.final_time(),
        "mitigations": [
            [sites.index(r.mit_id), _label(r.level), r.start_time,
             r.end_time, _label(r.pc_label)]
            for r in result.mitigations
        ],
        "events": _digest([[e.name, e.value, e.time, e.index]
                           for e in result.events]),
        "memory": _digest(result.memory.snapshot()),
    }


def render():
    """The golden document: ``{path: {model: outcome}}``."""
    return {path: {model: replay(path, model, observed=False)
                   for model in REGISTRY.names()}
            for path in corpus()}


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_whole_corpus():
    golden = _golden()
    assert list(golden) == corpus()
    assert len(golden) == 42
    for path, runs in golden.items():
        assert list(runs) == list(REGISTRY.names()), path
    checked = sum(run["status"] == "checked"
                  for runs in golden.values() for run in runs.values())
    assert checked > 0


@pytest.mark.parametrize("path", corpus())
def test_corpus_runs_match_golden(path):
    expected = _golden()[path]
    for model in REGISTRY.names():
        assert replay(path, model, observed=False) == expected[model], model
        assert replay(path, model, observed=True) == expected[model], model


def metrics_documents(compiled, model: str, max_steps: int):
    """The metrics document of one run, recorded alone and tee'd with a
    span recorder, as ``(counter order, document)`` pairs."""
    documents = []
    for spans in (None, SpanRecorder()):
        metrics = RecordingTraceRecorder()
        try:
            compiled.run(default_memory(compiled.program), hardware=model,
                         max_steps=max_steps,
                         recorder=combine(metrics, spans))
        except FAILED:
            pass
        registry = metrics.registry
        documents.append((list(registry.counters),
                          json.dumps(registry.as_dict())))
    return documents


@pytest.mark.parametrize("path", corpus())
def test_metrics_alone_match_metrics_beside_spans(path):
    try:
        compiled = _compile(path)
    except UNCOMPILED:
        return
    for model, run in _golden()[path].items():
        # The whole run, then one that max_steps cuts off halfway.
        for max_steps in (run["steps"], max(run["steps"] // 2, 1)):
            alone, beside_spans = metrics_documents(compiled, model,
                                                    max_steps)
            assert alone == beside_spans, (model, max_steps)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_corpus_runs.py --write")
    GOLDEN.write_text(json.dumps(render(), indent=1, sort_keys=False) + "\n")
