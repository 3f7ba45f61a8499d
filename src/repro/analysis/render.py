"""Renderers for lint results: human text, JSON, and SARIF 2.1.0.

The text renderer excerpts the offending source line with a caret run
under the flagged span, compiler-style.  The SARIF output follows the
OASIS 2.1.0 schema shape (tool driver with a rule table, results with
``ruleId``/``ruleIndex``, physical locations with 1-based regions) so it
uploads cleanly to code-scanning services.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

from .audit import LeakageAudit
from .diagnostics import Diagnostic, FlowStep
from .rules import RULE_HELP_BASE, RULES

__all__ = [
    "RULE_HELP_BASE",  # re-exported for back-compat; lives in rules.py now
    "SARIF_SCHEMA", "SARIF_VERSION",
    "dump", "model_rows", "render_json", "render_sarif", "render_text",
]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


# -- text ---------------------------------------------------------------------


def model_rows(values: Dict[str, object], indent: str = "    ") -> List[str]:
    """One aligned table row per hardware model: ``<model>  <value>``.

    Shared by ``repro cost`` and ``repro tune`` so per-site ``[lo, hi]``
    tables render identically everywhere.  Preserves the mapping's
    iteration order; values are formatted with ``str``.
    """
    return [f"{indent}{model:<12} {value}" for model, value in values.items()]


def _excerpt(diag: Diagnostic, source: str) -> List[str]:
    lines = source.splitlines()
    if diag.span.is_synthetic or not (1 <= diag.span.line <= len(lines)):
        return []
    text = lines[diag.span.line - 1]
    col = max(diag.span.column, 1)
    if diag.span.end_line == diag.span.line:
        width = max(diag.span.end_column - diag.span.column, 1)
    else:
        width = max(len(text) - col + 1, 1)
    caret = " " * (col - 1) + "^" + "~" * (width - 1)
    return [f"    {text}", f"    {caret}"]


def unread_lines(unread: int) -> List[str]:
    """The summary line of a report with ``unread`` inputs it could not
    read (none when every input was read)."""
    if not unread:
        return []
    return [f"{unread} input{'s' if unread != 1 else ''} not analyzed"]


def render_text(
    diagnostics: Sequence[Diagnostic],
    sources: Optional[Dict[str, str]] = None,
    audits: Optional[Dict[str, LeakageAudit]] = None,
    unread: int = 0,
) -> List[str]:
    """Compiler-style report lines.

    ``sources`` maps path -> source text for line excerpts; ``audits`` maps
    path -> static leakage audit, appended per file after the findings;
    ``unread`` counts the inputs that could not be read, so the report
    does not call them clean.
    """
    sources = sources or {}
    out: List[str] = []
    for diag in diagnostics:
        rule = f" [{diag.rule}]" if diag.rule else ""
        out.append(
            f"{diag.location()}: {diag.severity}[{diag.code}]{rule}: "
            f"{diag.message}"
        )
        if diag.path in sources:
            out.extend(_excerpt(diag, sources[diag.path]))
        if diag.flow:
            out.append("    | flow:")
            for index, step in enumerate(diag.flow, start=1):
                where = "" if step.span.is_synthetic \
                    else f" @ {step.span.line}:{step.span.column}"
                out.append(
                    f"    |   {index}. [{step.kind}]{where} {step.message}"
                )
        if diag.fix is not None:
            fix = diag.fix.replace("\n", "\n    |   ")
            out.append(f"    | fix: {fix}")
    counts: Dict[str, int] = {}
    for diag in diagnostics:
        counts[diag.severity.value] = counts.get(diag.severity.value, 0) + 1
    if diagnostics:
        summary = ", ".join(
            f"{n} {sev}{'s' if n != 1 else ''}"
            for sev, n in sorted(counts.items())
        )
        out.append(f"{len(diagnostics)} finding"
                   f"{'s' if len(diagnostics) != 1 else ''} ({summary})")
    else:
        out.append("no findings" if unread else "clean: no findings")
    out.extend(unread_lines(unread))
    for path, audit in (audits or {}).items():
        out.append("")
        out.append(f"{path}:")
        out.extend(audit.lines())
    return out


# -- JSON ---------------------------------------------------------------------


def render_json(
    diagnostics: Sequence[Diagnostic],
    audits: Optional[Dict[str, LeakageAudit]] = None,
) -> dict:
    """A machine-readable document (schema ``repro.lint/1``)."""
    doc = {
        "schema": "repro.lint/1",
        "diagnostics": [diag.as_dict() for diag in diagnostics],
        "summary": {
            "total": len(diagnostics),
            "by_severity": {},
            "by_code": {},
        },
    }
    for diag in diagnostics:
        by_sev = doc["summary"]["by_severity"]
        by_code = doc["summary"]["by_code"]
        by_sev[diag.severity.value] = by_sev.get(diag.severity.value, 0) + 1
        by_code[diag.code] = by_code.get(diag.code, 0) + 1
    if audits:
        doc["audit"] = {
            path: audit.as_dict() for path, audit in audits.items()
        }
    return doc


# -- SARIF --------------------------------------------------------------------


def _physical_location(path: Optional[str], span) -> dict:
    return {
        "artifactLocation": {"uri": path or "<program>"},
        "region": {
            "startLine": max(span.line, 1),
            "startColumn": max(span.column, 1),
            "endLine": max(span.end_line, 1),
            "endColumn": max(span.end_column, 1),
        },
    }


def _fingerprint(diag: Diagnostic) -> str:
    """A stable identity for one finding across runs.

    Built only from the rule, the file, and the flagged region -- not the
    message text -- so re-running on an unchanged file (or one where only
    diagnostics wording changed) dedupes in code-scanning UIs.
    """
    key = ":".join((
        diag.code,
        diag.path or "<program>",
        str(diag.span.line), str(diag.span.column),
        str(diag.span.end_line), str(diag.span.end_column),
    ))
    return hashlib.sha256(key.encode()).hexdigest()[:32]


def _flow_location(step: FlowStep, path: Optional[str],
                   step_id: Optional[int] = None) -> dict:
    loc = {
        "physicalLocation": _physical_location(path, step.span),
        "message": {"text": f"[{step.kind}] {step.message}"},
    }
    if step_id is not None:
        loc["id"] = step_id
    return loc


def render_sarif(diagnostics: Sequence[Diagnostic]) -> dict:
    """A SARIF 2.1.0 log with one run covering every analyzed file.

    Diagnostics carrying a flow path (``repro lint --explain``) emit it
    twice, per the code-scanning conventions: as a ``codeFlows`` thread
    flow (source first, sink last) and as numbered ``relatedLocations``.
    """
    rule_order = list(RULES)
    rules = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.full_description},
            "helpUri": rule.help_uri,
            "help": {"text": rule.help_text},
            "defaultConfiguration": {"level": rule.sarif_level},
        }
        for rule in RULES.values()
    ]
    results = []
    for diag in diagnostics:
        result = {
            "ruleId": diag.code,
            "ruleIndex": rule_order.index(diag.code),
            "level": diag.severity.sarif_level,
            "message": {"text": diag.message},
            "locations": [{
                "physicalLocation": _physical_location(
                    diag.path, diag.span
                ),
            }],
            "partialFingerprints": {
                "reproLint/v1": _fingerprint(diag),
            },
        }
        if diag.fix is not None:
            result["fixes"] = [{
                "description": {
                    "text": f"Replace with the {RULES[diag.code].name} "
                            "rewrite.",
                },
                "artifactChanges": [{
                    "artifactLocation": {"uri": diag.path or "<program>"},
                    "replacements": [{
                        "deletedRegion": _physical_location(
                            diag.path, diag.span
                        )["region"],
                        "insertedContent": {"text": diag.fix},
                    }],
                }],
            }]
        if diag.flow:
            result["codeFlows"] = [{
                "threadFlows": [{
                    "locations": [
                        {"location": _flow_location(step, diag.path)}
                        for step in diag.flow
                    ],
                }],
            }]
            result["relatedLocations"] = [
                _flow_location(step, diag.path, step_id=index)
                for index, step in enumerate(diag.flow)
            ]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "https://github.com/example/repro#static-analysis",
                    "rules": rules,
                },
            },
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    }


def dump(document: dict) -> str:
    """Serialize a JSON/SARIF document."""
    return json.dumps(document, indent=2, sort_keys=False) + "\n"
