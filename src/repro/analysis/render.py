"""Renderers for the analysis commands: JSON, text, and SARIF 2.1.0.

``lint``, ``cost`` and ``tune`` each build one JSON document; their text
report is :func:`render_lint`, :func:`render_cost` or :func:`render_tune`
over it, as ``repro report`` renders a saved one.  The lint text excerpts
each flagged source line, compiler-style, when given the sources.  The
SARIF output follows the OASIS 2.1.0 schema shape (tool driver with a
rule table, results with ``ruleId``/``ruleIndex``, physical locations
with 1-based regions) so it uploads cleanly to code-scanning services.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional, Sequence

from ..hardware.costmodel import Interval
from .audit import LeakageAudit
from .diagnostics import Diagnostic, FlowStep, location_of
from .rules import RULE_HELP_BASE, RULES

__all__ = [
    "RULE_HELP_BASE",  # re-exported for back-compat; lives in rules.py now
    "SARIF_SCHEMA", "SARIF_VERSION",
    "dump", "render_cost", "render_json", "render_lint", "render_sarif",
    "render_tune",
]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


# -- text ---------------------------------------------------------------------


def model_rows(values: Dict[str, object], indent: str = "    ") -> List[str]:
    """One aligned ``<model>  <value>`` row per hardware model, in order."""
    return [f"{indent}{model:<12} {value}" for model, value in values.items()]


def _plural(count: int, noun: str) -> str:
    return f"{count} {noun}{'s' if count != 1 else ''}"


def _tally(count: int, noun: str, unread: int, detail: str = "") -> List[str]:
    """A report's count of ``noun``s, not clean if ``unread`` inputs."""
    if count:
        head = _plural(count, noun) + detail
    else:
        head = f"no {noun}s" if unread else f"clean: no {noun}s"
    tail = [f"{_plural(unread, 'input')} not analyzed"] if unread else []
    return [head] + tail


def _excerpt(span: dict, source: str) -> List[str]:
    lines = source.splitlines()
    if not 1 <= span["line"] <= len(lines):
        return []
    text = lines[span["line"] - 1]
    col = max(span["column"], 1)
    if span["end_line"] == span["line"]:
        width = max(span["end_column"] - span["column"], 1)
    else:
        width = max(len(text) - col + 1, 1)
    caret = " " * (col - 1) + "^" + "~" * (width - 1)
    return [f"    {text}", f"    {caret}"]


def _audit_lines(audit: dict) -> List[str]:
    """The static Theorem 2 audit of one file (a ``repro.lint/1``
    ``audit`` entry)."""
    adversary = audit["adversary"]
    out = [
        f"static Theorem 2 audit (adversary {adversary}, "
        f"horizon T={audit['horizon']}):"
    ]
    if not audit["sites"]:
        out.append("  no mitigate commands: leakage bound is 0 bits "
                   "(Theorem 2 corollary)")
        return out
    for site in audit["sites"]:
        where = (f" at {site['line']}:{site['column']}" if site["line"]
                 else "")
        head = (f"mitigate {site['mit_id']}{where}: pc={site['pc']} "
                f"level={site['level']}")
        cost = ("" if site["static_cost"] is None
                else f"  cost={Interval(*site['static_cost'])}")
        if site["relevant"]:
            out.append(f"  {head}  relevant  "
                       f"+{site['contribution_bits']:.2f} bits{cost}")
        else:
            out.append(f"  {head}  not relevant ({site['reason']}){cost}")
    horizon = audit["horizon"]
    log_t = math.log2(horizon) if horizon > 1 else 0.0
    closure, count = audit["closure_size"], audit["relevant_count"]
    out.append(
        f"  |L^_{{{adversary}}}| = {closure}, K = {count}  =>  bound = "
        f"{closure} * log2({count + 1}) * (1 + {log_t:.0f}) "
        f"= {audit['bound_bits']:.2f} bits"
    )
    syntactic = audit["syntactic"]
    if syntactic["pruned_count"]:
        out.append(
            f"  syntactic bound would be {syntactic['bound_bits']:.2f} "
            f"bits over K = {syntactic['relevant_count']} sites; "
            f"dataflow reachability pruned {syntactic['pruned_count']} "
            f"dead site(s), tightening the bound by "
            f"{syntactic['bound_bits'] - audit['bound_bits']:.2f} bits"
        )
    return out


def render_lint(doc: dict, sources: Optional[Dict[str, str]] = None,
                unread: int = 0) -> List[str]:
    """A ``repro.lint/1`` document as compiler-style report lines.

    ``sources`` maps path -> source text for line excerpts; ``unread``
    counts the inputs that could not be read, so the report does not
    call them clean.  Each file's audit follows the findings.
    """
    sources = sources or {}
    out: List[str] = []
    for diag in doc["diagnostics"]:
        rule = f" [{diag['rule']}]" if "rule" in diag else ""
        out.append(f"{location_of(diag)}: {diag['severity']}[{diag['code']}]"
                   f"{rule}: {diag['message']}")
        if diag.get("path") in sources:
            out.extend(_excerpt(diag["span"], sources[diag["path"]]))
        if "flow" in diag:
            out.append("    | flow:")
            for index, step in enumerate(diag["flow"], start=1):
                span = step["span"]
                where = (f" @ {span['line']}:{span['column']}"
                         if span["line"] else "")
                out.append(f"    |   {index}. [{step['kind']}]{where} "
                           f"{step['message']}")
        if "fix" in diag:
            fix = diag["fix"].replace("\n", "\n    |   ")
            out.append(f"    | fix: {fix}")
    severities = ", ".join(_plural(n, severity) for severity, n
                           in sorted(doc["summary"]["by_severity"].items()))
    out += _tally(doc["summary"]["total"], "finding", unread,
                  f" ({severities})")
    for path, audit in doc.get("audit", {}).items():
        out += ["", f"{path}:", *_audit_lines(audit)]
    return out


def render_cost(doc: dict, unread: int = 0) -> List[str]:
    """A ``repro.cost/1`` document as report lines: per program, its and
    each mitigate site's interval per model, notes and findings."""
    models = doc["hardware"]
    out: List[str] = []
    count = 0
    for program in doc["programs"]:
        reports = program["hardware"]
        out.append(f"{program['path']}: static cycle-cost analysis")
        out.append("  <program> (unpadded cycles):")
        out.extend(model_rows({
            model: Interval(*reports[model]["program"]) for model in models
        }))
        for site in program["sites"]:
            budget = "?" if site["budget"] is None else site["budget"]
            out.append(
                f"  mitigate {site['mit_id']} (line {site['line']}, "
                f"level {site['level']}, budget {budget}): "
                f"+{site['marginal_bits']:.2f} bits"
            )
            out.extend(model_rows({
                model: Interval(*bounds)
                for model, bounds in site["intervals"].items()
            }))
        for note in reports[models[0]]["widened"]:
            out.append(f"  widened: line {note['line']}: {note['message']}")
        for diag in program["diagnostics"]:
            out.append(f"  {location_of(diag)}: {diag['severity']}"
                       f"[{diag['code']}]: {diag['message']}")
        count += len(program["diagnostics"])
    return (out or ["no programs analyzed"]) + _tally(
        count, "cost-backed finding", unread)


def _candidate_lines(candidate: dict, tag: str) -> List[str]:
    budgets = ",".join(str(b) for b in candidate["budgets"]) or "-"
    objective = ("unbounded" if candidate["objective"] is None
                 else candidate["objective"])
    return [
        f"  {tag}: {candidate['placement']}/{candidate['scheme']} "
        f"budgets=({budgets})  objective {objective} padded cycles"
        f"{'' if candidate['feasible'] else '  INFEASIBLE'}",
        "    capacity (bits) per model:",
        *model_rows({
            model: "saturated" if bits is None else f"{bits:.3f}"
            for model, bits in candidate["capacity_bits"].items()
        }, indent="      "),
    ]


def render_tune(doc: dict) -> List[str]:
    """A ``repro.tune/1`` document as report lines: the baseline, the
    winning policy and its program (or why none fits the budget), the
    search counts and any measured service replay."""
    budget, search = doc["bits_budget"], doc["search"]
    out = [f"{doc['program_path']}: mitigation-policy synthesis "
           f"(budget {budget:g} bits, models {', '.join(doc['models'])})",
           *_candidate_lines(doc["baseline"], "baseline")]
    winner = doc["best"] if doc["feasible"] else None
    if winner is not None:
        out += _candidate_lines(winner, "best")
        out.append(f"  quantum: {winner['quantum']} cycles "
                   f"(quantized release policy, {winner['scheme']} scheme)")
        if doc["improved"]:
            out.append(f"  improved: objective {winner['objective']} < "
                       f"baseline {doc['baseline']['objective']}")
        out.append("  program:")
        out += [f"    {line}" for line in winner["program"].splitlines()]
    else:
        out.append(f"  no feasible policy within {budget:g} bits "
                   f"(explored {search['explored']}, "
                   f"pruned {search['pruned']})")
        out += [f"  skipped {placement}: {why}" for placement, why
                in sorted(search["skipped_placements"].items())]
    out.append(f"  search: explored {search['explored']}, "
               f"pruned {search['pruned']}")
    for tag in ("baseline", "tuned") if "service" in doc else ():
        run = doc["service"][tag]
        verdict = "ok" if run["audit_ok"] else "VIOLATED"
        out.append(f"  service[{tag}]: {run['policy']}  "
                   f"makespan {run['makespan']}  audit {verdict}")
        out += [f"    {name}: latency p50 {t['p50']} p95 {t['p95']} "
                f"p99 {t['p99']}  leakage {t['observed_bits']} bits"
                for name, t in run["tenants"].items()]
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
