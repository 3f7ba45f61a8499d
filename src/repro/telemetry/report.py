"""The ``repro report`` renderer: every document the repo writes.

The JSON of ``lint``, ``cost``, ``tune``, ``attack`` and ``verify-hw``
renders through that command's own text renderer, chosen by its
``schema``.  A metrics JSON document (schema ``repro.telemetry/1``, as
written by ``--metrics-out`` or the fig7/fig8 benchmarks) or an event
journal (JSONL, as written by ``repro run --journal-out``) renders as an
audit report:

* **time sinks** -- where the cycles went (machine, sleep, padding), top
  first, with their share of the final clock;
* **mitigate sites** -- per-site completions, total duration, pure
  padding, and distinct observed durations;
* **Miss trajectory** -- every value each ``Miss[l]`` took, in order (the
  fast-doubling staircase of Fig. 6);
* **hardware** -- steps, cache hits/misses per component, branch
  predictions and bypassed steps;
* **leakage verdict** -- the dynamic Theorem 2 account: observed bits
  versus the static ``|L^| * log2(K+1) * (1 + log2 T)`` bound, with an
  explicit within-bound verdict;

with the ``sweep`` (``repro leakage``), ``service`` (``repro serve``) and
``profile`` sections between, where the document has them.  Each part
has one renderer (:data:`PARTS`): ``run --trace``, ``serve`` and
``leakage`` print the parts they built through :func:`render_metrics`,
so a command's text is a block of the report on the document it writes.

:func:`render_report` returns the lines plus an ``ok`` flag; the CLI exits
1 when it is false.  SARIF logs, Chrome traces and ``repro.verify-hw/1``
counterexamples have readers of their own and are refused by name.
"""

from __future__ import annotations

import json
from typing import (Any, Collection, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from .metrics import CACHE_COMPONENTS, SCHEMA, site_breakdown
from .profiling import render_profile_lines
from .spans import CATEGORY_MITIGATE, CATEGORY_RUN, Span, spans_from_journal


class ReportError(ValueError):
    """The input is not a document ``repro report`` renders."""


def load_document(path: str) -> Dict[str, Any]:
    """Load a metrics JSON or a JSONL journal into a uniform dict.

    Returns either the metrics document as-is (it carries ``schema``) or
    ``{"schema": ..., "journal": [records...]}`` for journals.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as err:
        raise ReportError(f"{path}: not UTF-8 text") from err
    stripped = text.lstrip()
    if not stripped:
        raise ReportError(f"{path} is empty")
    if stripped.startswith("{") and "\n{" not in stripped.rstrip():
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ReportError(f"{path} is not a telemetry document")
        if "type" in doc and "counters" not in doc:
            # A one-record journal (header only).
            return {"schema": doc.get("schema", SCHEMA), "journal": [doc]}
        return doc
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not all(isinstance(r, dict) for r in records):
        raise ReportError(f"{path}: journal records must be JSON objects")
    header = next((r for r in records if r.get("type") == "header"), {})
    return {"schema": header.get("schema", SCHEMA), "journal": records}


# -- parts shared by the metrics and journal reports ---------------------------


def _time_sinks(sinks: Sequence[Tuple[str, int]], final: int) -> List[str]:
    lines = ["time sinks (top first):"]
    for name, cycles in sorted(sinks, key=lambda kv: -kv[1]):
        share = f"{cycles / final:6.1%}" if final else "   n/a"
        lines.append(f"  {share}  {cycles:>12}  {name}")
    return lines


def _site_lines(rows: Sequence[Tuple[str, Any, int, int, Optional[int]]]
                ) -> List[str]:
    """``(mit_id, completions, cycles, padding, distinct durations or
    None)`` per mitigate site, as the padding breakdown."""
    if not rows:
        return []
    lines = ["mitigate sites (padding breakdown):"]
    for mit_id, completions, total, padding, distinct in rows:
        lines.append(
            f"  {mit_id}: {completions} completions, "
            f"{total} cycles total, {padding} padding"
            + (f" ({padding / total:.1%})" if total else "")
            + (f", {distinct} distinct duration(s)"
               if distinct is not None else "")
        )
    return lines


def _trajectory_lines(trajectories: Mapping[str, Sequence[int]],
                      finals: Optional[Mapping[str, int]] = None
                      ) -> List[str]:
    """Every value each ``Miss[l]`` took; without a trajectory, the final
    values ``finals`` a document kept instead."""
    lines = ["Miss trajectory per level:"]
    for level, values in sorted(trajectories.items()):
        shown = " -> ".join(str(v) for v in values[:12])
        if len(values) > 12:
            shown += f" -> ... ({len(values)} updates)"
        lines.append(f"  Miss[{level}]: {shown}")
    if not trajectories:
        for level, value in sorted((finals or {}).items()):
            lines.append(f"  Miss[{level}]: final value {value} "
                         "(no trajectory series in this document)")
    if len(lines) == 1:
        lines.append("  (no mispredictions recorded)")
    return lines


# -- the metrics document, one renderer per part -------------------------------


def _summary(doc: Mapping[str, Any]) -> List[str]:
    return [f"runs: {doc.get('runs', 0)}   final clock total: "
            f"{doc.get('timing', {}).get('final_cycles', 0)} cycles"]


def _timing(doc: Mapping[str, Any]) -> List[str]:
    timing = doc.get("timing", {})
    return _time_sinks([
        ("machine (hardware-charged steps)", timing.get("machine_cycles", 0)),
        ("padding (mitigate stretch)", timing.get("padding_cycles", 0)),
        ("sleep", timing.get("sleep_cycles", 0)),
    ], timing.get("final_cycles", 0))


def _sites(doc: Mapping[str, Any]) -> List[str]:
    sites = doc.get("sites") or site_breakdown(doc.get("counters", {}))
    distinct = doc.get("leakage", {}).get(
        "per_command_distinct_durations", {}
    )
    rows = []
    for mit_id in sorted(set(sites) | set(distinct)):
        info = sites.get(mit_id, {})
        rows.append((mit_id, info.get("completions", "?"),
                     info.get("cycles", 0), info.get("padding", 0),
                     distinct.get(mit_id)))
    return _site_lines(rows)


def _trajectories(doc: Mapping[str, Any]) -> List[str]:
    return _trajectory_lines(
        {name[len("miss_trace."):]: values
         for name, values in doc.get("series", {}).items()
         if name.startswith("miss_trace.")},
        doc.get("mitigation", {}).get("miss_per_level", {}),
    )


def _hardware(doc: Mapping[str, Any]) -> List[str]:
    """The ``hardware`` section: the step count, then cache hits/misses
    per component, branch predictions and bypassed steps where any."""
    hardware = doc.get("hardware")
    if not hardware:
        return []
    steps = doc.get("counters", {}).get("steps.total", 0)
    lines = [f"hardware: {steps} steps"]
    cache = hardware.get("cache", {})
    if cache:
        lines.append("  cache hits/misses: " + "  ".join(
            f"{comp} {cache[comp].get('hits', 0)}/"
            f"{cache[comp].get('misses', 0)}"
            for comp in CACHE_COMPONENTS if comp in cache))
    branch = hardware.get("branch", {})
    if branch.get("hits") or branch.get("mispredictions"):
        lines.append(f"  branch: {branch.get('hits', 0)} predicted, "
                     f"{branch.get('mispredictions', 0)} mispredicted")
    if hardware.get("bypass_steps"):
        lines.append(f"  bypassed steps (lr != lw): "
                     f"{hardware['bypass_steps']}")
    return lines


def _attacks(doc: Mapping[str, Any]) -> List[str]:
    attacks = doc.get("attacks", {})
    if not attacks:
        return []
    lines = ["adversary activity:"]
    for attack, info in sorted(attacks.items()):
        stats = ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(info.get("stats", {}).items())
        )
        lines.append(f"  {attack}: {info.get('samples', 0)} timing "
                     f"sample(s){'; ' + stats if stats else ''}")
    return lines


def render_sweep(sweep: Mapping[str, Any]) -> Tuple[List[str], bool]:
    """The ``sweep`` section of ``repro leakage``: both sides of Theorem 2
    over one secret's range, and the closed-form bound at horizon ``T``."""
    lo, hi = sweep.get("values", ["?", "?"])
    horizon = f" (T={sweep['T']})" if "T" in sweep else ""
    holds = sweep.get("theorem2_holds", True)
    return [
        "secret sweep (Theorem 2, measured both sides):",
        f"  secret {sweep.get('secret')} in [{lo}, {hi})  "
        f"adversary {sweep.get('adversary')}",
        f"  Q = {sweep.get('q_bits', 0.0):.3f} bits "
        f"({sweep.get('distinguishable', '?')} distinguishable), "
        f"log|V| = {sweep.get('variation_bits', 0.0):.3f} bits "
        f"({sweep.get('variation_count', '?')} variations), "
        f"closed-form bound {sweep.get('bound_bits', 0.0):.3f} bits{horizon}",
        f"  Theorem 2 {'holds' if holds else 'VIOLATED'} on this family",
    ], bool(holds)


def _probe_line(probe: Mapping[str, Any]) -> str:
    """One distinguisher probe, numerically: classes, raw sample counts,
    measured advantage, and the Welch significance verdict."""
    classes = probe.get("classes", ["?", "?"])
    samples = probe.get("samples", ["?", "?"])
    p_value = probe.get("p_value")
    stats = ""
    if p_value is not None:
        verdict = ("significant" if probe.get("significant")
                   else "not significant")
        stats = f", p={p_value:.2e} ({verdict})"
    return (
        f"distinguisher {classes[0]} (n={samples[0]}) vs "
        f"{classes[1]} (n={samples[1]}): advantage "
        f"{probe.get('advantage', 0.0):+.3f} over chance "
        f"{probe.get('chance', 0.0):.3f}{stats}"
    )


def render_service(service: Mapping[str, Any]) -> Tuple[List[str], bool]:
    """The gateway's ``service`` section (``repro serve``; see
    docs/SERVICE.md): counts, every tenant's audit and every cross-tenant
    probe."""
    counts = service.get("requests", {})
    lines = [
        f"service: policy {service.get('policy', '?')}, "
        f"{service.get('workers', '?')} worker(s), "
        f"seed {service.get('seed', '?')}, "
        f"scheme {service.get('scheme', '?')}/"
        f"{service.get('penalty', '?')}",
        f"  requests: {counts.get('submitted', 0)} submitted, "
        f"{counts.get('completed', 0)} completed, "
        f"{counts.get('rejected', 0)} rejected, "
        f"{counts.get('timed_out', 0)} timed out "
        f"({service.get('retries', 0)} retries)",
        f"  makespan {service.get('makespan', 0)} cycles, "
        f"throughput {service.get('throughput_per_mcycle', 0.0)} req/Mcycle",
    ]
    ok = True
    for name, tenant in sorted(service.get("tenants", {}).items()):
        audit = tenant.get("audit", {})
        release = audit.get("release", {})
        within = bool(audit.get("within_bound", True))
        ok = ok and within
        lat = tenant.get("latency", {})
        lines.append(
            f"  tenant {name} ({tenant.get('app', '?')}): "
            f"{tenant.get('requests', {}).get('completed', 0)} ok, "
            f"latency p50 {lat.get('p50', 0)} p99 {lat.get('p99', 0)}, "
            f"release leakage {release.get('observed_bits', 0.0):.3f} "
            f"{'<=' if within else '>'} "
            f"bound {release.get('bound_bits', 0.0):.3f} bits: "
            f"{'ok' if within else 'VIOLATED'}"
        )
        probe = audit.get("probe")
        if probe:
            lines.append("    " + _probe_line(probe))
    cross = service.get("cross_tenant", [])
    if cross:
        worst = max(cross, key=lambda p: p.get("advantage", 0.0))
        lines.append(f"  cross-tenant probes: {len(cross)}; worst: "
                     f"{worst.get('observer', '?')} observing "
                     f"{worst.get('victim', '?')}")
        for probe in cross:
            lines.append(f"    {probe.get('observer', '?')} observing "
                         f"{probe.get('victim', '?')}: " + _probe_line(probe))
    ok = ok and bool(service.get("audit_ok", True))
    lines.append(f"  service audit: {'OK' if ok else 'VIOLATED'}")
    return lines, ok


def render_profile(profile: Mapping[str, Any]) -> List[str]:
    """The ``profile`` section (``--profile``): subsystem attribution,
    latency quantiles and budget burn-down."""
    return (["profile (subsystem attribution):"]
            + [f"  {line}" for line in render_profile_lines(profile)])


def _verdict(leakage: Mapping[str, Any]) -> Tuple[List[str], bool]:
    if not leakage:
        return ["leakage verdict: n/a (document has no leakage section)"], True
    observed = leakage.get("observed_bits", 0.0)
    bound = leakage.get("static_bound_bits", 0.0)
    within = bool(leakage.get("within_bound", observed <= bound + 1e-9))
    return [
        f"leakage verdict: observed {leakage.get('observed_variations', 0)} "
        f"deadline sequence(s) = {observed:.3f} bits "
        f"{'<=' if within else '>'} static Theorem 2 bound "
        f"{bound:.3f} bits: {'ok' if within else 'VIOLATED'}"
    ], within


def _always(render):
    """A part that records no verdict."""
    return lambda doc: (render(doc), True)


def _section(name, render):
    """``render`` over the document's section ``name``, where it has one."""
    return lambda doc: render(doc[name]) if doc.get(name) else ([], True)


def _join(parts: Iterable[List[str]]) -> List[str]:
    """The non-empty ``parts``, set apart by blank lines."""
    lines: List[str] = []
    for part in filter(None, parts):
        lines.extend(([""] if lines else []) + part)
    return lines


#: The metrics report, part by part in print order: (name, render(doc)
#: -> (lines, ok)).  An empty part prints nothing; the others are set
#: apart by a blank line.
PARTS = (
    ("summary", _always(_summary)),
    ("timing", _always(_timing)),
    ("sites", _always(_sites)),
    ("trajectory", _always(_trajectories)),
    ("hardware", _always(_hardware)),
    ("attacks", _always(_attacks)),
    ("sweep", _section("sweep", render_sweep)),
    ("service", _section("service", render_service)),
    ("profile", _section("profile", _always(render_profile))),
    ("leakage", lambda doc: _verdict(doc.get("leakage"))),
)


def render_metrics(doc: Mapping[str, Any],
                   parts: Optional[Collection[str]] = None
                   ) -> Tuple[List[str], bool]:
    """The audit of a ``repro.telemetry/1`` document: the lines of the
    ``parts`` named (default all of :data:`PARTS`) and ``ok``, false when
    any part -- shown or not -- records a violated bound."""
    shown: List[List[str]] = []
    ok = True
    for name, render in PARTS:
        part, part_ok = render(doc)
        ok = ok and part_ok
        if parts is None or name in parts:
            shown.append(part)
    return _join(shown), ok


def _journal_report(records: List[Dict[str, Any]]) -> Tuple[List[str], bool]:
    spans = spans_from_journal(records)
    runs = [s for s in spans if s.category == CATEGORY_RUN]
    epochs = [s for s in spans if s.category == CATEGORY_MITIGATE]
    final = sum(s.duration or 0 for s in runs)
    padding = sum(s.attrs.get("padding", 0) for s in epochs)
    epoch_cycles = sum(s.duration or 0 for s in epochs)
    per_site: Dict[str, List[Span]] = {}
    for span in epochs:
        per_site.setdefault(span.name, []).append(span)
    trajectories: Dict[str, List[int]] = {}
    for record in records:
        if record.get("type") == "miss_update":
            trajectories.setdefault(record["level"], []).append(
                record["misses"]
            )
    sites = _site_lines([
        (mit_id,
         sum(1 for s in site_spans if "aborted" not in s.attrs),
         sum(s.duration or 0 for s in site_spans),
         sum(s.attrs.get("padding", 0) for s in site_spans),
         len({s.duration for s in site_spans}))
        for mit_id, site_spans in sorted(per_site.items())
    ])
    return _join([
        [f"runs: {len(runs)}   final clock total: {final} cycles "
         f"({len(records)} journal record(s))"],
        _time_sinks([
            ("inside mitigate epochs", epoch_cycles),
            ("padding (mitigate stretch)", padding),
            ("outside mitigate epochs", final - epoch_cycles),
        ], final),
        sites,
        _trajectory_lines(trajectories),
        ["leakage verdict: n/a (journals carry the raw stream; "
         "run with --metrics-out for the Theorem 2 account)"],
    ]), True


def _documents():
    """schema -> (render, ok) for the command documents: ``render(doc)``
    is the command's text report, ``ok(doc)`` false where it exits 1.
    Imported on use, so loading telemetry loads no analysis."""
    from ..adversary.campaign import render_campaign
    from ..analysis.render import render_cost, render_lint, render_tune
    from ..hardware.verify import render_verify_campaign

    return {
        "repro.lint/1": (render_lint, lambda doc: not doc["summary"]["total"]),
        "repro.cost/1": (render_cost, lambda doc: not any(
            program["diagnostics"] for program in doc["programs"])),
        "repro.tune/1": (render_tune, lambda doc: doc["feasible"]),
        "repro.adversary/1": (lambda doc: render_campaign(doc).split("\n"),
                              lambda doc: doc["ok"]),
        "repro.verify-hw.campaign/1": (render_verify_campaign,
                                       lambda doc: doc["ok"]),
    }


def _read_elsewhere(doc: Mapping[str, Any]) -> Optional[str]:
    """What ``doc`` is, when a reader of its own takes it."""
    if "runs" in doc and "version" in doc:
        return "a SARIF log: open it in a SARIF viewer or code scanning"
    if "traceEvents" in doc:
        return "a Chrome trace: open it in Perfetto or chrome://tracing"
    if doc.get("schema") == "repro.verify-hw/1":
        return ("a repro.verify-hw/1 counterexample: replay it with "
                "repro.hardware.verify.replay_counterexample")
    return None


def render_report(doc: Mapping[str, Any],
                  source: Optional[str] = None) -> Tuple[List[str], bool]:
    """Render the report for a loaded document.

    Returns ``(lines, ok)``.  A command document renders as the command's
    text, ``ok`` false where the command exits 1.  An audit report's
    ``ok`` is False exactly when the document records a violated bound --
    a dynamic-leakage account exceeding its static Theorem 2 bound, or a
    ``sweep`` section where the measured ``Q`` beat ``log2 |V|``.
    """
    schema = doc.get("schema")
    elsewhere = _read_elsewhere(doc)
    if elsewhere is not None:
        raise ReportError(f"document is {elsewhere}; repro report does not "
                          f"render it")
    header = f"repro audit report (schema {schema or 'unknown'})"
    if source:
        header += f" -- {source}"
    lines = [header, "=" * len(header)]
    documents = _documents()
    try:
        if schema in documents:
            render, ok = documents[schema]
            return render(doc), ok(doc)
        if "journal" in doc:
            body, ok = _journal_report(doc["journal"])
        elif "counters" in doc or "timing" in doc:
            body, ok = render_metrics(doc)
        else:
            raise ReportError(
                "document is neither a repro.telemetry metrics JSON, an "
                "event journal, nor a document of lint, cost, tune, attack "
                "or verify-hw"
            )
    except ReportError:
        raise
    except (AttributeError, TypeError, ValueError, KeyError,
            IndexError) as err:
        # A recognizable document with missing/truncated/mistyped
        # sections must exit 2 at the CLI, not traceback.
        raise ReportError(
            f"{schema if schema in documents else 'telemetry'} document "
            f"is truncated or malformed: "
            f"{type(err).__name__}: {err}"
        )
    return lines + body, ok
