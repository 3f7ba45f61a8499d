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
* **leakage verdict** -- the dynamic Theorem 2 account: observed bits
  versus the static ``|L^| * log2(K+1) * (1 + log2 T)`` bound, with an
  explicit within-bound verdict.

:func:`render_report` returns the lines plus an ``ok`` flag; the CLI exits
1 when it is false.  SARIF logs, Chrome traces and ``repro.verify-hw/1``
counterexamples have readers of their own and are refused by name.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .metrics import SCHEMA, site_breakdown
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


def _fmt_share(part: int, whole: int) -> str:
    return f"{part / whole:6.1%}" if whole else "   n/a"


def _trajectory_line(level: str, values: Sequence[int]) -> str:
    shown = " -> ".join(str(v) for v in values[:12])
    if len(values) > 12:
        shown += f" -> ... ({len(values)} updates)"
    return f"  Miss[{level}]: {shown}"


def _metrics_report(doc: Mapping[str, Any]) -> Tuple[List[str], bool]:
    lines: List[str] = []
    timing = doc.get("timing", {})
    final = timing.get("final_cycles", 0)
    lines.append(f"runs: {doc.get('runs', 0)}   "
                 f"final clock total: {final} cycles")

    lines.append("")
    lines.append("time sinks (top first):")
    sinks = [
        ("machine (hardware-charged steps)", timing.get("machine_cycles", 0)),
        ("padding (mitigate stretch)", timing.get("padding_cycles", 0)),
        ("sleep", timing.get("sleep_cycles", 0)),
    ]
    for name, cycles in sorted(sinks, key=lambda kv: -kv[1]):
        lines.append(f"  {_fmt_share(cycles, final)}  {cycles:>12}  {name}")

    sites = doc.get("sites") or site_breakdown(doc.get("counters", {}))
    distinct = doc.get("leakage", {}).get(
        "per_command_distinct_durations", {}
    )
    if sites or distinct:
        lines.append("")
        lines.append("mitigate sites (padding breakdown):")
        names = sorted(set(sites) | set(distinct))
        for mit_id in names:
            info = sites.get(mit_id, {})
            total = info.get("cycles", 0)
            padding = info.get("padding", 0)
            lines.append(
                f"  {mit_id}: {info.get('completions', '?')} completions, "
                f"{total} cycles total, {padding} padding"
                + (f" ({padding / total:.1%})" if total else "")
                + (f", {distinct[mit_id]} distinct duration(s)"
                   if mit_id in distinct else "")
            )

    series = doc.get("series", {})
    trajectories = {
        name[len("miss_trace."):]: values
        for name, values in sorted(series.items())
        if name.startswith("miss_trace.")
    }
    lines.append("")
    lines.append("Miss trajectory per level:")
    if trajectories:
        for level, values in trajectories.items():
            lines.append(_trajectory_line(level, values))
    else:
        finals = doc.get("mitigation", {}).get("miss_per_level", {})
        if finals:
            for level, value in sorted(finals.items()):
                lines.append(f"  Miss[{level}]: final value {value} "
                             "(no trajectory series in this document)")
        else:
            lines.append("  (no mispredictions recorded)")

    attacks = doc.get("attacks", {})
    if attacks:
        lines.append("")
        lines.append("adversary activity:")
        for attack, info in sorted(attacks.items()):
            stats = ", ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(info.get("stats", {}).items())
            )
            lines.append(f"  {attack}: {info.get('samples', 0)} timing "
                         f"sample(s){'; ' + stats if stats else ''}")

    ok = True
    sweep = doc.get("sweep")
    if sweep:
        lines.append("")
        lines.append("secret sweep (Theorem 2, measured both sides):")
        lo, hi = sweep.get("values", ["?", "?"])
        lines.append(f"  secret {sweep.get('secret')} in [{lo}, {hi})  "
                     f"adversary {sweep.get('adversary')}")
        lines.append(f"  Q = {sweep.get('q_bits', 0.0):.3f} bits "
                     f"({sweep.get('distinguishable', '?')} distinguishable), "
                     f"log|V| = {sweep.get('variation_bits', 0.0):.3f} bits "
                     f"({sweep.get('variation_count', '?')} variations), "
                     f"closed-form bound {sweep.get('bound_bits', 0.0):.3f} "
                     "bits")
        lines.append(f"  Theorem 2 "
                     f"{'holds' if sweep.get('theorem2_holds') else 'VIOLATED'}"
                     " on this family")
        if not sweep.get("theorem2_holds", True):
            ok = False

    service = doc.get("service")
    if service:
        service_lines, service_ok = _service_section(service)
        lines.extend(service_lines)
        ok = ok and service_ok

    profile = doc.get("profile")
    if profile:
        lines.append("")
        lines.append("profile (subsystem attribution):")
        lines.extend(f"  {line}" for line in render_profile_lines(profile))

    lines.append("")
    leakage = doc.get("leakage")
    if leakage:
        observed = leakage.get("observed_bits", 0.0)
        bound = leakage.get("static_bound_bits", 0.0)
        within = bool(leakage.get("within_bound",
                                  observed <= bound + 1e-9))
        ok = ok and within
        lines.append(
            f"leakage verdict: observed {leakage.get('observed_variations', 0)} "
            f"deadline sequence(s) = {observed:.3f} bits "
            f"{'<=' if within else '>'} static Theorem 2 bound "
            f"{bound:.3f} bits: {'ok' if within else 'VIOLATED'}"
        )
    else:
        lines.append("leakage verdict: n/a (document has no leakage section)")
    return lines, ok


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


def _service_section(service: Mapping[str, Any]) -> Tuple[List[str], bool]:
    """Render the gateway's ``service`` section (``repro serve``
    documents; see docs/SERVICE.md)."""
    lines: List[str] = [""]
    counts = service.get("requests", {})
    lines.append(
        f"service: policy {service.get('policy', '?')}, "
        f"{service.get('workers', '?')} worker(s), "
        f"scheme {service.get('scheme', '?')}/"
        f"{service.get('penalty', '?')}"
    )
    lines.append(
        f"  requests: {counts.get('submitted', 0)} submitted, "
        f"{counts.get('completed', 0)} completed, "
        f"{counts.get('rejected', 0)} rejected, "
        f"{counts.get('timed_out', 0)} timed out "
        f"({service.get('retries', 0)} retries)"
    )
    lines.append(
        f"  makespan {service.get('makespan', 0)} cycles, "
        f"throughput {service.get('throughput_per_mcycle', 0.0)} req/Mcycle"
    )
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
        lines.append(
            f"  cross-tenant probes: {len(cross)}; worst "
            f"({worst.get('observer', '?')} observing "
            f"{worst.get('victim', '?')}): " + _probe_line(worst)
        )
    if not service.get("audit_ok", True):
        ok = False
    lines.append(f"  service audit: {'OK' if ok else 'VIOLATED'}")
    return lines, ok


def _journal_report(records: List[Dict[str, Any]]) -> Tuple[List[str], bool]:
    spans = spans_from_journal(records)
    runs = [s for s in spans if s.category == CATEGORY_RUN]
    epochs = [s for s in spans if s.category == CATEGORY_MITIGATE]
    lines: List[str] = []
    final = sum(s.duration or 0 for s in runs)
    lines.append(f"runs: {len(runs)}   final clock total: {final} cycles "
                 f"({len(records)} journal record(s))")

    lines.append("")
    lines.append("time sinks (top first):")
    padding = sum(s.attrs.get("padding", 0) for s in epochs)
    epoch_cycles = sum(s.duration or 0 for s in epochs)
    sinks = [
        ("inside mitigate epochs", epoch_cycles),
        ("padding (mitigate stretch)", padding),
        ("outside mitigate epochs", final - epoch_cycles),
    ]
    for name, cycles in sorted(sinks, key=lambda kv: -kv[1]):
        lines.append(f"  {_fmt_share(cycles, final)}  {cycles:>12}  {name}")

    if epochs:
        lines.append("")
        lines.append("mitigate sites (padding breakdown):")
        per_site: Dict[str, List[Span]] = {}
        for span in epochs:
            per_site.setdefault(span.name, []).append(span)
        for mit_id, site_spans in sorted(per_site.items()):
            total = sum(s.duration or 0 for s in site_spans)
            pad = sum(s.attrs.get("padding", 0) for s in site_spans)
            durations = {s.duration for s in site_spans}
            completed = [s for s in site_spans if "aborted" not in s.attrs]
            lines.append(
                f"  {mit_id}: {len(completed)} completions, "
                f"{total} cycles total, {pad} padding"
                + (f" ({pad / total:.1%})" if total else "")
                + f", {len(durations)} distinct duration(s)"
            )

    lines.append("")
    lines.append("Miss trajectory per level:")
    trajectories: Dict[str, List[int]] = {}
    for record in records:
        if record.get("type") == "miss_update":
            trajectories.setdefault(record["level"], []).append(
                record["misses"]
            )
    if trajectories:
        for level, values in sorted(trajectories.items()):
            lines.append(_trajectory_line(level, values))
    else:
        lines.append("  (no mispredictions recorded)")

    lines.append("")
    lines.append("leakage verdict: n/a (journals carry the raw stream; "
                 "run with --metrics-out for the Theorem 2 account)")
    return lines, True


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
            body, ok = _metrics_report(doc)
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
