"""Command-line interface: ``python -m repro <command> ...``.

Subcommands
-----------

check
    Typecheck a program (after label inference)::

        python -m repro check prog.tl --gamma h=H,l=L

    ``--all`` switches to the error-recovering checker, printing *every*
    type-system violation with ``line:col`` spans instead of stopping at
    the first.

lint
    Run the full static-analysis engine: all type-system violations plus
    the timing-channel lints (TL0xx rule catalog, docs/ANALYSIS.md) and
    the static Theorem 2 leakage audit, over one or more programs::

        python -m repro lint examples/lint/*.tl --format sarif

    Programs may carry ``// gamma: h=H,l=L`` style directives so a corpus
    needs no per-file flags.  Exit 1 means findings.

flow
    Export the dataflow layer's graphs as Graphviz DOT: the control-flow
    graph (``--dot cfg``, with ``--costs MODEL`` cycle intervals) or the
    timing-dependence graph (``--dot tdg``).

cost
    Static per-hardware ``[lo, hi]`` cycle bounds for each program and
    mitigate site, plus the cost-backed lints TL021-TL025.

tune
    Synthesize the cheapest mitigation policy (placement x scheme x
    budgets) whose channel capacity fits a bits budget on every hardware
    model; exit 1 means no feasible policy.

infer
    Print the program with inferred timing labels.

fix
    Auto-insert mitigate commands until the program typechecks, and print
    the repaired program; exit 1 when the errors are not timing-induced.

run
    Execute on a simulated hardware model and print time, events, and
    mitigations::

        python -m repro run prog.tl --gamma h=H,l=L --set h=9 --set l=0 \\
            --hardware partitioned --scheme doubling --penalty local

serve
    Run a multi-tenant workload through the timing-safe gateway
    (docs/SERVICE.md) and print the per-tenant leakage audit; exit 1 when
    a tenant's observed leakage exceeds its static Theorem 2 bound::

        python -m repro serve --spec examples/service/basic.json \\
            --metrics-out -

leakage
    Measure Definition 1 leakage exhaustively over one secret's value
    range, plus the Theorem 2 variation count and the Sec. 7 bound::

        python -m repro leakage prog.tl --gamma h=H,l=L --set l=0 \\
            --secret h --values 0..32

contract
    Run the executable software/hardware contract against a hardware
    model::

        python -m repro contract partitioned --levels L,M,H

verify-hw
    The property-based contract campaign over the whole hardware zoo;
    exit 1 when a model defies its declared verdict.

attack
    The red-team campaign against the gateway: measured adversary
    advantage against each tenant's Theorem 2 budget, per scheduler
    policy; exit 1 on a beaten budget or a vacuous positive control.

report
    Render a human audit report from a telemetry document (a metrics
    JSON from ``--metrics-out`` or a JSONL journal from
    ``--journal-out``)::

        python -m repro report benchmarks/results/fig7_metrics.json

bench
    Run the perf-trajectory suites (docs/PROFILING.md) and write
    ``BENCH_core.json`` / ``BENCH_service.json``; with ``--compare`` the
    measured (or ``--current``) numbers are diffed against a committed
    baseline, and exit 1 means a regression::

        python -m repro bench --suite core --compare BENCH_core.json

Exit codes
----------

Every command exits 0 on success, 1 when it ran to a negative verdict
(the per-command notes above), and 2 on bad input.  A malformed option
value is reported by argparse with a ``usage:`` line; any other bad input
-- an unreadable file, a syntax or directive error, an unknown model or
name, a bad workload spec or document -- prints ``repro <command>:
<message>`` on stderr.  An input named ``-`` is read from stdin; a
report written through ``--output``, ``--metrics-out``, ``--prom-out`` or
``--emit-*`` named ``-`` goes to stdout.

Programs use the concrete syntax of :mod:`repro.lang.parser`; the security
lattice defaults to ``L <= H`` and ``--levels a,b,c`` builds a chain.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import __version__
from .analysis import render_json, render_sarif, render_text
from .analysis.audit import DEFAULT_HORIZON as ANALYSIS_HORIZON
from .analysis.engine import DirectiveError, LintOptions, analyze_source
from .analysis.render import dump, model_rows
from .api import compile_program
from .hardware import (
    REGISTRY,
    HardwareRegistryError,
    make_hardware,
    paper_machine,
    run_contract_suite,
)
from .lang.parser import DEFAULT_LATTICE
from .lang.pretty import pretty
from .lattice import Lattice, chain
from .machine.memory import Memory
from .quantitative import (
    leakage_bound,
    measure_leakage,
    secret_variants,
    timing_variations,
)
from .semantics.mitigation import SCHEME_CHOICES, MitigationState, make_scheme
from .telemetry import (
    DynamicLeakageMeter,
    EventJournal,
    Profiler,
    RecordingTraceRecorder,
    ReportError,
    SpanRecorder,
    combine,
    load_document,
    prometheus_exposition,
    render_report,
    write_chrome_trace,
)
from .typesystem import TypingError, UnboundVariable, auto_mitigate, typecheck

#: Every accepted hardware name (canonical + aliases), registry-driven.
HARDWARE_CHOICES = REGISTRY.choices()


class CliError(Exception):
    """Bad input; :func:`main` reports it and exits 2."""


#: What :func:`main` reports as ``repro <command>: <message>`` (exit 2).
INPUT_ERRORS = (CliError, OSError, HardwareRegistryError, UnboundVariable)


# -- option-value converters (argparse ``type=``) ------------------------------


def _gamma(spec: str) -> Dict[str, str]:
    """``--gamma name=LEVEL,...`` as name -> level-name strings.

    Level names are checked later, against the lattice the command ends
    up with (``--levels`` or a program's ``// levels:`` directive).
    """
    bindings: Dict[str, str] = {}
    for item in filter(None, (part.strip() for part in spec.split(","))):
        if "=" not in item:
            raise argparse.ArgumentTypeError(
                f"entries look like name=LEVEL, got {item!r}"
            )
        name, level = item.split("=", 1)
        bindings[name.strip()] = level.strip()
    return bindings


def _assignment(item: str) -> Tuple[str, object]:
    """One ``--set`` entry: ``name=int`` or ``name=v0:v1:...`` (array)."""
    name, _, value = item.partition("=")
    try:
        if ":" in value:
            return name, [int(v) for v in value.split(":")]
        return name, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"entries look like name=int or name=v0:v1:..., got {item!r}"
        ) from None


def _value_range(spec: str) -> Tuple[int, int]:
    """``--values lo..hi``: the half-open secret range ``[lo, hi)``."""
    lo, _, hi = spec.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo..hi, got {spec!r}"
        ) from None


def _csv(spec: str) -> Optional[List[str]]:
    """A comma-separated name list; empty items are dropped."""
    return [item for item in spec.split(",") if item] or None


def _rule_codes(spec: str) -> frozenset:
    """``--select``/``--ignore CODE[,CODE...]``, checked against the catalog
    with a nearest-match suggestion for each unknown code."""
    import difflib

    from .analysis.rules import RULES

    codes = frozenset(
        code.strip().upper() for code in spec.split(",") if code.strip()
    )
    hints = [
        f"{code} (did you mean "
        f"{difflib.get_close_matches(code, list(RULES), n=1, cutoff=0.0)[0]}?)"
        for code in sorted(codes - set(RULES))
    ]
    if hints:
        raise argparse.ArgumentTypeError(
            f"unknown rule code(s) {', '.join(hints)} "
            f"(see `repro lint --list-rules`)"
        )
    return codes


# -- inputs --------------------------------------------------------------------


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _lattice(args) -> Lattice:
    return chain(args.levels) if args.levels else DEFAULT_LATTICE


def _options(args, **overrides) -> LintOptions:
    """The analysis options the shared arguments select."""
    return LintOptions(
        gamma=args.gamma,
        levels=args.levels,
        adversary=getattr(args, "adversary", None),
        horizon=getattr(args, "horizon", ANALYSIS_HORIZON),
        require_cache_labels=getattr(args, "require_cache_labels", False),
        **overrides,
    )


def _analyze(path: str, options: LintOptions, fatal_ok: bool = False):
    """``analyze_source`` over one program file.

    A directive error, or a syntax error unless ``fatal_ok`` (``lint``
    reports it as a TL000 finding), raises :class:`CliError`.
    """
    try:
        result = analyze_source(_read(path), path=path, options=options)
    except DirectiveError as err:
        raise CliError(f"{path}: {err}") from err
    if result.fatal and not fatal_ok:
        (diag,) = result.diagnostics
        raise CliError(f"{diag.location()}: {diag.message}")
    return result


def _analyze_all(args, options: LintOptions, fatal_ok: bool = False):
    """:func:`_analyze` each of ``args.programs``, reporting bad inputs on
    stderr and carrying on; returns the results and whether any was bad."""
    results, bad_input = [], False
    for path in args.programs:
        try:
            results.append(_analyze(path, options, fatal_ok))
        except INPUT_ERRORS as err:
            print(f"repro {args.command}: {err}", file=sys.stderr)
            bad_input = True
    return results, bad_input


def _compiled(args, check: bool = True):
    """``compile_program`` over ``args.program`` with the Gamma that
    ``--gamma``/``--levels`` (and ``--adversary``) define.

    A level outside the lattice is an option error; an unparsable or,
    when ``check``, ill-typed program raises :class:`CliError`.
    """
    lattice = _lattice(args)
    named = (*args.gamma.values(), getattr(args, "adversary", None))
    for level in named:
        if level is not None and level not in lattice:
            args.parser.error(
                f"unknown security level {level!r}; lattice levels are "
                f"{[l.name for l in lattice]}"
            )
    try:
        return compile_program(_read(args.program), gamma=args.gamma,
                               lattice=lattice, check=check)
    except (SyntaxError, TypingError) as err:
        raise CliError(f"{args.program}: {err}") from err


def _initial_memory(compiled, args) -> Memory:
    """The ``--set`` memory; Gamma scalars absent from ``--set`` start
    at 0."""
    return Memory({**{name: 0 for name in compiled.gamma}, **dict(args.set)})


def _workload(path: str, **overrides):
    """The workload spec JSON at ``path``, with non-None ``overrides``."""
    from .service import WorkloadError, WorkloadSpec

    try:
        spec = WorkloadSpec.from_dict(json.loads(_read(path)))
        for name, value in overrides.items():
            if value is not None:
                setattr(spec, name, value)
        spec.validate()
        return spec
    except (ValueError, TypeError, WorkloadError) as err:
        raise CliError(err) from err


def _cost_models(specs: Optional[List[str]]) -> List[str]:
    """Resolve ``--hardware`` picks (aliases ok) to canonical model names;
    default is every registered model."""
    if not specs:
        return list(REGISTRY.names())
    # REGISTRY.get raises HardwareRegistryError on an unknown name.
    return list(dict.fromkeys(REGISTRY.get(spec).name for spec in specs))


# -- outputs -------------------------------------------------------------------


def _emit(text: str, output: Optional[str] = None,
          note: Optional[str] = None, say=print) -> None:
    """The one output path: ``text`` to stdout when ``output`` is unset
    or '-', else into the file ``output``, announced by ``say(note)``."""
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    with open(output, "w") as handle:
        handle.write(text)
    if note:
        say(note)


def _emit_findings(args, findings, bad_input: bool, lines, doc) -> int:
    """Emit a findings report in ``--format`` (``lines()``/``doc()`` build
    the text and JSON forms) and map it to the exit code: 2 on bad input,
    else 1 with findings, else 0."""
    if args.format == "text":
        text = "\n".join(lines()) + "\n"
    else:
        text = dump(doc() if args.format == "json"
                    else render_sarif(findings))
    _emit(text, args.output, f"{args.format} report written to {args.output}")
    return 2 if bad_input else (1 if findings else 0)


class _Telemetry:
    """The telemetry sinks a `run`, `serve` or `leakage` asked for.

    ``meter`` (a :class:`DynamicLeakageMeter`) is kept, behind a metrics
    recorder, when ``--trace`` or ``--metrics-out`` wants it; spans and a
    JSONL journal follow ``--trace-out``/``--journal-out``, a profiler
    ``--profile``/``--prom-out``.  Pass :attr:`recorder` (all of them, or
    ``None``) to the run, then call :meth:`finish`.
    """

    def __init__(self, args, meter: Optional[DynamicLeakageMeter] = None):
        self.args = args
        wants_metrics = getattr(args, "trace", False) or args.metrics_out
        self.meter = meter if wants_metrics else None
        self.metrics = (RecordingTraceRecorder(meter=self.meter)
                        if self.meter is not None else None)
        trace_out = getattr(args, "trace_out", None)
        journal_out = getattr(args, "journal_out", None)
        self.journal = EventJournal(journal_out) if journal_out else None
        self.spans = (
            SpanRecorder(journal=self.journal, keep_spans=bool(trace_out))
            if trace_out or journal_out else None
        )
        #: Whether ``--profile``/``--prom-out`` asked for a profile.
        self.profiling = bool(getattr(args, "profile", False)
                              or getattr(args, "prom_out", None))
        self.profiler = Profiler() if self.profiling else None
        self.recorder = combine(self.metrics, self.spans, self.profiler)

    @property
    def ok(self) -> bool:
        """False when the leakage meter saw its static bound exceeded."""
        return self.meter is None or self.meter.holds()

    def document(self) -> dict:
        """The metrics recorder's ``repro.telemetry/1`` document."""
        return self.metrics.registry.as_dict(
            leakage=self.meter.as_dict(),
            profile=self.profiler.as_dict() if self.profiling else None,
        )

    def finish(self, doc: Optional[dict] = None, say=print) -> None:
        """Print the requested summaries and write the requested files.

        ``doc`` (written key-sorted) replaces :meth:`document` as the
        ``--metrics-out`` document.
        """
        args, profiler, meter = self.args, self.profiler, self.meter
        if self.profiling and args.profile:
            say("profile:")
            for line in profiler.summary_lines():
                say(f"  {line}")
        if self.profiling and args.prom_out:
            _emit(prometheus_exposition(profiler.as_dict()), args.prom_out,
                  f"prometheus exposition written to {args.prom_out}", say)
        if meter is not None and args.trace:
            say("telemetry:")
            for line in self.metrics.registry.summary_lines():
                say(f"  {line}")
            say(
                f"  leakage: {meter.observed_variations} observed "
                f"variation(s) ({meter.observed_bits:.3f} bits) <= "
                f"static bound {meter.static_bound_bits():.3f} bits: "
                f"{'ok' if meter.holds() else 'VIOLATED'}"
            )
        if args.metrics_out:
            text = (json.dumps(self.document(), indent=2) if doc is None
                    else json.dumps(doc, indent=2, sort_keys=True))
            _emit(text + "\n", args.metrics_out,
                  f"metrics written to {args.metrics_out}", say)
        if self.journal is not None:
            self.journal.close()
            say(f"journal written to {args.journal_out} "
                f"({self.journal.emitted} records)")
        if self.spans is not None and args.trace_out:
            write_chrome_trace(args.trace_out, self.spans.spans)
            say(f"trace written to {args.trace_out} "
                f"({len(self.spans.spans)} spans)")


# -- commands ------------------------------------------------------------------


def _well_typed(info) -> int:
    print(f"well-typed; timing end-label: {info.end_label}")
    for mit_id, pc in info.mitigate_pc.items():
        print(f"  mitigate {mit_id}: pc={pc}, "
              f"level={info.mitigate_level[mit_id]}")
    return 0


def cmd_check(args) -> int:
    """`check`: the type check; ``--all`` collects every type-system
    violation (use `lint` for the full rule catalog)."""
    if args.all:
        result = _analyze(args.program,
                          _options(args, lints=False, audit=False))
        if result.diagnostics:
            for line in render_text(result.diagnostics,
                                    {args.program: result.source}):
                print(line)
            return 1
        return _well_typed(result.typing)
    compiled = _compiled(args, check=False)
    try:
        info = typecheck(compiled.program, compiled.gamma,
                         require_cache_labels=args.require_cache_labels)
    except TypingError as err:
        print(f"ILL-TYPED: {err}")
        return 1
    return _well_typed(info)


def _list_rules() -> int:
    """`lint --list-rules`: dump the whole catalog from the registry."""
    from .analysis.rules import KIND_CODES, RULES

    kind_of = {code: kind for kind, code in KIND_CODES.items()}
    for rule in RULES.values():
        print(f"{rule.code}  {rule.severity.value:<7}  "
              f"{rule.name:<28}  {rule.summary}")
        if rule.code in kind_of:
            print(f"{'':40}(typing kind: {kind_of[rule.code]!r})")
    print(f"{len(RULES)} rules; catalog: docs/ANALYSIS.md")
    return 0


def cmd_lint(args) -> int:
    """`lint`: the multi-error static-analysis engine over >= 1 programs."""
    if args.list_rules:
        return _list_rules()
    if not args.programs:
        raise CliError("no programs given "
                       "(or use --list-rules for the catalog)")

    # Tri-state inference: --infer forces it on (even past a file's
    # '// infer: off' directive), --no-infer forces it off, and neither
    # follows the directives.
    infer = True if args.infer else (False if args.no_infer else None)
    options = _options(
        args, infer=infer, explain=args.explain, select=args.select,
        ignore=args.ignore or frozenset(), bits_budget=args.bits_budget,
    )
    results, bad_input = _analyze_all(args, options, fatal_ok=True)

    diagnostics = [d for res in results for d in res.diagnostics]
    audits = {
        res.path: res.audit for res in results
        if res.audit is not None and res.audit.sites
    } if args.audit else None
    sources = {res.path: res.source for res in results}
    return _emit_findings(
        args, diagnostics, bad_input or any(res.fatal for res in results),
        lambda: render_text(diagnostics, sources, audits),
        lambda: render_json(diagnostics, audits),
    )


def cmd_flow(args) -> int:
    """`flow`: the control-flow graph (blocks, branch/loop/mitigate edges)
    or the timing-dependence graph (Gamma levels, value edges, timing
    taint) as Graphviz DOT."""
    from .analysis.cfg import cfg_to_dot
    from .analysis.cost import compute_cost
    from .analysis.flows import tdg_to_dot

    if args.costs and args.dot != "cfg":
        raise CliError("--costs only applies to --dot cfg")
    result = _analyze(args.program, _options(args, lints=False, audit=False))
    if args.dot == "cfg":
        costs = (compute_cost(result.program, hardware=args.costs)
                 if args.costs else None)
        text = cfg_to_dot(result.cfg, costs=costs)
    else:
        text = tdg_to_dot(result.tdg)
    _emit(text + "\n", args.output, f"{args.dot} DOT written to {args.output}")
    return 0


def cmd_cost(args) -> int:
    """`cost`: each program's unpadded-cycle interval and a per-mitigate-
    site table of ``[lo, hi]`` x hardware model x the site's marginal
    Theorem 2 bits from the static audit."""
    from .analysis.cost import compute_cost
    from .analysis.rules import COST_RULE_CODES

    models = _cost_models(args.hardware)
    options = _options(args, select=frozenset(COST_RULE_CODES) | {"TL000"})
    results, bad_input = _analyze_all(args, options)

    findings = []
    lines: List[str] = []
    programs = []
    for result in results:
        reports = {
            model: compute_cost(result.program, hardware=model)
            for model in models
        }
        diags = [d for d in result.diagnostics if d.code != "TL000"]
        findings.extend(diags)
        bits = {
            site.mit_id: site.contribution_bits
            for site in (result.audit.sites if result.audit else ())
        }
        lines.append(f"{result.path}: static cycle-cost analysis")
        lines.append("  <program> (unpadded cycles):")
        lines.extend(model_rows(
            {model: reports[model].program for model in models}
        ))
        sites = []
        for site in reports[models[0]].mitigates.values():
            intervals = {
                model: reports[model].mitigates[site.mit_id].interval
                for model in models
                if site.mit_id in reports[model].mitigates
            }
            marginal = bits.get(site.mit_id, 0.0)
            sites.append({
                "mit_id": site.mit_id,
                "line": site.span.line,
                "level": site.level,
                "budget": site.budget,
                "marginal_bits": marginal,
                "intervals": {
                    model: [interval.lo, interval.hi]
                    for model, interval in intervals.items()
                },
            })
            budget = "?" if site.budget is None else site.budget
            lines.append(
                f"  mitigate {site.mit_id} (line {site.span.line}, "
                f"level {site.level}, budget {budget}): "
                f"+{marginal:.2f} bits"
            )
            lines.extend(model_rows(intervals))
        for note in reports[models[0]].notes:
            lines.append(
                f"  widened: line {note.span.line}: {note.message}"
            )
        for diag in diags:
            lines.append(
                f"  {diag.location()}: {diag.severity}[{diag.code}]: "
                f"{diag.message}"
            )
        programs.append({
            "path": result.path,
            "hardware": {
                model: report.as_dict()
                for model, report in reports.items()
            },
            "sites": sites,
            "diagnostics": [d.as_dict() for d in diags],
        })

    count = len(findings)
    lines = (lines or ["no programs analyzed"]) + [
        f"{count} cost-backed finding{'s' if count != 1 else ''}"
        if count else "clean: no cost-backed findings"
    ]
    return _emit_findings(
        args, findings, bad_input, lambda: lines,
        lambda: {"schema": "repro.cost/1", "hardware": models,
                 "programs": programs},
    )


def _service_quantiles(spec) -> dict:
    """Run one gateway pass and pull per-tenant measured latency
    quantiles (p50/p95/p99) plus the audit verdict."""
    from .service import Gateway, audit_service
    from .service.audit import quantile

    result = Gateway(spec).serve()
    audit = audit_service(result)
    tenants = {}
    for name in sorted(result.stats):
        latencies = result.stats[name].latencies
        tenants[name] = {
            "p50": quantile(latencies, 0.50),
            "p95": quantile(latencies, 0.95),
            "p99": quantile(latencies, 0.99),
            "completed": result.stats[name].completed,
            "observed_bits": round(audit.tenants[name].observed_bits, 4),
            "within_bound": audit.tenants[name].within_bound,
        }
    return {
        "policy": result.policy.describe(),
        "makespan": result.makespan,
        "audit_ok": audit.ok,
        "tenants": tenants,
    }


def cmd_tune(args) -> int:
    """`tune`: branch-and-bound over mitigate placement x prediction scheme
    x per-site budgets, minimizing the static padded-cost objective subject
    to ``channel capacity <= --bits-budget`` on every requested model."""
    from .analysis.synthesize import synthesize

    if args.bits_budget < 0:
        raise CliError("--bits-budget must be >= 0")
    models = _cost_models(args.models)
    if args.objective == "service" and not args.spec:
        raise CliError("--objective service needs --spec FILE")
    result = _analyze(args.program, _options(args, lints=False, audit=False))
    spec = _workload(args.spec) if args.spec else None

    observer = result.lattice[args.adversary] if args.adversary else None
    schemes = tuple(args.scheme or ("doubling", "polynomial"))
    tuned = synthesize(
        result.program, result.gamma, args.bits_budget,
        models=models, schemes=schemes, observer=observer,
        horizon=args.horizon,
    )
    doc = tuned.as_dict()
    doc["program_path"] = args.program
    tenants = [t.name for t in spec.tenants] if spec else ()
    if spec is not None:
        doc["spec"] = tuned.spec_fragment(tenants=tenants)
    if args.objective == "service":
        fragment = tuned.spec_fragment()
        tuned_spec = spec.with_policy(**{
            key: fragment[key]
            for key in ("policy", "quantum", "scheme", "penalty")
        })
        doc["service"] = {
            "baseline": _service_quantiles(spec),
            "tuned": _service_quantiles(tuned_spec),
        }

    winner = tuned.best if tuned.feasible else None
    if args.emit_program and winner is None:
        print("repro tune: no feasible policy; --emit-program skipped",
              file=sys.stderr)
    text = args.format == "text"
    if text:
        _print_tuned(args, models, tuned, winner, doc)
    else:
        _emit(dump(doc))
    if args.emit_program and winner is not None:
        _emit(winner.source + "\n", args.emit_program,
              f"  program written to {args.emit_program}" if text else None)
    if args.emit_spec:
        fragment = tuned.spec_fragment(tenants=tenants)
        _emit(json.dumps(fragment, indent=2) + "\n", args.emit_spec,
              f"  spec fragment written to {args.emit_spec}" if text
              else None)
    return 0 if tuned.feasible else 1


def _print_tuned(args, models, tuned, winner, doc) -> None:
    """`tune`'s text report."""

    def show(candidate, tag):
        budgets = ",".join(str(b) for b in candidate.budgets) or "-"
        objective = ("unbounded" if candidate.objective is None
                     else candidate.objective)
        print(f"  {tag}: {candidate.placement}/{candidate.scheme} "
              f"budgets=({budgets})  objective {objective} padded cycles"
              f"{'' if candidate.feasible else '  INFEASIBLE'}")
        print("    capacity (bits) per model:")
        for line in model_rows({
            model: ("saturated" if bits == float("inf")
                    else f"{bits:.3f}")
            for model, bits in sorted(candidate.capacity.items())
        }, indent="      "):
            print(line)

    print(f"{args.program}: mitigation-policy synthesis "
          f"(budget {args.bits_budget:g} bits, "
          f"models {', '.join(models)})")
    show(tuned.baseline, "baseline")
    if winner is not None:
        show(winner, "best")
        print(f"  quantum: {winner.quantum} cycles "
              f"(quantized release policy, {winner.scheme} scheme)")
        if tuned.improved:
            print(f"  improved: objective {winner.objective} < "
                  f"baseline {tuned.baseline.objective}")
        print("  program:")
        for line in winner.source.splitlines():
            print(f"    {line}")
    else:
        print(f"  no feasible policy within {args.bits_budget:g} bits "
              f"(explored {tuned.explored}, pruned {tuned.pruned})")
        for placement, why in sorted(tuned.skipped_placements.items()):
            print(f"  skipped {placement}: {why}")
    print(f"  search: explored {tuned.explored}, pruned {tuned.pruned}")
    if "service" in doc:
        for tag in ("baseline", "tuned"):
            run = doc["service"][tag]
            verdict = "ok" if run["audit_ok"] else "VIOLATED"
            print(f"  service[{tag}]: {run['policy']}  "
                  f"makespan {run['makespan']}  audit {verdict}")
            for name, t in run["tenants"].items():
                print(f"    {name}: latency p50 {t['p50']} "
                      f"p95 {t['p95']} p99 {t['p99']}  "
                      f"leakage {t['observed_bits']} bits")


def cmd_infer(args) -> int:
    """`infer`: print the program with inferred timing labels."""
    print(pretty(_compiled(args, check=False).program))
    return 0


def cmd_fix(args) -> int:
    """`fix`: auto-insert mitigate commands and print the repaired program."""
    compiled = _compiled(args, check=False)
    try:
        fixed, placements = auto_mitigate(compiled.program, compiled.gamma)
        typecheck(fixed, compiled.gamma)
    except TypingError as err:
        print(f"repro fix: ILL-TYPED, cannot repair: {err}", file=sys.stderr)
        return 1
    for placement in placements:
        print(f"// inserted: {placement.describe()}")
    print(pretty(fixed))
    return 0


def cmd_run(args) -> int:
    """`run`: execute on a hardware model; print time/events/mitigations,
    then the requested telemetry (docs/TELEMETRY.md)."""
    compiled = _compiled(args, check=not args.unchecked)
    sinks = _Telemetry(args, DynamicLeakageMeter(compiled.lattice))
    mitigation = MitigationState(
        scheme=make_scheme(args.scheme), policy=args.penalty
    )
    result = compiled.run(
        _initial_memory(compiled, args),
        hardware=args.hardware,
        params=paper_machine(),
        mitigation=mitigation,
        max_steps=args.max_steps,
        recorder=sinks.recorder,
    )
    print(f"time: {result.time} cycles ({result.steps} steps)")
    if result.events:
        print("events:")
        for event in result.events:
            print(f"  {event}")
    if result.mitigations:
        print(f"mitigations ({mitigation.describe()}):")
        for record in result.mitigations:
            print(f"  {record.mit_id}: duration {record.duration} "
                  f"(level {record.level}, done at {record.end_time})")
    for name in sorted(compiled.gamma):
        print(f"final {name} = {result.memory.value_of(name)}")
    sinks.finish()
    return 0 if sinks.ok else 1


def cmd_serve(args) -> int:
    """`serve`: run a workload through the gateway; print a summary and
    the per-tenant audit (on stderr when ``--metrics-out -`` takes
    stdout)."""
    from .service import Gateway, audit_service, service_document

    spec = _workload(args.spec, policy=args.policy, requests=args.requests,
                     seed=args.seed, quantum=args.quantum,
                     workers=args.workers)
    sinks = _Telemetry(args)
    result = Gateway(spec, recorder=sinks.recorder).serve()
    audit = audit_service(result)
    doc = service_document(result, audit)
    if sinks.profiling:
        doc["profile"] = sinks.profiler.as_dict()

    say = functools.partial(
        print, file=sys.stderr if args.metrics_out == "-" else sys.stdout
    )
    counts = doc["service"]["requests"]
    say(f"policy {result.policy.describe()}  workers {spec.workers}  "
        f"seed {spec.seed}")
    say(f"requests: {counts['submitted']} submitted, "
        f"{counts['completed']} completed, {counts['rejected']} rejected, "
        f"{counts['timed_out']} timed out ({result.retries} retries)")
    say(f"makespan: {result.makespan} cycles  "
        f"throughput: {result.throughput_per_mcycle():.1f} req/Mcycle")
    for name, tenant in doc["service"]["tenants"].items():
        t_audit = audit.tenants[name]
        lat = tenant["latency"]
        verdict = "ok" if t_audit.within_bound else "VIOLATED"
        say(f"  {name} ({tenant['app']}): "
            f"{tenant['requests']['completed']} ok, "
            f"latency p50 {lat['p50']} p99 {lat['p99']}, "
            f"leakage {t_audit.observed_bits:.3f} <= "
            f"{t_audit.bound_bits:.3f} bits: {verdict}")
        if t_audit.probe is not None:
            say(f"    distinguisher "
                f"{t_audit.probe.class_a} vs {t_audit.probe.class_b}: "
                f"advantage {t_audit.probe.advantage:+.3f}")
    for probe in audit.cross_tenant:
        say(f"  cross-tenant {probe.observer} observing {probe.victim}: "
            f"advantage {probe.probe.advantage:+.3f}")
    if audit.ok:
        say("audit: OK (every tenant within its Theorem 2 bound)")
    else:
        say("audit: VIOLATED")
    sinks.finish(doc, say)
    return 0 if audit.ok else 1


def cmd_leakage(args) -> int:
    """`leakage`: exhaustive Q / log|V| / bound over one secret's range.

    One telemetry document covers the *whole* sweep (both passes), with
    the dynamic Theorem 2 account against the swept secret's level and a
    ``sweep`` section recording both sides of the theorem.
    """
    compiled = _compiled(args, check=not args.unchecked)
    lattice = compiled.lattice
    if args.secret not in compiled.gamma:
        raise CliError(f"--secret {args.secret!r} has no --gamma level")
    base = _initial_memory(compiled, args)
    lo, hi = args.values
    variants = secret_variants(base, ({args.secret: v} for v in range(lo, hi)))
    adversary = lattice[args.adversary] if args.adversary else lattice.bottom
    levels = [compiled.gamma[args.secret]]
    env = make_hardware(args.hardware, lattice, paper_machine())
    sinks = _Telemetry(args, DynamicLeakageMeter(lattice, levels=levels,
                                                 adversary=adversary))
    q = measure_leakage(
        compiled.program, compiled.gamma, lattice, levels, adversary,
        base, env, variants, mitigate_pc=compiled.typing.mitigate_pc,
        recorder=sinks.recorder,
    )
    v = timing_variations(
        compiled.program, lattice, levels, adversary, base, env, variants,
        mitigate_pc=compiled.typing.mitigate_pc, recorder=sinks.recorder,
    )
    worst = max((key[-1][3] for key in q.observations if key), default=1)
    bound = leakage_bound(lattice, levels, adversary, worst,
                          relevant_mitigations=len(
                              next(iter(v.id_vectors), ())))
    holds = q.bits <= v.bits + 1e-9
    print(f"secrets: {args.secret} in [{lo}, {hi})  adversary: {adversary}")
    print(f"Q        = {q.bits:.3f} bits "
          f"({q.distinguishable} distinguishable observations)")
    print(f"log|V|   = {v.bits:.3f} bits ({v.count} timing variations)")
    print(f"bound    = {bound:.3f} bits  (T={worst})")
    print(f"Theorem 2 {'holds' if holds else 'VIOLATED'}")
    sinks.finish({**sinks.document(), "sweep": {
        "secret": args.secret,
        "values": [lo, hi],
        "adversary": adversary.name,
        "q_bits": q.bits,
        "distinguishable": q.distinguishable,
        "variation_bits": v.bits,
        "variation_count": v.count,
        "bound_bits": bound,
        "theorem2_holds": holds,
    }} if args.metrics_out else None)
    return 0 if sinks.ok else 1


def cmd_report(args) -> int:
    """`report`: render an audit report from a metrics JSON or journal;
    exit 1 when it records leakage past its static Theorem 2 bound."""
    try:
        lines, ok = render_report(load_document(args.document),
                                  source=args.document)
    except (ReportError, json.JSONDecodeError) as err:
        raise CliError(err) from err
    for line in lines:
        print(line)
    return 0 if ok else 1


def cmd_bench(args) -> int:
    """`bench`: the perf-trajectory suites and the regression gate; a
    regression is a rate drop past ``--tolerance`` or a vanished entry."""
    from .telemetry.bench import (
        BenchError,
        compare_documents,
        load_bench_document,
        render_bench_lines,
        render_comparison_lines,
        run_core_bench,
        run_service_bench,
        write_bench_document,
    )

    if args.current and not args.compare:
        raise CliError("--current requires --compare")

    try:
        if args.current:
            # Gate-only mode: no measurement, diff two documents.
            current = load_bench_document(args.current)
            baseline = load_bench_document(args.compare)
        else:
            suites = ("core", "service") if args.suite == "all" \
                else (args.suite,)
            baseline = None
            if args.compare:
                # Validate the baseline before spending measurement time.
                baseline = load_bench_document(args.compare)
                if baseline.get("kind") not in suites:
                    raise BenchError(
                        f"baseline {args.compare} is "
                        f"kind={baseline.get('kind')!r} but that suite was "
                        f"not selected (--suite {args.suite})"
                    )
            docs = {}
            out_dir = Path(args.output_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            if "core" in suites:
                kwargs = dict(repeats=args.repeats)
                if args.quick:
                    # Shrunken workloads finish in microseconds, where
                    # timer noise swamps the seam-overhead comparison --
                    # skip it (full-size runs and bench_core_speed.py
                    # measure it).
                    kwargs.update(password_length=8, sbox_length=8,
                                  rsa_bits=8, rsa_blocks=1,
                                  gateway_requests=8, check_overhead=False)
                docs["core"] = run_core_bench(**kwargs)
            if "service" in suites:
                docs["service"] = run_service_bench(
                    requests=args.requests if args.requests is not None
                    else (24 if args.quick else 80)
                )
            for kind, doc in docs.items():
                path = write_bench_document(
                    str(out_dir / f"BENCH_{kind}.json"), doc
                )
                for line in render_bench_lines(doc):
                    print(line)
                print(f"wrote {path}")
                print()
            overhead = docs.get("core", {}).get("overhead")
            if overhead is not None and not overhead.get("ok", True):
                print("repro bench: profiler-off seam overhead exceeded "
                      f"{overhead.get('tolerance_pct')}% "
                      f"(measured {overhead.get('overhead_pct')}%)",
                      file=sys.stderr)
                return 1
            if baseline is None:
                return 0
            current = docs[baseline["kind"]]
        comparison = compare_documents(current, baseline,
                                       tolerance=args.tolerance)
    except BenchError as err:
        raise CliError(err) from err
    for line in render_comparison_lines(comparison):
        print(line)
    return 0 if comparison["ok"] else 1


def cmd_contract(args) -> int:
    """`contract`: run the hardware property checkers; 0 iff all hold."""
    lattice = _lattice(args)
    spec = REGISTRY.get(args.model)
    report = run_contract_suite(
        lambda: spec.make(lattice, paper_machine().scaled_down(8)),
        lattice,
        trials=args.trials,
    )
    print(report.summary())
    failing = report.failing_properties()
    if failing:
        print(f"\nVIOLATIONS: {', '.join(failing)}")
        example = report.violations[failing[0]][0]
        print(f"first counterexample: {example}")
        return 1
    print("\nall contract properties hold")
    return 0


def cmd_verify_hw(args) -> int:
    """`verify-hw`: passes only when every expected-secure model survives
    its example budget and every expected-insecure one is detected with a
    property violation its spec declares."""
    from .hardware.registry import LATTICE_POINTS
    from .hardware.verify import run_campaign

    if args.list:
        for spec in REGISTRY.specs():
            extra = (f" (violates {', '.join(spec.violates)})"
                     if spec.violates else "")
            print(f"{spec.name:12s} expected {spec.verdict_word()}{extra}")
            print(f"    {spec.summary}")
            points = (
                f"    lattices: {', '.join(spec.lattice_points)}; "
                f"params: {', '.join(spec.param_points)}"
            )
            if spec.aliases:
                points += f"; aliases: {', '.join(spec.aliases)}"
            print(points)
        return 0

    for point in args.lattices or ():
        if point not in LATTICE_POINTS:
            raise CliError(f"unknown lattice point {point!r}; choose from "
                           f"{sorted(LATTICE_POINTS)}")
    result = run_campaign(
        models=args.models,
        lattice_points=args.lattices,
        max_examples=args.max_examples,
        seed=args.seed,
        quantify=not args.no_quantify,
        counterexample_dir=args.counterexamples,
        database_dir=args.database,
    )
    print(
        f"derandomization seed: {result.seed} "
        f"(per-point seeds listed below; rerun with --seed {result.seed} "
        f"to reproduce)"
    )
    print(f"examples per point: {result.max_examples}")
    print()
    for line in result.summary_lines():
        print(line)
    if args.output:
        _emit(json.dumps(result.as_dict(), indent=2) + "\n", args.output,
              f"\nwrote campaign result to {args.output}")
    surprises = result.surprises()
    if surprises:
        print(f"\nCAMPAIGN FAILED: {len(surprises)} point(s) defied "
              f"their spec")
        for verdict in surprises:
            kind = (
                "expected secure but a violation was found"
                if verdict.expected_secure
                else "expected insecure but went undetected or was "
                     "misattributed"
            )
            print(
                f"  {verdict.model}[{verdict.lattice_point},"
                f"{verdict.param_point}]: {kind}"
            )
        return 1
    print("\ncampaign passed: secure models held, insecure models detected")
    return 0


def cmd_attack(args) -> int:
    """`attack`: passes when every defended (attack, policy) cell held its
    Theorem 2 budget and the fifo positive control measured a channel."""
    from .adversary import (
        REGISTRY as ATTACK_REGISTRY,
        AttackRegistryError,
        CampaignError,
        render_campaign,
        run_campaign,
    )

    if args.list:
        for spec in ATTACK_REGISTRY.specs():
            defeated = ",".join(sorted(spec.defeated_by))
            print(f"{spec.name:26s} target={spec.target_app} "
                  f"metric={spec.metric} defeated-by={defeated}")
            print(f"    {spec.summary}")
            print(f"    re-homes {spec.rehomes}; "
                  f"client pools {spec.client_counts}")
        return 0

    try:
        clients = (
            [int(c) for c in args.clients.split(",") if c]
            if args.clients else None
        )
        document = run_campaign(
            attacks=args.attacks,
            policies=args.policy,
            seed=args.seed,
            clients=clients,
            quantum=args.quantum,
            samples=args.samples,
            quick=args.quick,
        )
    except (AttackRegistryError, CampaignError, ValueError) as err:
        raise CliError(err) from err
    text = json.dumps(document, indent=2)
    as_json = args.format == "json"
    print(text if as_json else render_campaign(document))
    if args.output:
        _emit(text + "\n", args.output,
              None if as_json else f"\nwrote campaign document to "
                                   f"{args.output}")
    return 0 if document["ok"] else 1


# -- the parser ----------------------------------------------------------------


def _add_program(p, nargs: Optional[str] = None, program: bool = True):
    """The program argument(s) with --gamma and --levels; ``nargs`` takes
    several programs, ``program=False`` keeps only --levels."""
    if program:
        p.add_argument("programs" if nargs else "program", nargs=nargs,
                       metavar="program" if nargs else None,
                       help="program file(s) ('-' for stdin); '//' header "
                            "directives such as '// gamma: h=H,l=L' "
                            "configure the analyses")
        p.add_argument("--gamma", type=_gamma, default="",
                       help="data labels: name=LEVEL,name=LEVEL,... "
                            "(overrides a file's '// gamma:' directive)")
    p.add_argument("--levels", type=lambda spec: tuple(spec.split(",")),
                   help="chain lattice levels, low to high (default L,H)")


def _add_audit(p, horizon: bool = True):
    """--adversary and, with ``horizon``, the Theorem 2 --horizon."""
    p.add_argument("--adversary",
                   help="adversary (observer) level (default: lattice bottom)")
    if horizon:
        p.add_argument("--horizon", type=int, default=ANALYSIS_HORIZON,
                       help="time horizon T for the Theorem 2 "
                            "(1 + log2 T) term (default 2^20)")


def _add_output(p, *formats: str, output: bool = True):
    """--format over ``formats`` (when given) and --output."""
    if formats:
        p.add_argument("--format", choices=formats, default="text",
                       help="report format (default text)")
    if output:
        p.add_argument("--output", metavar="FILE",
                       help="write the report or document to FILE")


def _add_models(p, flag: str, verb: str):
    """A repeatable hardware-model pick, resolved by :func:`_cost_models`."""
    p.add_argument(flag, action="append", metavar="MODEL",
                   help=f"hardware model(s) to {verb} (repeatable; "
                        "default: every registered model)")


def _add_execution(p):
    """--set, --hardware and --unchecked for the commands that execute."""
    p.add_argument("--set", action="append", type=_assignment, default=[],
                   help="initial memory: name=int or name=v0:v1:... (array)")
    p.add_argument("--hardware", choices=HARDWARE_CHOICES,
                   default="partitioned")
    p.add_argument("--unchecked", action="store_true",
                   help="run even if the program is ill-typed")


def _add_telemetry(p, trace: bool = True, spans: bool = True):
    """--trace and --metrics-out, plus with ``spans`` --trace-out,
    --journal-out, --profile and --prom-out."""
    if trace:
        p.add_argument("--trace", action="store_true",
                       help="print a runtime-telemetry summary")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the telemetry metrics JSON (schema "
                        "repro.telemetry/1) to FILE; '-' writes it to "
                        "stdout")
    if spans:
        p.add_argument("--trace-out", metavar="FILE",
                       help="write a Chrome trace-event JSON timeline to "
                            "FILE (open in Perfetto / chrome://tracing)")
        p.add_argument("--journal-out", metavar="FILE",
                       help="stream the timeline as JSONL to FILE "
                            "(consumed by `repro report`)")
        p.add_argument("--profile", action="store_true",
                       help="attribute cycles/wall-time to subsystems and "
                            "print the profile summary")
        p.add_argument("--prom-out", metavar="FILE",
                       help="write the profile as Prometheus text "
                            "exposition to FILE (implies profiling)")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Timing-channel language toolchain (PLDI 2012 repro)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, parser=p)
        return p

    p = command("check", cmd_check, "typecheck a program")
    _add_program(p)
    p.add_argument("--require-cache-labels", action="store_true",
                   help="enforce lr = lw (commodity hardware, Sec. 8.1)")
    p.add_argument("--all", action="store_true",
                   help="report every type-system violation instead of "
                        "stopping at the first")

    p = command("lint", cmd_lint,
                "run the full static-analysis engine (multi-error, TL0xx "
                "rule catalog, Theorem 2 audit)")
    _add_program(p, nargs="*")
    p.add_argument("--select", metavar="CODE[,CODE...]", type=_rule_codes,
                   help="only emit the listed rule codes (e.g. TL021,TL022)")
    p.add_argument("--ignore", metavar="CODE[,CODE...]", type=_rule_codes,
                   help="suppress the listed rule codes")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog (code, severity, name, "
                        "summary) and exit")
    _add_audit(p)
    _add_output(p, "text", "json", "sarif")
    p.add_argument("--no-audit", dest="audit", action="store_false",
                   help="omit the static Theorem 2 leakage audit")
    p.add_argument("--no-infer", action="store_true",
                   help="skip label inference (report missing labels)")
    p.add_argument("--infer", action="store_true",
                   help="force label inference on, overriding a file's "
                        "'// infer: off' directive (lint unannotated "
                        "Gamma-only programs without TL007 noise)")
    p.add_argument("--explain", action="store_true",
                   help="attach step-by-step source->sink flow paths to "
                        "flow diagnostics (text steps; SARIF codeFlows)")
    p.add_argument("--require-cache-labels", action="store_true",
                   help="enforce lr = lw (commodity hardware, Sec. 8.1)")
    p.add_argument("--bits-budget", type=float, metavar="BITS",
                   help="channel-capacity budget in bits for TL026 "
                        "(overrides a file's '// budget:' directive)")

    p = command("flow", cmd_flow,
                "export the dataflow layer's graphs (CFG or timing-"
                "dependence graph) for one program")
    _add_program(p)
    p.add_argument("--dot", choices=("cfg", "tdg"), default="cfg",
                   help="which graph to render as Graphviz DOT "
                        "(default cfg)")
    p.add_argument("--costs", metavar="MODEL",
                   help="annotate CFG basic blocks with static cycle-"
                        "cost intervals for the named hardware model "
                        f"({', '.join(HARDWARE_CHOICES)})")
    _add_output(p)

    p = command("cost", cmd_cost,
                "static cycle-cost analysis: per-hardware [lo, hi] "
                "interval bounds, mitigate-site table, and the cost-"
                "backed lints TL021-TL025")
    _add_program(p, nargs="+")
    _add_models(p, "--hardware", "bound against")
    _add_audit(p)
    _add_output(p, "text", "json", "sarif")

    p = command("tune", cmd_tune,
                "synthesize the cheapest mitigation policy (placement x "
                "scheme x budgets) whose channel capacity fits a bits "
                "budget on every hardware model")
    _add_program(p)
    p.add_argument("--bits-budget", type=float, required=True, metavar="BITS",
                   help="channel-capacity budget in bits the synthesized "
                        "policy must satisfy on every requested model")
    _add_models(p, "--models", "certify against")
    p.add_argument("--objective", choices=("static", "service"),
                   default="static",
                   help="'static' minimizes worst-case padded cycles; "
                        "'service' additionally replays --spec under the "
                        "baseline and tuned policies and reports measured "
                        "latency p50/p95/p99 (default static)")
    p.add_argument("--spec", metavar="FILE",
                   help="workload spec JSON to tailor the emitted "
                        "fragment to (required for --objective service)")
    p.add_argument("--scheme", action="append", choices=SCHEME_CHOICES,
                   help="prediction scheme(s) to search (repeatable; "
                        "default: all)")
    _add_audit(p)
    _add_output(p, "text", "json", output=False)
    p.add_argument("--emit-program", metavar="FILE",
                   help="write the synthesized TL program to FILE")
    p.add_argument("--emit-spec", metavar="FILE",
                   help="write the recommended workload-spec fragment "
                        "(quantized policy, quantum, scheme) to FILE")

    p = command("infer", cmd_infer, "print with inferred labels")
    _add_program(p)

    p = command("fix", cmd_fix, "insert mitigate commands automatically")
    _add_program(p)

    p = command("run", cmd_run, "execute on simulated hardware")
    _add_program(p)
    _add_execution(p)
    p.add_argument("--max-steps", type=int, default=10_000_000)
    p.add_argument("--scheme", choices=SCHEME_CHOICES, default="doubling",
                   help="prediction scheme for mitigate commands "
                        "(default doubling)")
    p.add_argument("--penalty", choices=("local", "global"),
                   default="local",
                   help="misprediction penalty policy: per-level counters "
                        "or one shared counter (default local)")
    _add_telemetry(p)

    p = command("serve", cmd_serve,
                "run a multi-tenant workload through the timing-safe "
                "gateway")
    p.add_argument("--spec", required=True, metavar="FILE",
                   help="workload spec JSON ('-' for stdin); "
                        "see docs/SERVICE.md")
    p.add_argument("--policy", choices=("fifo", "rr", "quantized"),
                   help="override the spec's scheduler policy")
    for flag, what in (("--requests", "request count"),
                       ("--seed", "RNG seed"),
                       ("--quantum", "quantized-policy quantum (cycles)"),
                       ("--workers", "worker count")):
        p.add_argument(flag, type=int, help=f"override the spec's {what}")
    _add_telemetry(p, trace=False)

    p = command("leakage", cmd_leakage,
                "measure leakage over a secret range")
    _add_program(p)
    _add_execution(p)
    p.add_argument("--secret", required=True, help="secret variable name")
    p.add_argument("--values", type=_value_range, default="0..16",
                   help="range lo..hi")
    _add_audit(p, horizon=False)
    _add_telemetry(p, spans=False)

    p = command("contract", cmd_contract, "verify a hardware model")
    p.add_argument("model", choices=HARDWARE_CHOICES)
    _add_program(p, program=False)
    p.add_argument("--trials", type=int, default=15)

    p = command("verify-hw", cmd_verify_hw,
                "property-based contract campaign over the whole hardware "
                "zoo")
    p.add_argument("--models", type=_csv,
                   help="comma-separated model names (default: all)")
    p.add_argument("--lattices", type=_csv,
                   help="comma-separated lattice points to include "
                        "(two_point,chain3,diamond)")
    p.add_argument("--max-examples", type=int, default=300,
                   help="generated stimulus sequences per campaign point")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign derandomization seed")
    _add_output(p)
    p.add_argument("--counterexamples", metavar="DIR",
                   help="write shrunk, replayable counterexample JSON here")
    p.add_argument("--database", metavar="DIR",
                   help="persist the Hypothesis example database here")
    p.add_argument("--no-quantify", action="store_true",
                   help="skip end-to-end leak quantification")
    p.add_argument("--list", action="store_true",
                   help="list registered models and exit")

    p = command("attack", cmd_attack,
                "red-team campaign: measured adversary advantage vs each "
                "tenant's Theorem 2 budget, per scheduler policy")
    p.add_argument("--attacks", type=_csv,
                   help="comma-separated attack names (default: all)")
    p.add_argument("--policy", type=_csv,
                   help="comma-separated scheduler policies to sweep "
                        "(default: fifo,rr,quantized)")
    p.add_argument("--clients",
                   help="comma-separated adversary worker-pool sizes "
                        "(default: each attack's registered sweep)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; every cell derives its own via "
                        "seed ^ crc32(attack:policy:clients)")
    p.add_argument("--samples", type=int, default=3,
                   help="median-of-N verify samples per candidate "
                        "(default 3)")
    p.add_argument("--quantum", type=int, default=4096,
                   help="quantized-policy quantum in cycles (default 4096)")
    p.add_argument("--quick", action="store_true",
                   help="one client-pool size per attack (bounded CI run)")
    _add_output(p, "text", "json")
    p.add_argument("--list", action="store_true",
                   help="list registered attacks and exit")

    p = command("report", cmd_report,
                "render an audit report from telemetry output")
    p.add_argument("document",
                   help="a metrics JSON (--metrics-out) or an event "
                        "journal (--journal-out)")

    p = command("bench", cmd_bench,
                "measure the perf trajectory (BENCH_*.json) and gate "
                "regressions against a baseline")
    p.add_argument("--suite", choices=("core", "service", "all"),
                   default="all",
                   help="which suite(s) to measure (default all)")
    p.add_argument("--repeats", type=int, default=3,
                   help="timed repetitions per core entry; the minimum "
                        "wall time wins (default 3)")
    p.add_argument("--requests", type=int,
                   help="service-suite request count (default 80, "
                        "24 with --quick)")
    p.add_argument("--quick", action="store_true",
                   help="shrink workloads for a fast smoke run (numbers "
                        "are NOT comparable to a full baseline)")
    p.add_argument("--output-dir", metavar="DIR", default=".",
                   help="where BENCH_*.json land (default: current "
                        "directory; the repo root holds the committed "
                        "baselines)")
    p.add_argument("--compare", metavar="BASELINE",
                   help="diff against this BENCH_*.json baseline; exit 1 "
                        "when any entry regresses past --tolerance")
    p.add_argument("--current", metavar="FILE",
                   help="with --compare: diff this pre-measured document "
                        "instead of re-measuring")
    p.add_argument("--tolerance", type=float, default=0.20,
                   help="relative cycles-per-second drop tolerated before "
                        "an entry counts as regressed (default 0.20)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code (0/1/2, see above)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as err:
        print(f"repro {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
