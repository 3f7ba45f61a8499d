"""Command-line interface: ``python -m repro <command> ...``.

Subcommands
-----------

check
    Typecheck a program (after label inference, unless its ``// infer:
    off`` directive says otherwise)::

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
    range, plus the Theorem 2 variation count and the Sec. 7 bound; exit
    1 when Theorem 2 fails on the range::

        python -m repro leakage prog.tl --gamma h=H,l=L --set l=0 \\
            --secret h --values 0..32

contract
    Run the executable software/hardware contract against a hardware
    model::

        python -m repro contract partitioned --levels L,M,H

verify-hw
    The seeded contract campaign over the whole hardware zoo; exit 1 when
    a model defies its declared verdict.

attack
    The red-team campaign against the gateway: measured adversary
    advantage against each tenant's Theorem 2 budget, per scheduler
    policy; exit 1 on a beaten budget or a vacuous positive control.

report
    Render any document the repo writes: a telemetry audit of a
    ``repro.telemetry/1`` metrics JSON or a JSONL journal, or the text
    report (and exit code) of the ``repro.lint/1``, ``repro.cost/1``,
    ``repro.tune/1``, ``repro.adversary/1`` or
    ``repro.verify-hw.campaign/1`` JSON its command wrote::

        python -m repro report benchmarks/results/fig7_metrics.json

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

Programs use the concrete syntax of :mod:`repro.lang.parser`.  Every
command that reads one resolves its leading ``//`` directives, then the
flags, in :func:`repro.analysis.engine.resolve_config`.  ``// gamma:``
(``--gamma`` overrides it per name), ``// levels:`` (default ``L <= H``)
and ``// adversary:`` apply to all; ``// infer:`` and
``// require-cache-labels`` to `check` and the analyses (docs/ANALYSIS.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Dict, List, Optional, Tuple

from . import __version__
from .analysis.audit import DEFAULT_HORIZON as ANALYSIS_HORIZON
from .analysis.engine import (DirectiveError, LintOptions, _bits_budget,
                              analyze_source, parse_gamma, resolve_config)
from .analysis.render import (dump, render_cost, render_json, render_lint,
                              render_sarif, render_tune)
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
from .lattice import LatticeError, chain
from .machine.memory import Memory, MemoryError_
from .quantitative import (
    Theorem2Result,
    VariantError,
    fold_leakage,
    fold_variations,
    leakage_bound,
    secret_variants,
    sweep,
    validate_variants,
)
from .semantics.core import EvaluationError
from .semantics.full import SemanticsError
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
    render_metrics,
    render_report,
    write_chrome_trace,
)
from .typesystem import TypingError, UnboundVariable, auto_mitigate, typecheck

#: Every accepted hardware name (canonical + aliases), registry-driven.
HARDWARE_CHOICES = REGISTRY.choices()


class CliError(Exception):
    """Bad input; :func:`main` reports it and exits 2."""


#: What :func:`main` reports as ``repro <command>: <message>`` (exit 2):
#: bad input, including a program that fails at run time on the given
#: memory (an out-of-bounds index, a name ``--set`` declared with the
#: wrong shape, no termination within the step budget) or a `leakage`
#: secret the adversary already observes.
INPUT_ERRORS = (CliError, OSError, HardwareRegistryError, UnboundVariable,
                EvaluationError, MemoryError_, SemanticsError, VariantError)


# -- option-value converters (argparse ``type=``) ------------------------------


def _gamma(spec: str) -> Dict[str, str]:
    """``--gamma name=LEVEL,...`` (:func:`parse_gamma`); the levels are
    checked later, against the program's lattice."""
    try:
        return parse_gamma(spec)
    except DirectiveError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


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
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo..hi, got {spec!r}"
        ) from None
    if hi <= lo:
        raise argparse.ArgumentTypeError(
            f"the range [{lo}, {hi}) holds no value"
        )
    return lo, hi


def _positive(spec: str) -> int:
    """A positive integer (``--horizon``, ``--trials``, ``--max-examples``,
    ``--max-steps``, ``--samples``, ``--quantum``)."""
    try:
        value = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {spec!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positives(spec: str) -> List[int]:
    """``--clients n[,n...]``: comma-separated positive integers."""
    return [_positive(item) for item in spec.split(",")]


def _bits(spec: str) -> float:
    """``--bits-budget``: checked once, when the flag is parsed, by the
    check a ``// budget:`` directive gets."""
    try:
        return _bits_budget(spec)
    except DirectiveError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _levels(spec: str) -> Tuple[str, ...]:
    """``--levels a,b,c``: chain lattice level names, low to high."""
    try:
        return tuple(level.name for level in chain(spec.split(",")))
    except LatticeError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


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
    try:
        if path == "-":
            # Decode stdin strictly, as a file is: the default text stream
            # may escape bytes that are not UTF-8 into surrogates.
            sys.stdin.reconfigure(encoding="utf-8", errors="strict")
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise CliError(f"{path}: not UTF-8 text") from err


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
    stderr and carrying on; returns the results and how many inputs were
    bad."""
    results, unread = [], 0
    for path in args.programs:
        try:
            results.append(_analyze(path, options, fatal_ok))
        except INPUT_ERRORS as err:
            print(f"repro {args.command}: {err}", file=sys.stderr)
            unread += 1
    return results, unread


def _compiled(args, check: bool = True, typed: bool = False):
    """``args.program`` compiled under its :func:`resolve_config`
    configuration, and that configuration.  Labels are inferred and
    ``check`` needs no cache labels, unless ``typed`` (`check`'s own
    compile), which follows the configuration and lets a
    :class:`TypingError` through; other bad input raises :class:`CliError`.
    """
    source = _read(args.program)
    try:
        config = resolve_config(source, _options(args))
    except DirectiveError as err:
        raise CliError(f"{args.program}: {err}") from err
    try:
        compiled = compile_program(
            source, gamma=config.gamma, infer=config.infer or not typed,
            check=check,
            require_cache_labels=typed and config.require_cache_labels)
    except (SyntaxError, TypingError) as err:
        if typed and isinstance(err, TypingError):
            raise
        raise CliError(f"{args.program}: {err}") from err
    return compiled, config


def _initial_memory(compiled, args) -> Memory:
    """The ``--set`` memory; Gamma scalars absent from ``--set`` start
    at 0."""
    return Memory({**{name: 0 for name in compiled.gamma}, **dict(args.set)})


def _workload(path: str, **overrides):
    """The workload spec JSON at ``path``, with non-None ``overrides``;
    its tenants' handler configs are checked by building the handlers."""
    from .service import WorkloadError, WorkloadSpec

    try:
        spec = WorkloadSpec.from_dict(json.loads(_read(path)))
        for name, value in overrides.items():
            if value is not None:
                setattr(spec, name, value)
        spec.validate()
        spec.build_handlers()
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


def _emit_findings(args, doc: dict, render, findings,
                   bad_input: bool) -> int:
    """Emit a findings report in ``--format`` -- the document ``doc``, its
    text ``render(doc)``, or SARIF over ``findings`` -- and map it to the
    exit code: 2 on bad input, else 1 with findings, else 0."""
    if args.format == "text":
        text = "\n".join(render(doc)) + "\n"
    else:
        text = dump(doc if args.format == "json" else render_sarif(findings))
    _emit(text, args.output, f"{args.format} report written to {args.output}")
    return 2 if bad_input else (1 if findings else 0)


class _Telemetry:
    """The telemetry sinks a `run`, `serve` or `leakage` asked for.

    A ``metered`` command (`run`, `leakage`) gets a metrics recorder when
    ``--trace`` or ``--metrics-out`` wants it, and reports its
    :attr:`meter` (a :class:`DynamicLeakageMeter` it feeds itself) beside
    it; spans and a JSONL journal follow ``--trace-out``/
    ``--journal-out``, a profiler ``--profile``/``--prom-out``.  Pass
    :attr:`recorder` (all of them, or ``None``) to the run, set
    :attr:`meter`, then call :meth:`finish`.  The command's text goes
    through :attr:`say`: to stderr when ``--metrics-out -`` takes stdout.
    """

    def __init__(self, args, metered: bool = False):
        self.args = args
        wants_metrics = getattr(args, "trace", False) or args.metrics_out
        self.metrics = (RecordingTraceRecorder()
                        if metered and wants_metrics else None)
        #: The command's leakage meter; reported only beside ``metrics``.
        self.meter: Optional[DynamicLeakageMeter] = None
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
        self.say = functools.partial(
            print, file=sys.stderr if args.metrics_out == "-" else sys.stdout)

    def document(self) -> dict:
        """The ``repro.telemetry/1`` document of the metrics recorder,
        with the leakage and profile sections; without a recorder, the
        profile alone (or nothing)."""
        profile = self.profiler.as_dict() if self.profiling else None
        if self.metrics is None:
            return {} if profile is None else {"profile": profile}
        return self.metrics.registry.as_dict(leakage=self.meter.as_dict(),
                                             profile=profile)

    def finish(self, doc: Optional[dict] = None,
               section: Optional[str] = None) -> int:
        """Print the command's text, write the requested files (``doc``
        as in :meth:`write_files`) and return the exit code.

        The text is :func:`render_metrics` over ``doc`` (default
        :meth:`document`): every part with ``--trace``, else the
        command's ``section`` and, with ``--profile``, the profile.  The
        code is 1 when the document records a violated bound, as
        ``repro report`` exits on the written document.
        """
        args = self.args
        parts = None if getattr(args, "trace", False) else (
            {section, "profile"} if getattr(args, "profile", False)
            else {section})
        lines, ok = render_metrics(self.document() if doc is None else doc,
                                   parts)
        for line in lines:
            self.say(line)
        if self.profiling and args.prom_out:
            _emit(prometheus_exposition(self.profiler.as_dict()),
                  args.prom_out,
                  f"prometheus exposition written to {args.prom_out}",
                  self.say)
        self.write_files(doc)
        return 0 if ok else 1

    def write_files(self, doc: Optional[dict] = None) -> None:
        """Write --metrics-out (``doc``, key-sorted, or :meth:`document`),
        --journal-out and --trace-out: also what a run that raised took."""
        args, say = self.args, self.say
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
            print("\n".join(render_lint(render_json(result.diagnostics),
                                         {args.program: result.source})))
            return 1
        return _well_typed(result.typing)
    try:
        compiled, _ = _compiled(args, typed=True)
    except TypingError as err:
        print(f"ILL-TYPED: {err}")
        return 1
    return _well_typed(compiled.typing)


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
    results, unread = _analyze_all(args, options, fatal_ok=True)

    diagnostics = [d for res in results for d in res.diagnostics]
    audits = {
        res.path: res.audit for res in results
        if res.audit is not None and res.audit.sites
    } if args.audit else None
    sources = {res.path: res.source for res in results}
    return _emit_findings(
        args, render_json(diagnostics, audits),
        lambda doc: render_lint(doc, sources, unread), diagnostics,
        unread > 0 or any(res.fatal for res in results),
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
    from .analysis.quantify import census_groups
    from .analysis.rules import COST_RULE_CODES

    models = _cost_models(args.hardware)
    options = _options(args, select=frozenset(COST_RULE_CODES) | {"TL000"})
    results, unread = _analyze_all(args, options)

    findings = []
    programs = []
    for result in results:
        walked = {}
        for members in census_groups(result.program, models):
            report = compute_cost(result.program, contract=members[0][1])
            walked.update((model, dataclasses.replace(report, hardware=model))
                          for model, _ in members)
        reports = {model: walked[model] for model in models}
        diags = [d for d in result.diagnostics if d.code != "TL000"]
        findings.extend(diags)
        bits = {
            site.mit_id: site.contribution_bits
            for site in (result.audit.sites if result.audit else ())
        }
        sites = []
        for site in reports[models[0]].mitigates.values():
            intervals = {
                model: reports[model].mitigates[site.mit_id].interval
                for model in models
                if site.mit_id in reports[model].mitigates
            }
            sites.append({
                "mit_id": site.mit_id,
                "line": site.span.line,
                "level": site.level,
                "budget": site.budget,
                "marginal_bits": bits.get(site.mit_id, 0.0),
                "intervals": {
                    model: [interval.lo, interval.hi]
                    for model, interval in intervals.items()
                },
            })
        programs.append({
            "path": result.path,
            "hardware": {
                model: report.as_dict()
                for model, report in reports.items()
            },
            "sites": sites,
            "diagnostics": [d.as_dict() for d in diags],
        })

    return _emit_findings(
        args, {"schema": "repro.cost/1", "hardware": models,
               "programs": programs},
        lambda doc: render_cost(doc, unread), findings, unread > 0,
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
    to ``channel capacity <= --bits-budget`` (else the file's ``//
    budget:``) on every requested model."""
    from .analysis.synthesize import synthesize

    models = _cost_models(args.models)
    if args.objective == "service" and not args.spec:
        raise CliError("--objective service needs --spec FILE")
    result = _analyze(args.program, _options(
        args, lints=False, audit=False, bits_budget=args.bits_budget))
    if result.bits_budget is None:
        raise CliError(f"{args.program}: no bits budget (give "
                       f"--bits-budget or a '// budget:' directive)")
    spec = _workload(args.spec) if args.spec else None

    schemes = tuple(args.scheme or ("doubling", "polynomial"))
    tuned = synthesize(
        result.program, result.gamma, result.bits_budget,
        models=models, schemes=schemes, observer=result.adversary,
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
    print("\n".join(render_tune(doc)) if text else json.dumps(doc, indent=2))
    if args.emit_program and winner is not None:
        _emit(winner.source + "\n", args.emit_program,
              f"  program written to {args.emit_program}" if text else None)
    if args.emit_spec:
        fragment = tuned.spec_fragment(tenants=tenants)
        _emit(json.dumps(fragment, indent=2) + "\n", args.emit_spec,
              f"  spec fragment written to {args.emit_spec}" if text
              else None)
    return 0 if tuned.feasible else 1


def cmd_infer(args) -> int:
    """`infer`: print the program with inferred timing labels."""
    compiled, _ = _compiled(args, check=False)
    print(pretty(compiled.program))
    return 0


def cmd_fix(args) -> int:
    """`fix`: auto-insert mitigate commands and print the repaired program."""
    compiled, _ = _compiled(args, check=False)
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
    compiled, config = _compiled(args, check=not args.unchecked)
    sinks = _Telemetry(args, metered=True)
    meter = sinks.meter = DynamicLeakageMeter(compiled.lattice,
                                              adversary=config.adversary)
    mitigation = MitigationState(
        scheme=make_scheme(args.scheme), policy=args.penalty
    )
    try:
        result = compiled.run(
            _initial_memory(compiled, args),
            hardware=args.hardware,
            params=paper_machine(),
            mitigation=mitigation,
            max_steps=args.max_steps,
            recorder=sinks.recorder,
        )
    except INPUT_ERRORS:
        sinks.write_files()  # what the steps taken recorded
        raise
    meter.observe(result)
    say = sinks.say
    say(f"time: {result.time} cycles ({result.steps} steps)")
    if result.events:
        say("events:")
        for event in result.events:
            say(f"  {event}")
    if result.mitigations:
        say(f"mitigations ({mitigation.describe()}):")
        for record in result.mitigations:
            say(f"  {record.mit_id}: duration {record.duration} "
                f"(level {record.level}, done at {record.end_time})")
    for name in sorted(compiled.gamma):
        say(f"final {name} = {result.memory.value_of(name)}")
    return sinks.finish()


def cmd_serve(args) -> int:
    """`serve`: run a workload through the gateway and print its
    ``service`` section: counts and the per-tenant audit (on stderr when
    ``--metrics-out -`` takes stdout)."""
    from .service import Gateway, audit_service, service_document

    spec = _workload(args.spec, policy=args.policy, requests=args.requests,
                     seed=args.seed, quantum=args.quantum,
                     workers=args.workers)
    sinks = _Telemetry(args)
    result = Gateway(spec, recorder=sinks.recorder).serve()
    doc = service_document(result, audit_service(result))
    if sinks.profiling:
        doc["profile"] = sinks.profiler.as_dict()
    return sinks.finish(doc, "service")


def cmd_leakage(args) -> int:
    """`leakage`: exhaustive Q / log|V| / bound over one secret's range.

    The range runs once and both sides of Theorem 2 are folds over those
    runs, so one telemetry document covers the whole sweep, with the
    dynamic Theorem 2 account against the swept secret's level and a
    ``sweep`` section recording both sides of the theorem.  Prints that
    section; exits 1 when either side of Theorem 2 is violated.
    """
    compiled, config = _compiled(args, check=not args.unchecked)
    lattice = compiled.lattice
    if args.secret not in compiled.gamma:
        raise CliError(f"--secret {args.secret!r} has no security level "
                       f"(give it one with --gamma or // gamma:)")
    base = _initial_memory(compiled, args)
    lo, hi = args.values
    variants = secret_variants(base, ({args.secret: v} for v in range(lo, hi)))
    adversary = config.adversary or lattice.bottom
    levels = [compiled.gamma[args.secret]]
    env = make_hardware(args.hardware, lattice, paper_machine())
    sinks = _Telemetry(args, metered=True)
    validate_variants(base, variants, compiled.gamma, lattice, levels,
                      adversary)
    runs = list(sweep(compiled.program, base, env, variants,
                      mitigate_pc=compiled.typing.mitigate_pc,
                      recorder=sinks.recorder))
    q = fold_leakage(runs, compiled.gamma, adversary)
    v = sinks.meter = fold_variations(runs, lattice, levels, adversary)
    worst = q.latest_event_time
    bound = leakage_bound(lattice, levels, adversary, worst,
                          relevant_mitigations=v.max_relevant_per_run)
    return sinks.finish({**sinks.document(), "sweep": {
        "secret": args.secret,
        "values": [lo, hi],
        "adversary": adversary.name,
        "q_bits": q.bits,
        "distinguishable": q.distinguishable,
        "variation_bits": v.observed_bits,
        "variation_count": v.observed_variations,
        "bound_bits": bound,
        "T": worst,
        "theorem2_holds": Theorem2Result(leakage=q, variations=v).holds,
    }}, "sweep")


def cmd_report(args) -> int:
    """`report`: render a document (:func:`render_report`); exit 1 when
    it records a violated bound or its command exited 1."""
    try:
        lines, ok = render_report(load_document(args.document),
                                  source=args.document)
    except (ReportError, json.JSONDecodeError) as err:
        raise CliError(err) from err
    for line in lines:
        print(line)
    return 0 if ok else 1


def cmd_contract(args) -> int:
    """`contract`: run the seeded hardware contract suite; 0 iff all hold."""
    lattice = chain(args.levels) if args.levels else DEFAULT_LATTICE
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
    from .hardware.verify import render_verify_campaign, run_campaign

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
    )
    doc = result.as_dict()
    print("\n".join(render_verify_campaign(doc)))
    if args.output:
        _emit(json.dumps(doc, indent=2) + "\n", args.output,
              f"\nwrote campaign result to {args.output}")
    return 0 if doc["ok"] else 1


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
            print(f"    client pools {spec.client_counts}")
        return 0

    try:
        document = run_campaign(
            attacks=args.attacks,
            policies=args.policy,
            seed=args.seed,
            clients=args.clients,
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
                       help="program file(s) ('-' for stdin); its '//' "
                            "header directives ('// gamma: h=H,l=L', "
                            "'// levels:', '// adversary:', ...) configure "
                            "it, and a flag overrides a directive per name")
        p.add_argument("--gamma", type=_gamma, default="",
                       help="data labels: name=LEVEL,name=LEVEL,... "
                            "(each overrides the file's '// gamma:' label "
                            "of that name)")
    p.add_argument("--levels", type=_levels,
                   help="chain lattice levels, low to high (default L,H)")


def _add_audit(p, horizon: bool = True):
    """--adversary and, with ``horizon``, the Theorem 2 --horizon."""
    p.add_argument("--adversary",
                   help="adversary (observer) level (default: lattice bottom)")
    if horizon:
        p.add_argument("--horizon", type=_positive, default=ANALYSIS_HORIZON,
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
    p.add_argument("--bits-budget", type=_bits, metavar="BITS",
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
    p.add_argument("--bits-budget", type=_bits, metavar="BITS",
                   help="channel-capacity budget in bits the synthesized "
                        "policy must satisfy on every requested model "
                        "(overrides a file's '// budget:' directive; "
                        "required when the file has none)")
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
    p.add_argument("--max-steps", type=_positive, default=10_000_000)
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
    p.add_argument("--trials", type=_positive, default=15)

    p = command("verify-hw", cmd_verify_hw,
                "seeded contract campaign over the whole hardware zoo")
    p.add_argument("--models", type=_csv,
                   help="comma-separated model names (default: all)")
    p.add_argument("--lattices", type=_csv,
                   help="comma-separated lattice points to include "
                        "(two_point,chain3,diamond)")
    p.add_argument("--max-examples", type=_positive, default=300,
                   help="generated stimulus sequences per campaign point")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (each point derives its own)")
    _add_output(p)
    p.add_argument("--counterexamples", metavar="DIR",
                   help="write shrunk, replayable counterexample JSON "
                        "here, and replay what an earlier run wrote first")
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
    p.add_argument("--clients", type=_positives,
                   help="comma-separated adversary worker-pool sizes "
                        "(default: each attack's registered sweep)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; every cell derives its own via "
                        "seed ^ crc32(attack:policy:clients)")
    p.add_argument("--samples", type=_positive, default=3,
                   help="median-of-N verify samples per candidate "
                        "(default 3)")
    p.add_argument("--quantum", type=_positive, default=4096,
                   help="quantized-policy quantum in cycles (default 4096)")
    p.add_argument("--quick", action="store_true",
                   help="one client-pool size per attack (bounded CI run)")
    _add_output(p, "text", "json")
    p.add_argument("--list", action="store_true",
                   help="list registered attacks and exit")

    p = command("report", cmd_report,
                "render any document the repo writes: a telemetry audit "
                "or a command's text report")
    p.add_argument("document",
                   help="a repro.telemetry/1 metrics JSON (--metrics-out), "
                        "an event journal (--journal-out), or the JSON of "
                        "lint (repro.lint/1), cost (repro.cost/1), tune "
                        "(repro.tune/1), attack (repro.adversary/1) or "
                        "verify-hw --output (repro.verify-hw.campaign/1)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code (0/1/2, see above)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as err:
        # MemoryError_ is a KeyError, whose str() quotes the message.
        message = err.args[0] if isinstance(err, MemoryError_) else err
        print(f"repro {args.command}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
