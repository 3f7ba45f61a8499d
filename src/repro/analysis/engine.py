"""The lint driver: directives, passes, and the per-file pipeline.

``repro lint`` runs this over one or more program files.  Fixture and
example programs declare their own analysis configuration in leading
``//`` comment directives, so a corpus sweep needs no per-file flags::

    // gamma: h=H, l=L
    // levels: L,M,H
    // adversary: L
    // infer: off
    // budget: 1.5
    // require-cache-labels

:func:`resolve_config` is their one reader: every command that reads a
program, and the soundness replay, gets its configuration from it.

The pipeline per file: resolve the configuration -> parse program (a
syntax error becomes a TL000 diagnostic) -> report unbound variables
(TL009) against a tolerant Gamma -> optional label inference -> the
error-recovering type check (TL001-TL008) -> AST lints (TL010+) ->
static Theorem 2 audit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hardware.costmodel import CacheGeometry, contract_for
from ..lang import ast
from ..lang.lexer import LexError
from ..lang.parser import DEFAULT_LATTICE, ParseError, parse
from ..lattice import Label, Lattice, LatticeError, chain
from ..typesystem.environment import SecurityEnvironment
from ..typesystem.inference import infer_labels
from ..typesystem.typing import TypingInfo
from .audit import DEFAULT_HORIZON, LeakageAudit, audit_leakage
from .cfg import CFG, build_cfg, reachable_commands
from .collector import (
    TolerantEnvironment,
    collect_typing_diagnostics,
    unbound_variable_diagnostics,
)
from .dataflow import ConstantPropagation, solve
from .diagnostics import Diagnostic, Severity
from .cost import CostReport, compute_cost
from .flows import (
    FlowExplainer,
    TimingDependenceGraph,
    attach_flows,
    build_tdg,
)
from .lints import LintContext, run_lints
from .quantify import QuantifyReport, quantify_all
from .rules import RULES


class DirectiveError(ValueError):
    """A malformed ``//`` analysis directive."""


@dataclass
class LintOptions:
    """Configuration for one analysis run (CLI flags override directives)."""

    gamma: Dict[str, str] = field(default_factory=dict)
    levels: Optional[Tuple[str, ...]] = None
    adversary: Optional[str] = None
    #: Tri-state: None follows the file's ``// infer:`` directive (default
    #: on); True forces inference even past ``// infer: off``; False
    #: disables it outright.
    infer: Optional[bool] = None
    require_cache_labels: bool = False
    lints: bool = True
    audit: bool = True
    horizon: int = DEFAULT_HORIZON
    #: Attach source->sink flow paths to flow-shaped diagnostics.
    explain: bool = False
    #: Keep only these rule codes (None keeps everything).
    select: Optional[frozenset] = None
    #: Drop these rule codes (applied after ``select``).
    ignore: frozenset = frozenset()
    #: Channel-capacity budget in bits for TL026 (overrides the file's
    #: ``// budget:`` directive when set).
    bits_budget: Optional[float] = None


@dataclass
class LintResult:
    """Everything one file's analysis produced."""

    path: str
    source: str
    diagnostics: List[Diagnostic]
    audit: Optional[LeakageAudit] = None
    program: Optional[ast.Command] = None
    gamma: Optional[SecurityEnvironment] = None
    lattice: Optional[Lattice] = None
    typing: Optional[TypingInfo] = None
    cfg: Optional[CFG] = None
    tdg: Optional[TimingDependenceGraph] = None
    #: Static cost report on the exact ``null`` contract (lint facts).
    cost: Optional[CostReport] = None
    #: Timing-equivalence-class censuses by hardware model, when the
    #: capacity-backed passes ran (always includes ``null``; every
    #: registry model when a bits budget was declared).
    quantify: Optional[Dict[str, "QuantifyReport"]] = None
    #: The bits budget the censuses were checked against, if any.
    bits_budget: Optional[float] = None
    #: The configured adversary (observer) level, if any.
    adversary: Optional[Label] = None

    @property
    def fatal(self) -> bool:
        """True when the input could not even be parsed (TL000)."""
        return any(d.code == "TL000" for d in self.diagnostics)

    @property
    def clean(self) -> bool:
        return not self.diagnostics


# -- directives ----------------------------------------------------------------

_DIRECTIVE = re.compile(
    r"^//\s*(gamma|levels|adversary|infer|budget)\s*:\s*(.+)$"
)
_FLAG = re.compile(r"^//\s*(require-cache-labels)\s*$")


def parse_directives(source: str) -> Dict[str, str]:
    """Read ``// key: value`` analysis directives from the file header.

    Scanning stops at the first non-comment, non-blank line; ordinary
    comments are ignored.
    """
    found: Dict[str, str] = {}
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped.startswith("//"):
            break
        match = _DIRECTIVE.match(stripped)
        if match:
            found[match.group(1)] = match.group(2).strip()
            continue
        match = _FLAG.match(stripped)
        if match:
            found[match.group(1)] = "on"
    return found


def _bits_budget(raw) -> float:
    """A bits budget, from ``--bits-budget`` or ``// budget:``: a finite
    number of bits, at least 0.  NaN compares false against every
    capacity, so it would certify any policy."""
    try:
        bits = float(raw)
    except ValueError:
        bits = math.nan
    if not (math.isfinite(bits) and bits >= 0):
        shown = f"{raw:g}" if isinstance(raw, float) else raw
        raise DirectiveError(f"bits budget must be >= 0 and finite, "
                             f"got {shown}")
    return bits


def _level(name: str, lattice: Lattice) -> Label:
    """The level ``name`` of ``lattice``; one error form for every source."""
    if name not in lattice:
        raise DirectiveError(f"unknown security level {name!r}; lattice "
                             f"levels are {[l.name for l in lattice]}")
    return lattice[name]


def parse_gamma(spec: str) -> Dict[str, str]:
    """The one ``name=LEVEL,...`` parser (``--gamma``, ``// gamma:``):
    name -> level-name strings, checked later against the lattice."""
    levels: Dict[str, str] = {}
    for item in filter(None, (part.strip() for part in spec.split(","))):
        if "=" not in item:
            raise DirectiveError(f"entries look like name=LEVEL, got {item!r}")
        name, level = (s.strip() for s in item.split("=", 1))
        levels[name] = level
    return levels


@dataclass(frozen=True)
class ProgramConfig:
    """What a program is judged under (:func:`resolve_config`)."""

    gamma: SecurityEnvironment  # carries the lattice
    infer: bool
    require_cache_labels: bool
    adversary: Optional[Label]
    bits_budget: Optional[float]


def resolve_config(
    source: str, options: Optional[LintOptions] = None
) -> ProgramConfig:
    """A program's configuration: its directives, then the set
    ``options`` laid over them (``gamma`` one name at a time).  Raises
    :class:`DirectiveError` on a malformed directive or a level outside
    the resolved lattice."""
    options = options or LintOptions()
    directives = parse_directives(source)

    levels = options.levels
    if levels is None and "levels" in directives:
        levels = tuple(n.strip() for n in directives["levels"].split(","))
    try:
        lattice = chain(levels) if levels else DEFAULT_LATTICE
    except LatticeError as err:
        raise DirectiveError(f"levels directive: {err}") from None

    try:
        named = parse_gamma(directives.get("gamma", ""))
    except DirectiveError as err:
        raise DirectiveError(f"gamma directive: {err}") from None
    named.update(options.gamma)
    adversary = options.adversary or directives.get("adversary")

    bits_budget = options.bits_budget
    if bits_budget is None:
        bits_budget = directives.get("budget")
    if bits_budget is not None:
        bits_budget = _bits_budget(bits_budget)

    return ProgramConfig(
        gamma=SecurityEnvironment(lattice, {
            name: _level(level, lattice) for name, level in named.items()
        }),
        infer=(directives.get("infer", "on") != "off"
               if options.infer is None else options.infer),
        require_cache_labels=(options.require_cache_labels
                              or "require-cache-labels" in directives),
        adversary=_level(adversary, lattice) if adversary else None,
        bits_budget=bits_budget,
    )


_POSITION = re.compile(r"line (\d+)(?:, column (\d+))?")


def _syntax_diagnostic(err: Exception, path: str) -> Diagnostic:
    message = str(err)
    span = ast.SYNTHETIC_SPAN
    match = _POSITION.search(message)
    if match:
        line = int(match.group(1))
        column = int(match.group(2) or 1)
        span = ast.Span(line, column, line, column + 1)
    return Diagnostic(
        code="TL000",
        message=message,
        severity=Severity.ERROR,
        span=span,
        path=path,
        rule=RULES["TL000"].name,
    )


# -- the pipeline --------------------------------------------------------------


def analyze_source(
    source: str,
    path: str = "<stdin>",
    options: Optional[LintOptions] = None,
) -> LintResult:
    """Run the full multi-pass analysis over one program's source text."""
    options = options or LintOptions()
    config = resolve_config(source, options)
    try:
        program = parse(source, config.gamma.lattice)
    except (LexError, ParseError) as err:
        return LintResult(
            path=path, source=source,
            diagnostics=[_syntax_diagnostic(err, path)],
            lattice=config.gamma.lattice,
        )
    return _analyze(program, config, path=path, source=source,
                    options=options)


def analyze_program(
    program: ast.Command,
    gamma: SecurityEnvironment,
    options: Optional[LintOptions] = None,
    path: str = "<program>",
) -> LintResult:
    """Analyze an already-built (or already-parsed) AST."""
    options = options or LintOptions()
    config = ProgramConfig(
        gamma=gamma,
        infer=options.infer is not False,
        require_cache_labels=options.require_cache_labels,
        adversary=(gamma.lattice[options.adversary]
                   if options.adversary else None),
        bits_budget=options.bits_budget,
    )
    return _analyze(program, config, path=path, source="", options=options)


def _analyze(
    program: ast.Command,
    config: ProgramConfig,
    path: str,
    source: str,
    options: LintOptions,
) -> LintResult:
    gamma, lattice = config.gamma, config.gamma.lattice
    bits_budget = config.bits_budget
    tolerant = TolerantEnvironment(gamma)
    diagnostics = unbound_variable_diagnostics(program, gamma)

    if config.infer:
        infer_labels(program, tolerant)

    typing_diags, info = collect_typing_diagnostics(
        program, tolerant, require_cache_labels=config.require_cache_labels
    )
    diagnostics.extend(typing_diags)

    # The dataflow layer: CFG, constant-pruned reachability, and the
    # timing-dependence graph.  Everything downstream (TL017-TL020, the
    # reachable Theorem 2 bound, --explain paths) consumes these facts.
    cfg = build_cfg(program)
    constants = solve(cfg, ConstantPropagation())
    reachable = reachable_commands(cfg, constants)
    tdg = build_tdg(program, tolerant)

    # Static cost facts for the TL021-TL025 family: the exact `null`
    # contract keeps the lint comparisons deterministic; the set-straddle
    # check falls back to the paper machine's L1-data geometry because
    # the null model has no caches of its own.
    contract = contract_for("null")
    cost = compute_cost(program, contract=contract)
    geometry = contract.geometry()
    if geometry is None:
        geometry = CacheGeometry.of(contract.params.l1_data)

    # Capacity facts for the TL026-TL028 family, computed only when those
    # passes can actually emit (select/ignore pre-filtering): TL027/TL028
    # need the deterministic `null` census; TL026 compares every registry
    # model against the declared bits budget.
    def _wanted(code: str) -> bool:
        if options.select is not None and code not in options.select:
            return False
        return code not in options.ignore

    censuses: Optional[Dict[str, QuantifyReport]] = None
    if options.lints and (
            _wanted("TL027") or _wanted("TL028")
            or (bits_budget is not None and _wanted("TL026"))):
        from ..hardware.registry import REGISTRY

        models = (REGISTRY.names()
                  if bits_budget is not None and _wanted("TL026")
                  else ("null",))
        censuses = quantify_all(program, tolerant, models,
                                horizon=options.horizon)

    if options.lints:
        ctx = LintContext(
            program=program, gamma=tolerant, lattice=lattice, typing=info,
            cfg=cfg, constants=constants, reachable=reachable, tdg=tdg,
            cost=cost, geometry=geometry,
            quantify=censuses, bits_budget=bits_budget,
        )
        diagnostics.extend(run_lints(ctx))

    if options.explain:
        explainer = FlowExplainer(program, tolerant, tdg, cfg)
        attach_flows(diagnostics, explainer)

    if options.select is not None:
        diagnostics = [d for d in diagnostics if d.code in options.select]
    if options.ignore:
        diagnostics = [
            d for d in diagnostics if d.code not in options.ignore
        ]

    for diag in diagnostics:
        diag.path = path
    diagnostics.sort(key=Diagnostic.sort_key)

    audit = None
    if options.audit:
        audit = audit_leakage(
            program, lattice, info,
            adversary=config.adversary, horizon=options.horizon,
            reachable=reachable, cost=cost,
        )

    return LintResult(
        path=path, source=source, diagnostics=diagnostics,
        audit=audit, program=program, gamma=tolerant,
        lattice=lattice, typing=info, cfg=cfg, tdg=tdg, cost=cost,
        quantify=censuses, bits_budget=bits_budget,
        adversary=config.adversary,
    )
