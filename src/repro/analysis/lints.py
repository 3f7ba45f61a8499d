"""Timing-channel lints beyond the Fig. 4 type system (TL010-TL016).

These rules flag programs that *typecheck* but spend the Theorem 2 leakage
budget badly (redundant or useless mitigations, degenerate budgets), leak
through channels the paper calls out directly (secret-dependent sleeps,
secret-guarded loops), or contain dead weight (unused variables,
unreachable commands).  Each rule is a generator over a shared
:class:`LintContext`; registration happens in :data:`LINT_PASSES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..hardware.costmodel import CacheGeometry
from ..lang import ast
from ..lang.pretty import pretty, pretty_expr
from ..lattice import Lattice
from ..machine.layout import WORD_BYTES
from ..semantics.core import _apply as _apply_binop
from ..semantics.mitigation import make_scheme
from ..typesystem.environment import SecurityEnvironment
from ..typesystem.typing import TypingInfo
from .cfg import CFG
from .cost import CostReport
from .diagnostics import Diagnostic
from .flows import TimingDependenceGraph
from .quantify import QuantifyReport, deadline_span
from .rules import RULES


@dataclass
class LintContext:
    """Everything a lint pass may consult.

    The dataflow facts (``cfg``, ``constants``, ``reachable``, ``tdg``)
    are populated by the engine; the TL017-TL020 passes skip themselves
    when they are absent so the syntactic passes keep working standalone.
    """

    program: ast.Command
    gamma: SecurityEnvironment
    lattice: Lattice
    typing: TypingInfo
    #: Control-flow graph of the program (:mod:`repro.analysis.cfg`).
    cfg: Optional[CFG] = field(default=None)
    #: Constant-propagation :class:`~repro.analysis.dataflow.Solution`.
    constants: Optional[object] = field(default=None)
    #: node_ids reachable under constant-pruned control flow.
    reachable: Optional[FrozenSet[int]] = field(default=None)
    #: Timing-dependence graph (:mod:`repro.analysis.flows`).
    tdg: Optional[TimingDependenceGraph] = field(default=None)
    #: Static cost report (:mod:`repro.analysis.cost`), computed on the
    #: exact ``null`` contract so the TL021-TL024 comparisons are
    #: deterministic point facts rather than model-dependent envelopes.
    cost: Optional[CostReport] = field(default=None)
    #: L1-data geometry for the TL025 set-straddle check.
    geometry: Optional[CacheGeometry] = field(default=None)
    #: Timing-equivalence-class censuses keyed by hardware model
    #: (:mod:`repro.analysis.quantify`).  The engine always provides the
    #: ``null`` census when the TL027/TL028 passes are wanted, and every
    #: registry model when a ``// budget:`` directive asks for TL026.
    quantify: Optional[Dict[str, "QuantifyReport"]] = field(default=None)
    #: The ``// budget:`` directive's bits bound, when declared.
    bits_budget: Optional[float] = field(default=None)


def _diag(code: str, message: str, cmd: ast.LabeledCommand,
          fix: Optional[str] = None) -> Diagnostic:
    rule = RULES[code]
    return Diagnostic(
        code=code,
        message=message,
        severity=rule.severity,
        span=cmd.span,
        node_id=cmd.node_id,
        rule=rule.name,
        fix=fix,
    )


def const_value(expr: ast.Expr) -> Optional[int]:
    """Evaluate a constant expression under the language's own operator
    semantics (shared with the interpreter), or None if it reads memory."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.UnOp):
        v = const_value(expr.operand)
        if v is None:
            return None
        return -v if expr.op == "-" else int(v == 0)
    if isinstance(expr, ast.BinOp):
        left = const_value(expr.left)
        right = const_value(expr.right)
        if left is None or right is None:
            return None
        return _apply_binop(expr.op, left, right)
    return None


# -- TL010: secret-dependent sleep -------------------------------------------


def lint_secret_sleep(ctx: LintContext) -> Iterator[Diagnostic]:
    bottom = ctx.lattice.bottom
    for cmd in ctx.program.walk():
        if not isinstance(cmd, ast.Sleep):
            continue
        label = ctx.gamma.label_of_expr(cmd.duration)
        if label == bottom:
            continue
        fix = (
            f"mitigate(1, {label.name}) {{ {pretty(cmd)} }}"
        )
        yield _diag(
            "TL010",
            f"sleep duration {pretty_expr(cmd.duration)!r} is at {label}: "
            "the suspension time directly reveals it to a timing observer; "
            "mitigate the sleep or make the duration public",
            cmd,
            fix=fix,
        )


# -- TL011: degenerate mitigate budget ---------------------------------------


def lint_degenerate_budget(ctx: LintContext) -> Iterator[Diagnostic]:
    for cmd in ctx.program.walk():
        if not isinstance(cmd, ast.Mitigate):
            continue
        value = const_value(cmd.budget)
        if value is None or value > 0:
            continue
        fixed = ast.Mitigate(
            budget=ast.IntLit(1), level=cmd.level, body=cmd.body,
            mit_id=None if cmd.auto_id else cmd.mit_id,
            read_label=cmd.read_label, write_label=cmd.write_label,
        )
        yield _diag(
            "TL011",
            f"mitigate budget is constantly {value}: the initial "
            "prediction can never be met, so the first epoch is missed "
            "immediately and one doubling of the Miss counter is wasted",
            cmd,
            fix=pretty(fixed),
        )


# -- TL012: redundant nested mitigate ----------------------------------------


def lint_redundant_mitigate(ctx: LintContext) -> Iterator[Diagnostic]:
    def walk(cmd: ast.Command,
             enclosing: Tuple[ast.Mitigate, ...]) -> Iterator[Diagnostic]:
        if isinstance(cmd, ast.Mitigate):
            for outer in enclosing:
                if cmd.level.flows_to(outer.level):
                    yield _diag(
                        "TL012",
                        f"mitigate at level {cmd.level} is nested inside a "
                        f"mitigate at level {outer.level} that already "
                        "bounds it; the inner command only inflates the "
                        "Theorem 2 site count K (|L^|*log(K+1)*(1+log T)) "
                        "without tightening the bound",
                        cmd,
                    )
                    break
            enclosing = enclosing + (cmd,)
        for sub in cmd.subcommands():
            yield from walk(sub, enclosing)

    yield from walk(ctx.program, ())


# -- TL013: secret-guarded while loop ----------------------------------------


def lint_secret_guarded_loop(ctx: LintContext) -> Iterator[Diagnostic]:
    bottom = ctx.lattice.bottom
    for cmd in ctx.program.walk():
        if not isinstance(cmd, ast.While):
            continue
        label = ctx.gamma.label_of_expr(cmd.cond)
        if label == bottom:
            continue
        yield _diag(
            "TL013",
            f"while guard {pretty_expr(cmd.cond)!r} is at {label}: the "
            "iteration count -- and therefore the loop's timing variation "
            "-- is unbounded in the secret; any enclosing mitigate must "
            "absorb it with unbounded padding",
            cmd,
        )


# -- TL014: useless mitigate --------------------------------------------------


def lint_useless_mitigate(ctx: LintContext) -> Iterator[Diagnostic]:
    join = ctx.lattice.join
    for cmd in ctx.program.walk():
        if not isinstance(cmd, ast.Mitigate):
            continue
        body_end = ctx.typing.mitigate_body_end.get(cmd.mit_id)
        node_ctx = ctx.typing.node_contexts.get(cmd.node_id)
        if body_end is None or node_ctx is None or cmd.read_label is None:
            continue
        le = ctx.gamma.label_of_expr(cmd.budget)
        body_start = join(node_ctx.start, le, cmd.read_label)
        if body_end.flows_to(body_start):
            yield _diag(
                "TL014",
                f"mitigate body's timing end-label {body_end} already "
                f"flows to its start context {body_start}: the body adds "
                "no timing information above what the context knows, so "
                "the padding controls nothing (remove the mitigate, or "
                "move it around the actually timing-variable code)",
                cmd,
                fix=pretty(cmd.body),
            )


# -- TL015: unused variable ----------------------------------------------------


def lint_unused_variable(ctx: LintContext) -> Iterator[Diagnostic]:
    reads: set = set()
    writes: Dict[str, ast.LabeledCommand] = {}
    for cmd in ctx.program.walk():
        for expr in ast.step_exprs(cmd):
            reads |= expr.variables()
        if isinstance(cmd, ast.Assign):
            writes.setdefault(cmd.target, cmd)
        elif isinstance(cmd, ast.ArrayAssign):
            writes.setdefault(cmd.array, cmd)
    for name in sorted(set(writes) - reads):
        yield _diag(
            "TL015",
            f"variable {name!r} is assigned but never read (if it is an "
            "output observed outside the program, ignore this)",
            writes[name],
        )


# -- TL016: unreachable code ---------------------------------------------------


def _first_labeled(cmd: ast.Command) -> ast.LabeledCommand:
    for sub in cmd.walk():
        if isinstance(sub, ast.LabeledCommand):
            return sub
    raise TypeError("command tree with no labeled command")


def lint_unreachable(ctx: LintContext) -> Iterator[Diagnostic]:
    for cmd in ctx.program.walk():
        if isinstance(cmd, ast.If):
            value = const_value(cmd.cond)
            if value is None:
                continue
            dead = cmd.else_branch if value else cmd.then_branch
            which = "else" if value else "then"
            yield _diag(
                "TL016",
                f"if condition is constantly {value}; the {which} branch "
                "is unreachable",
                _first_labeled(dead),
            )
        elif isinstance(cmd, ast.While):
            value = const_value(cmd.cond)
            if value is None:
                continue
            if value == 0:
                yield _diag(
                    "TL016",
                    "while guard is constantly 0; the loop body is "
                    "unreachable",
                    _first_labeled(cmd.body),
                )
            else:
                yield _diag(
                    "TL016",
                    f"while guard is constantly {value}; the loop never "
                    "terminates and everything after it is unreachable",
                    cmd,
                )


# -- TL017: dead mitigate (dataflow-backed) ------------------------------------


def lint_dead_mitigate(ctx: LintContext) -> Iterator[Diagnostic]:
    if ctx.tdg is None or ctx.reachable is None:
        return
    for cmd in ctx.program.walk():
        if not isinstance(cmd, ast.Mitigate):
            continue
        if cmd.node_id not in ctx.reachable:
            continue  # TL020's territory
        body_varies = any(
            sub.node_id in ctx.reachable
            and ctx.tdg.contributes_timing(sub.node_id)
            for sub in cmd.body.walk()
            if isinstance(sub, ast.LabeledCommand)
        )
        if body_varies:
            continue
        yield _diag(
            "TL017",
            "no reachable command inside this mitigate has secret-"
            "dependent timing: the padding bounds nothing, but the site "
            "still counts toward the Theorem 2 site count K (remove it, "
            "or move it around the actually timing-variable code)",
            cmd,
            fix=pretty(cmd.body),
        )


# -- TL018: constant secret branch (dataflow-backed) ---------------------------


def lint_constant_secret_branch(ctx: LintContext) -> Iterator[Diagnostic]:
    if ctx.constants is None or ctx.reachable is None:
        return
    from .cfg import _guard_value

    bottom = ctx.lattice.bottom
    for cmd in ctx.program.walk():
        if not isinstance(cmd, (ast.If, ast.While)):
            continue
        if cmd.node_id not in ctx.reachable:
            continue
        label = ctx.gamma.label_of_expr(cmd.cond)
        if label == bottom:
            continue  # a public guard is TL016's (syntactic) territory
        if const_value(cmd.cond) is not None:
            continue  # syntactically constant: already TL016
        value = _guard_value(cmd, ctx.constants)
        if value is None:
            continue
        kind = "while guard" if isinstance(cmd, ast.While) else "if guard"
        yield _diag(
            "TL018",
            f"{kind} {pretty_expr(cmd.cond)!r} reads {label}-level data "
            f"but constant propagation proves it is always {value}: no "
            "information actually flows, yet the branch raises the pc and "
            "timing labels of everything under it",
            cmd,
        )


# -- TL019: shadowed mitigate (dataflow-backed) --------------------------------


def lint_shadowed_mitigate(ctx: LintContext) -> Iterator[Diagnostic]:
    def walk(cmd: ast.Command,
             enclosing: Tuple[ast.Mitigate, ...]) -> Iterator[Diagnostic]:
        if isinstance(cmd, ast.Mitigate):
            body_end = ctx.typing.mitigate_body_end.get(cmd.mit_id)
            for outer in enclosing:
                if cmd.level.flows_to(outer.level):
                    break  # TL012 already reports level-subsumed nesting
                if body_end is not None and body_end.flows_to(outer.level):
                    yield _diag(
                        "TL019",
                        f"mitigate declares level {cmd.level}, but its "
                        f"body's actual timing end-label {body_end} is "
                        f"already bounded by the enclosing mitigate at "
                        f"{outer.level}: the inner site is shadowed and "
                        "only inflates the Theorem 2 site count K "
                        "(tighten the declared level or drop the site)",
                        cmd,
                    )
                    break
            enclosing = enclosing + (cmd,)
        for sub in cmd.subcommands():
            yield from walk(sub, enclosing)

    yield from walk(ctx.program, ())


# -- TL020: unreachable mitigate (dataflow-backed) -----------------------------


def lint_unreachable_mitigate(ctx: LintContext) -> Iterator[Diagnostic]:
    if ctx.reachable is None:
        return
    for cmd in ctx.program.walk():
        if not isinstance(cmd, ast.Mitigate):
            continue
        if cmd.node_id in ctx.reachable:
            continue
        yield _diag(
            "TL020",
            "this mitigate site is unreachable (a provably-constant guard "
            "or a non-terminating loop cuts it off): it can never pad, "
            "but a syntactic Theorem 2 audit would still count it "
            "toward K",
            cmd,
        )


# -- TL021: unbalanced secret branch (cost-backed) -----------------------------


def lint_unbalanced_secret_branch(ctx: LintContext) -> Iterator[Diagnostic]:
    if ctx.cost is None:
        return
    bottom = ctx.lattice.bottom

    def walk(cmd: ast.Command, absorbing: Tuple) -> Iterator[Diagnostic]:
        if isinstance(cmd, ast.If):
            site = ctx.cost.branches.get(cmd.node_id)
            label = ctx.gamma.label_of_expr(cmd.cond)
            if (site is not None and label != bottom
                    and not any(label.flows_to(lv) for lv in absorbing)
                    and site.then_interval.disjoint_from(
                        site.else_interval)):
                delta = site.then_interval.gap(site.else_interval)
                yield _diag(
                    "TL021",
                    f"branch guard {pretty_expr(cmd.cond)!r} is at {label} "
                    f"and the arms' static cycle costs are disjoint (then "
                    f"{site.then_interval}, else {site.else_interval}, at "
                    f"least {delta} cycle{'s' if delta != 1 else ''} "
                    "apart): the arm taken is readable off the clock; "
                    "balance the arms or wrap the branch in a mitigate at "
                    "the guard's level",
                    cmd,
                )
        if isinstance(cmd, ast.Mitigate):
            absorbing = absorbing + (cmd.level,)
        for sub in cmd.subcommands():
            yield from walk(sub, absorbing)

    yield from walk(ctx.program, ())


# -- TL022/TL023: mitigate quantum vs. static body cost ------------------------


def _rebudgeted(cmd: ast.Mitigate, budget: int) -> ast.Mitigate:
    return ast.Mitigate(
        budget=ast.IntLit(budget), level=cmd.level, body=cmd.body,
        mit_id=None if cmd.auto_id else cmd.mit_id,
        read_label=cmd.read_label, write_label=cmd.write_label,
    )


def lint_mitigate_quantum_insufficient(
    ctx: LintContext,
) -> Iterator[Diagnostic]:
    if ctx.cost is None:
        return
    for cmd in ctx.program.walk():
        if not isinstance(cmd, ast.Mitigate):
            continue
        site = ctx.cost.mitigates.get(cmd.mit_id)
        if site is None or site.budget is None or site.budget <= 0:
            continue  # non-constant budgets; <= 0 is TL011's territory
        prediction = site.initial_prediction
        if site.interval.lo <= prediction:
            continue
        yield _diag(
            "TL022",
            f"mitigate body statically costs {site.interval} cycles but "
            f"the scheme's initial prediction is {prediction}: the first "
            "epoch always misses its deadline and doubles, spending one "
            "Miss transition of the Theorem 2 budget by construction "
            "(raise the budget to at least the body's lower bound "
            f"{site.interval.lo})",
            cmd,
            fix=pretty(_rebudgeted(cmd, site.interval.lo)),
        )


def lint_overprovisioned_mitigate(ctx: LintContext) -> Iterator[Diagnostic]:
    if ctx.cost is None:
        return
    for cmd in ctx.program.walk():
        if not isinstance(cmd, ast.Mitigate):
            continue
        site = ctx.cost.mitigates.get(cmd.mit_id)
        if site is None or site.budget is None or site.budget <= 0:
            continue
        hi = site.interval.hi
        if hi is None or hi <= 0:
            continue
        prediction = site.initial_prediction
        if prediction < 4 * hi:
            continue
        yield _diag(
            "TL023",
            f"mitigate budget {site.budget} is {prediction // hi}x the "
            f"body's static worst case {site.interval}: every epoch pads "
            f"to {prediction} cycles regardless of need, buying pure "
            "latency instead of fewer Miss transitions (a budget near "
            f"the upper bound {hi} gives the same Theorem 2 bound with "
            "far less padding)",
            cmd,
            fix=pretty(_rebudgeted(cmd, hi)),
        )


# -- TL024: unbounded loop cost under a secret context -------------------------


def lint_unbounded_secret_loop_cost(
    ctx: LintContext,
) -> Iterator[Diagnostic]:
    if ctx.cost is None:
        return
    bottom = ctx.lattice.bottom
    join = ctx.lattice.join

    def walk(cmd: ast.Command, pc) -> Iterator[Diagnostic]:
        if isinstance(cmd, ast.While):
            guard_label = ctx.gamma.label_of_expr(cmd.cond)
            loop = ctx.cost.loops.get(cmd.node_id)
            if (loop is not None and loop.widened
                    and pc != bottom and guard_label == bottom):
                yield _diag(
                    "TL024",
                    f"this loop's static cycle cost is {loop.interval} "
                    f"(no finite bound) and it runs under a {pc} control "
                    "context: whether the unbounded region executes at "
                    "all is secret, so the timing variation it induces "
                    "is unbounded in the secret (the guard itself is "
                    "public, so TL013 cannot see this)",
                    cmd,
                )
            yield from walk(cmd.body, join(pc, guard_label))
        elif isinstance(cmd, ast.If):
            inner = join(pc, ctx.gamma.label_of_expr(cmd.cond))
            yield from walk(cmd.then_branch, inner)
            yield from walk(cmd.else_branch, inner)
        else:
            for sub in cmd.subcommands():
                yield from walk(sub, pc)

    yield from walk(ctx.program, bottom)


# -- TL025: cost-divergent secret array access ---------------------------------


def _index_interval(expr: ast.Expr) -> Optional[Tuple[int, int]]:
    """Element-index bounds ``(lo, hi)``, or None when unbounded.

    Recognizes the masking idioms that bound an index without making it
    constant: ``e & mask`` and ``e % k``.
    """
    value = const_value(expr)
    if value is not None:
        return (value, value)
    if isinstance(expr, ast.BinOp) and expr.op == "&":
        mask = const_value(expr.right)
        if mask is None:
            mask = const_value(expr.left)
        if mask is not None and mask >= 0:
            return (0, mask)
    if isinstance(expr, ast.BinOp) and expr.op == "%":
        mod = const_value(expr.right)
        if mod:
            bound = abs(mod) - 1
            return (-bound, bound)
    return None


def _array_accesses(cmd: ast.LabeledCommand):
    """Yield ``(array, index_expr)`` for every data array access in one
    command, in evaluation order."""
    if isinstance(cmd, ast.ArrayAssign):
        yield (cmd.array, cmd.index)
    stack = list(ast.step_exprs(cmd))
    while stack:
        expr = stack.pop()
        if isinstance(expr, ast.ArrayRead):
            yield (expr.array, expr.index)
        stack.extend(expr.children())


def lint_cost_divergent_array_access(
    ctx: LintContext,
) -> Iterator[Diagnostic]:
    if ctx.geometry is None or ctx.geometry.sets <= 1:
        return
    bottom = ctx.lattice.bottom
    per_block = max(ctx.geometry.block_bytes // WORD_BYTES, 1)
    seen = set()
    for cmd in ctx.program.walk():
        if not isinstance(cmd, ast.LabeledCommand):
            continue
        for array, index in _array_accesses(cmd):
            label = ctx.gamma.label_of_expr(index)
            if label == bottom:
                continue
            bounds = _index_interval(index)
            if bounds is not None:
                width = bounds[1] - bounds[0] + 1
                if width <= per_block:
                    # May sit inside a single cache block: one set, one
                    # hit/miss cost, nothing for the clock to resolve.
                    continue
                blocks = -(-width // per_block)
                detail = (
                    f"its index range [{bounds[0]}, {bounds[1]}] spans up "
                    f"to {min(blocks, ctx.geometry.sets)} cache sets"
                )
            else:
                detail = (
                    "its index is statically unbounded, reaching "
                    "arbitrarily many cache sets"
                )
            key = (cmd.node_id, array)
            if key in seen:
                continue
            seen.add(key)
            yield _diag(
                "TL025",
                f"array {array!r} is indexed by {label}-level expression "
                f"{pretty_expr(index)!r} and {detail} "
                f"({ctx.geometry.sets} sets of {ctx.geometry.block_bytes}"
                "-byte blocks): which set the access touches, and so its "
                "hit/miss timing, is a function of the secret",
                cmd,
            )


# -- TL026-TL028: capacity-backed lints (quantitative census) ------------------


def _anchor_for(ctx: LintContext, node_id: int) -> ast.LabeledCommand:
    """The command carrying ``node_id``, or the program's first labeled
    command as a fallback anchor."""
    first = None
    for cmd in ctx.program.walk():
        if not isinstance(cmd, ast.LabeledCommand):
            continue
        if first is None:
            first = cmd
        if cmd.node_id == node_id:
            return cmd
    assert first is not None, "a parsed program has labeled commands"
    return first


def lint_leakage_exceeds_budget(ctx: LintContext) -> Iterator[Diagnostic]:
    if ctx.bits_budget is None or not ctx.quantify:
        return
    violating = {
        model: report
        for model, report in ctx.quantify.items()
        if report.exceeds(ctx.bits_budget)
    }
    if not violating:
        return
    worst_model = max(
        violating,
        key=lambda m: (violating[m].saturated, violating[m].capacity_bits),
    )
    worst = violating[worst_model]
    anchor_id = (
        max(worst.forks, key=lambda f: f.bits).node_id
        if worst.forks else -1
    )
    capacity = (
        f"saturated (> {worst.capacity_bits:.2f} bits)" if worst.saturated
        else f"{worst.capacity_bits:.2f} bits"
    )
    others = sorted(set(violating) - {worst_model})
    also = f" (also violated on: {', '.join(others)})" if others else ""
    yield _diag(
        "TL026",
        f"declared budget is {ctx.bits_budget:g} bits but the timing-"
        f"equivalence-class census on the {worst_model!r} model is "
        f"{capacity}{also}; run `repro tune --bits-budget "
        f"{ctx.bits_budget:g}` to synthesize a compliant mitigation "
        "placement",
        _anchor_for(ctx, anchor_id),
    )


def _deadline_profile(scheme, budget: int, body, horizon: int):
    """``(classes, worst_padded)`` the scheme emits for a body interval
    under one initial budget (Miss counter entering at zero)."""
    m_lo, m_hi = deadline_span(scheme, budget, 0, body, horizon)
    return m_hi - m_lo + 1, scheme.predict(budget, m_hi)


def _cost_flagged(ctx: LintContext, mit_id: str) -> bool:
    """Is the site already claimed by the cost family (TL022/TL023)?
    Those rules speak to the same budget knob; the capacity-backed pair
    defers to them so one site gets one story."""
    if ctx.cost is None:
        return False
    site = ctx.cost.mitigates.get(mit_id)
    if site is None or site.budget is None or site.budget <= 0:
        return False
    prediction = site.initial_prediction
    if site.interval.lo > prediction:
        return True  # TL022 territory
    hi = site.interval.hi
    return hi is not None and hi > 0 and prediction >= 4 * hi


def lint_quantum_dominates_leakage(
    ctx: LintContext,
) -> Iterator[Diagnostic]:
    if not ctx.quantify:
        return
    report = ctx.quantify.get("null")
    if report is None:
        return
    scheme = make_scheme(report.scheme)
    for cmd in ctx.program.walk():
        if not isinstance(cmd, ast.Mitigate):
            continue
        site = report.sites.get(cmd.mit_id)
        if (site is None or site.budget is None or site.budget <= 0
                or site.body.hi is None or site.deadline_classes <= 1):
            continue
        if _cost_flagged(ctx, cmd.mit_id):
            continue
        if site.deadline_bits < report.fork_bits:
            continue  # data-flow forks, not the quantum, drive capacity
        rebudget = site.body.hi + 1
        new_classes, new_padded = _deadline_profile(
            scheme, rebudget, site.body, report.horizon
        )
        if new_classes >= site.deadline_classes:
            continue
        yield _diag(
            "TL028",
            f"this mitigate's {report.scheme} deadline sequence quantizes "
            f"its body cost {site.body} into {site.deadline_classes} "
            f"observable padded durations ({site.deadline_bits:.2f} bits "
            "-- the dominant capacity contribution on the 'null' model); "
            f"an initial budget of {rebudget} covers the whole body in "
            f"{new_classes} deadline class"
            f"{'es' if new_classes != 1 else ''}, padding to {new_padded} "
            "cycles",
            cmd,
            fix=pretty(_rebudgeted(cmd, rebudget)),
        )


def lint_dominated_mitigate(ctx: LintContext) -> Iterator[Diagnostic]:
    if not ctx.quantify:
        return
    report = ctx.quantify.get("null")
    if report is None:
        return
    scheme = make_scheme(report.scheme)
    for cmd in ctx.program.walk():
        if not isinstance(cmd, ast.Mitigate):
            continue
        site = report.sites.get(cmd.mit_id)
        if (site is None or site.budget is None or site.budget <= 0
                or site.body.hi is None):
            continue
        if _cost_flagged(ctx, cmd.mit_id):
            continue
        cur_classes, cur_padded = _deadline_profile(
            scheme, site.budget, site.body, report.horizon
        )
        if cur_classes > 1:
            continue  # TL028's territory: the quantum creates classes
        rebudget = site.body.hi + 1
        new_classes, new_padded = _deadline_profile(
            scheme, rebudget, site.body, report.horizon
        )
        # "Dominated" means strictly cheaper at the *same* capacity, with
        # enough headroom (>2x padding) that the rewrite is worth taking;
        # TL023 separately owns the >=4x gross-overprovisioning band.
        if new_classes != cur_classes or cur_padded <= 2 * new_padded:
            continue
        yield _diag(
            "TL027",
            f"budget {site.budget} pads every epoch to {cur_padded} "
            f"cycles, but budget {rebudget} yields the exact same "
            f"deadline-class census ({new_classes} class"
            f"{'es' if new_classes != 1 else ''} on the 'null' model) "
            f"while padding only to {new_padded}: the written budget is "
            "dominated -- it buys latency, not capacity",
            cmd,
            fix=pretty(_rebudgeted(cmd, rebudget)),
        )


#: Every AST lint pass, in catalog order.
LINT_PASSES: Tuple[Callable[[LintContext], Iterator[Diagnostic]], ...] = (
    lint_secret_sleep,
    lint_degenerate_budget,
    lint_redundant_mitigate,
    lint_secret_guarded_loop,
    lint_useless_mitigate,
    lint_unused_variable,
    lint_unreachable,
    lint_dead_mitigate,
    lint_constant_secret_branch,
    lint_shadowed_mitigate,
    lint_unreachable_mitigate,
    lint_unbalanced_secret_branch,
    lint_mitigate_quantum_insufficient,
    lint_overprovisioned_mitigate,
    lint_unbounded_secret_loop_cost,
    lint_cost_divergent_array_access,
    lint_leakage_exceeds_budget,
    lint_quantum_dominates_leakage,
    lint_dominated_mitigate,
)


def run_lints(ctx: LintContext) -> List[Diagnostic]:
    """Run every registered lint pass over the program."""
    out: List[Diagnostic] = []
    for lint in LINT_PASSES:
        out.extend(lint(ctx))
    return out
