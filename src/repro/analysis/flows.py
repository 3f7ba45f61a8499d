"""The timing-dependence graph (TDG) and flow-path explanations.

The Fig. 4 type system *rejects* a leaky program; this module says *how*
it leaks.  :func:`build_tdg` runs a taint-style abstract interpretation
that mirrors the typing rules with variable sets in place of labels:

* **explicit flows** -- ``x := e`` makes ``x``'s value depend on every
  variable of ``e`` (a :class:`ValueEdge`);
* **implicit flows** -- an assignment under an ``if``/``while`` guard
  additionally depends on the guard's variables;
* **timing flows** -- per command, the set of variables whose *values*
  can influence that command's **start time**: ``sleep`` durations,
  branch/loop guards (T-IF/T-WHILE raise the timing label by the guard),
  array-index addresses (cache-visible), and ``mitigate`` budgets.
  ``mitigate`` *absorbs* its body's timing taint exactly as T-MTG does:
  the command's outgoing taint is only budget ⊔ incoming.

On top of the TDG, :class:`FlowExplainer` reconstructs step-by-step
source→sink paths for the flow diagnostics (TL001/TL002/TL003/TL006 and
the TL010/TL013 lints), walking *reaching definitions*
(:mod:`repro.analysis.dataflow`) backwards so every step cites a real
definition site.  ``repro lint --explain`` renders these as numbered
steps and as SARIF ``codeFlows``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..lang import ast
from ..lattice import Label, Lattice
from ..typesystem.environment import SecurityEnvironment
from .cfg import CFG
from .dataflow import ReachingDefinitions, Solution, solve
from .diagnostics import Diagnostic, FlowPath, FlowStep


@dataclass(frozen=True)
class TaintSource:
    """A variable (with its Gamma level) that can influence an observation."""

    name: str
    label: Label


@dataclass(frozen=True)
class ValueEdge:
    """``src``'s value flows into ``dst`` at the assignment ``node_id``."""

    src: str
    dst: str
    node_id: int
    kind: str  # "explicit" | "implicit"
    guard_node: Optional[int] = None


def _index_vars(expr: ast.Expr) -> FrozenSet[str]:
    """Variables appearing inside array subscripts of ``expr``: their values
    choose the address, which is visible in cache state."""
    out: Set[str] = set()
    for node in expr.walk():
        if isinstance(node, ast.ArrayRead):
            out |= node.index.variables()
    return frozenset(out)


def duration_vars(cmd: ast.LabeledCommand) -> FrozenSet[str]:
    """Variables whose *values* can influence this command's own duration
    (or, for guards, the duration of the region it controls)."""
    if isinstance(cmd, ast.Sleep):
        return cmd.duration.variables()
    if isinstance(cmd, (ast.If, ast.While)):
        return cmd.cond.variables() | _index_vars(cmd.cond)
    if isinstance(cmd, ast.Mitigate):
        return cmd.budget.variables()
    if isinstance(cmd, ast.Assign):
        return _index_vars(cmd.expr)
    if isinstance(cmd, ast.ArrayAssign):
        return cmd.index.variables() | _index_vars(cmd.expr)
    return frozenset()


@dataclass
class TimingDependenceGraph:
    """Per-command timing-taint facts plus the value-dependence edges."""

    gamma: SecurityEnvironment
    lattice: Lattice
    #: node_id -> {var: node_id of the command that injected it into timing}.
    start_taint: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: node_id -> value-closure of the command's own duration variables.
    contributed: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: var -> incoming value edges (explicit and implicit).
    value_deps: Dict[str, Tuple[ValueEdge, ...]] = field(default_factory=dict)
    #: node_id -> enclosing If/While guards, outermost first.
    guards_of: Dict[int, Tuple[ast.LabeledCommand, ...]] = (
        field(default_factory=dict))
    #: mit_id -> the body's final timing-taint variable set.
    mitigate_body_taint: Dict[str, FrozenSet[str]] = field(
        default_factory=dict)
    #: node_id -> the command itself.
    commands: Dict[int, ast.LabeledCommand] = field(default_factory=dict)

    # -- queries ---------------------------------------------------------------

    def start_sources(self, node_id: int) -> FrozenSet[TaintSource]:
        """The variables (with levels) that can influence when ``node_id``
        starts executing."""
        return frozenset(
            TaintSource(name, self.gamma[name])
            for name in self.start_taint.get(node_id, ())
        )

    def timing_tainted(
        self, node_id: int, observer: Optional[Label] = None
    ) -> bool:
        """Does anything not observable at ``observer`` (default: bottom)
        influence this command's start time?"""
        observer = observer if observer is not None else self.lattice.bottom
        return any(
            not source.label.flows_to(observer)
            for source in self.start_sources(node_id)
        )

    def contributes_timing(
        self, node_id: int, observer: Optional[Label] = None
    ) -> bool:
        """Does this command's *own* timing effect vary with anything not
        observable at ``observer``?  Covers value-borne variation (secret
        sleeps, guards, array indices) and label-borne variation: a read
        label above the observer (the machine environment it times
        against is confidential), or -- mirroring T-ASGN's end label
        Gamma(x) -- a write into a confidential variable, whose partition
        state the write's duration may depend on."""
        observer = observer if observer is not None else self.lattice.bottom
        for name in self.contributed.get(node_id, ()):
            if not self.gamma[name].flows_to(observer):
                return True
        cmd = self.commands.get(node_id)
        if cmd is None:
            return False
        if cmd.read_label is not None \
                and not cmd.read_label.flows_to(observer):
            return True
        target = None
        if isinstance(cmd, ast.Assign):
            target = cmd.target
        elif isinstance(cmd, ast.ArrayAssign):
            target = cmd.array
        if target is not None \
                and not self.gamma[target].flows_to(observer):
            return True
        return False

    def value_closure(self, names: FrozenSet[str]) -> FrozenSet[str]:
        """``names`` plus every variable whose value can transitively flow
        into one of them."""
        seen: Set[str] = set(names)
        work = list(names)
        while work:
            name = work.pop()
            for edge in self.value_deps.get(name, ()):
                if edge.src not in seen:
                    seen.add(edge.src)
                    work.append(edge.src)
        return frozenset(seen)


class _TDGBuilder:
    def __init__(self, gamma: SecurityEnvironment):
        self.tdg = TimingDependenceGraph(gamma=gamma, lattice=gamma.lattice)

    # -- pass 1: value-dependence edges ---------------------------------------

    def collect_value_edges(
        self, cmd: ast.Command, guards: Tuple[ast.LabeledCommand, ...]
    ) -> None:
        if isinstance(cmd, ast.Seq):
            self.collect_value_edges(cmd.first, guards)
            self.collect_value_edges(cmd.second, guards)
            return

        assert isinstance(cmd, ast.LabeledCommand)
        self.tdg.commands[cmd.node_id] = cmd
        self.tdg.guards_of[cmd.node_id] = guards

        def add(dst: str, srcs: FrozenSet[str]) -> None:
            edges = list(self.tdg.value_deps.get(dst, ()))
            for src in sorted(srcs):
                edges.append(ValueEdge(src, dst, cmd.node_id, "explicit"))
            for guard in guards:
                cond = (guard.cond.variables()
                        if isinstance(guard, (ast.If, ast.While))
                        else frozenset())
                for src in sorted(cond):
                    edges.append(ValueEdge(
                        src, dst, cmd.node_id, "implicit",
                        guard_node=guard.node_id,
                    ))
            self.tdg.value_deps[dst] = tuple(edges)

        if isinstance(cmd, ast.Assign):
            add(cmd.target, cmd.expr.variables())
        elif isinstance(cmd, ast.ArrayAssign):
            add(cmd.array, cmd.index.variables() | cmd.expr.variables())
        elif isinstance(cmd, (ast.If, ast.While)):
            inner = guards + (cmd,)
            for sub in cmd.subcommands():
                self.collect_value_edges(sub, inner)
        elif isinstance(cmd, ast.Mitigate):
            self.collect_value_edges(cmd.body, guards)

    # -- pass 2: timing taint (mirrors T-SKIP/T-ASGN/T-IF/T-WHILE/T-MTG) ------

    def _closure(self, names: FrozenSet[str]) -> FrozenSet[str]:
        return self.tdg.value_closure(names)

    def _inject(
        self, taint: Dict[str, int], names: FrozenSet[str], site: int
    ) -> Dict[str, int]:
        if not names:
            return taint
        out = dict(taint)
        for name in names:
            out.setdefault(name, site)
        return out

    def walk(self, cmd: ast.Command, taint: Dict[str, int]) -> Dict[str, int]:
        if isinstance(cmd, ast.Seq):
            taint = self.walk(cmd.first, taint)
            return self.walk(cmd.second, taint)

        assert isinstance(cmd, ast.LabeledCommand)
        self.tdg.start_taint[cmd.node_id] = dict(taint)
        contributed = self._closure(duration_vars(cmd))
        self.tdg.contributed[cmd.node_id] = contributed

        if isinstance(cmd, ast.If):
            inner = self._inject(taint, contributed, cmd.node_id)
            t1 = self.walk(cmd.then_branch, inner)
            t2 = self.walk(cmd.else_branch, inner)
            return {**t2, **t1}

        if isinstance(cmd, ast.While):
            # Least fixpoint, exactly like T-WHILE's iteration.
            t_prime = self._inject(taint, contributed, cmd.node_id)
            while True:
                body_end = self.walk(cmd.body, t_prime)
                widened = {**body_end, **t_prime}
                if set(widened) == set(t_prime):
                    return t_prime
                t_prime = widened

        if isinstance(cmd, ast.Mitigate):
            enter = self._inject(taint, contributed, cmd.node_id)
            body_end = self.walk(cmd.body, enter)
            self.tdg.mitigate_body_taint[cmd.mit_id] = frozenset(body_end)
            # T-MTG: the body's variation is absorbed; only the budget
            # (and the incoming taint) escapes.
            return enter

        # Atomic commands: their own duration feeds everything after them.
        return self._inject(taint, contributed, cmd.node_id)


def build_tdg(
    program: ast.Command, gamma: SecurityEnvironment
) -> TimingDependenceGraph:
    """Build the timing-dependence graph of a whole program."""
    builder = _TDGBuilder(gamma)
    builder.collect_value_edges(program, ())
    builder.walk(program, {})
    return builder.tdg


# -- flow-path explanations ----------------------------------------------------

#: Rules `repro lint --explain` can derive a source->sink path for.
EXPLAINABLE = ("TL001", "TL002", "TL003", "TL006", "TL010", "TL013",
               "TL021", "TL024", "TL026", "TL027", "TL028")

_MAX_CHAIN = 16


class FlowExplainer:
    """Reconstructs source→sink paths for flow diagnostics."""

    def __init__(
        self,
        program: ast.Command,
        gamma: SecurityEnvironment,
        tdg: TimingDependenceGraph,
        cfg: CFG,
        rdefs: Optional[Solution] = None,
    ):
        self.gamma = gamma
        self.lattice = gamma.lattice
        self.tdg = tdg
        self.cfg = cfg
        self.rdefs = rdefs if rdefs is not None else solve(
            cfg, ReachingDefinitions()
        )

    # -- helpers ---------------------------------------------------------------

    def _cmd(self, node_id: Optional[int]) -> Optional[ast.LabeledCommand]:
        if node_id is None:
            return None
        return self.tdg.commands.get(node_id)

    def _step(self, kind: str, message: str,
              node_id: Optional[int]) -> FlowStep:
        cmd = self._cmd(node_id)
        span = cmd.span if cmd is not None else ast.SYNTHETIC_SPAN
        return FlowStep(kind=kind, message=message, span=span,
                        node_id=node_id)

    def _source_step(self, name: str, at_node: int) -> FlowStep:
        label = self.gamma[name]
        return self._step(
            "source",
            f"secret source: {name!r} carries {label}-level data",
            at_node,
        )

    def _value_chain(
        self,
        name: str,
        at_node: int,
        sink_level: Label,
        visited: FrozenSet[Tuple[str, int]],
        depth: int = 0,
    ) -> Optional[List[FlowStep]]:
        """Steps deriving ``name``'s value (read at ``at_node``) from a
        variable whose level does not flow to ``sink_level``."""
        if (name, at_node) in visited or depth > _MAX_CHAIN:
            return None
        visited = visited | {(name, at_node)}
        rd: ReachingDefinitions = self.rdefs.problem  # type: ignore[assignment]
        defs = sorted(rd.of(self.rdefs.before(at_node), name))
        for def_node in defs:
            def_cmd = self._cmd(def_node)
            if def_cmd is None:
                continue
            if isinstance(def_cmd, ast.Assign):
                srcs = def_cmd.expr.variables()
            elif isinstance(def_cmd, ast.ArrayAssign):
                srcs = def_cmd.index.variables() | def_cmd.expr.variables()
            else:
                continue
            for src in sorted(srcs):
                sub = self._value_chain(
                    src, def_node, sink_level, visited, depth + 1
                )
                if sub is not None:
                    sub.append(self._step(
                        "flow",
                        f"{src!r} flows into {name!r} through this "
                        "assignment",
                        def_node,
                    ))
                    return sub
            # Implicit flow into the definition: the branch it sits under.
            for guard in self.tdg.guards_of.get(def_node, ()):
                guard_vars = guard.cond.variables() if isinstance(
                    guard, (ast.If, ast.While)) else frozenset()
                for src in sorted(guard_vars):
                    sub = self._value_chain(
                        src, guard.node_id, sink_level, visited, depth + 1
                    )
                    if sub is not None:
                        sub.append(self._step(
                            "branch",
                            f"branching on {src!r} decides whether "
                            f"{name!r} is written here",
                            def_node,
                        ))
                        return sub
        if not self.gamma[name].flows_to(sink_level):
            return [self._source_step(name, at_node)]
        return None

    def _sink_step(self, message: str, node_id: Optional[int]) -> FlowStep:
        return self._step("sink", message, node_id)

    # -- per-rule assembly -----------------------------------------------------

    def explain(self, diag: Diagnostic) -> Optional[FlowPath]:
        """A source→sink path for one diagnostic, or None when the rule is
        not flow-shaped or no witness chain exists."""
        if diag.code not in EXPLAINABLE or diag.node_id is None:
            return None
        cmd = self._cmd(diag.node_id)
        if cmd is None:
            return None
        builder = getattr(self, f"_explain_{diag.code.lower()}", None)
        if builder is None:
            return None
        steps = builder(cmd)
        return tuple(steps) if steps else None

    def _sink_level(self, cmd: ast.LabeledCommand) -> Label:
        if isinstance(cmd, ast.Assign):
            return self.gamma[cmd.target]
        if isinstance(cmd, ast.ArrayAssign):
            return self.gamma[cmd.array]
        return self.lattice.bottom

    def _explain_tl001(self, cmd) -> Optional[List[FlowStep]]:
        if not isinstance(cmd, (ast.Assign, ast.ArrayAssign)):
            return None
        target = cmd.target if isinstance(cmd, ast.Assign) else cmd.array
        sink_level = self._sink_level(cmd)
        reads = (cmd.expr.variables() if isinstance(cmd, ast.Assign)
                 else cmd.index.variables() | cmd.expr.variables())
        for name in sorted(reads):
            chain = self._value_chain(
                name, cmd.node_id, sink_level, frozenset()
            )
            if chain is not None:
                chain.append(self._sink_step(
                    f"the value is assigned to {target!r} at "
                    f"{sink_level} -- the flagged sink",
                    cmd.node_id,
                ))
                return chain
        return None

    def _explain_tl002(self, cmd) -> Optional[List[FlowStep]]:
        if not isinstance(cmd, (ast.Assign, ast.ArrayAssign)):
            return None
        target = cmd.target if isinstance(cmd, ast.Assign) else cmd.array
        sink_level = self._sink_level(cmd)
        for guard in self.tdg.guards_of.get(cmd.node_id, ()):
            cond_vars = guard.cond.variables() if isinstance(
                guard, (ast.If, ast.While)) else frozenset()
            for name in sorted(cond_vars):
                chain = self._value_chain(
                    name, guard.node_id, sink_level, frozenset()
                )
                if chain is not None:
                    kind = ("while" if isinstance(guard, ast.While)
                            else "if")
                    chain.append(self._step(
                        "branch",
                        f"the {kind} guard branches on {name!r}: whether "
                        "the code below runs depends on the secret",
                        guard.node_id,
                    ))
                    chain.append(self._sink_step(
                        f"this write to {target!r} happens only on one "
                        "side of the branch -- the flagged sink",
                        cmd.node_id,
                    ))
                    return chain
        return None

    def _explain_tl003(self, cmd) -> Optional[List[FlowStep]]:
        if not isinstance(cmd, (ast.Assign, ast.ArrayAssign)):
            return None
        target = cmd.target if isinstance(cmd, ast.Assign) else cmd.array
        sink_level = self._sink_level(cmd)
        taint = self.tdg.start_taint.get(cmd.node_id, {})
        for name in sorted(taint):
            if self.gamma[name].flows_to(sink_level):
                continue
            injector = taint[name]
            chain = self._value_chain(
                name, injector, sink_level, frozenset()
            )
            if chain is None:
                chain = [self._source_step(name, injector)]
            chain.append(self._step(
                "timing",
                f"the running time of this command depends on {name!r}",
                injector,
            ))
            chain.append(self._sink_step(
                f"by the time {target!r} is written here, the elapsed "
                "time already encodes the secret -- the flagged sink",
                cmd.node_id,
            ))
            return chain
        return None

    def _explain_tl006(self, cmd) -> Optional[List[FlowStep]]:
        lw = cmd.write_label if cmd.write_label is not None \
            else self.lattice.bottom
        index_names: Set[str] = set()
        for expr in ast.step_exprs(cmd):
            index_names |= _index_vars(expr)
            if isinstance(cmd, ast.ArrayAssign) and expr is cmd.index:
                index_names |= expr.variables()
        for name in sorted(index_names):
            chain = self._value_chain(name, cmd.node_id, lw, frozenset())
            if chain is not None:
                chain.append(self._sink_step(
                    f"{name!r} selects the array element's address here; "
                    f"the touched cache line is visible at {lw} -- the "
                    "flagged sink",
                    cmd.node_id,
                ))
                return chain
        return None

    def _explain_tl010(self, cmd) -> Optional[List[FlowStep]]:
        if not isinstance(cmd, ast.Sleep):
            return None
        for name in sorted(cmd.duration.variables()):
            chain = self._value_chain(
                name, cmd.node_id, self.lattice.bottom, frozenset()
            )
            if chain is not None:
                chain.append(self._sink_step(
                    f"the suspension lasts {name!r}-many cycles: the "
                    "duration is directly observable -- the flagged sink",
                    cmd.node_id,
                ))
                return chain
        return None

    def _explain_tl013(self, cmd) -> Optional[List[FlowStep]]:
        if not isinstance(cmd, ast.While):
            return None
        for name in sorted(cmd.cond.variables()):
            chain = self._value_chain(
                name, cmd.node_id, self.lattice.bottom, frozenset()
            )
            if chain is not None:
                chain.append(self._sink_step(
                    f"the loop iterates until {name!r} changes: iteration "
                    "count, and thus timing, is unbounded in the secret "
                    "-- the flagged sink",
                    cmd.node_id,
                ))
                return chain
        return None

    def _explain_tl021(self, cmd) -> Optional[List[FlowStep]]:
        if not isinstance(cmd, ast.If):
            return None
        for name in sorted(cmd.cond.variables()):
            chain = self._value_chain(
                name, cmd.node_id, self.lattice.bottom, frozenset()
            )
            if chain is not None:
                chain.append(self._sink_step(
                    f"the guard reads {name!r} and the arms' static cycle "
                    "costs are disjoint: the elapsed time announces which "
                    "arm ran -- the flagged sink",
                    cmd.node_id,
                ))
                return chain
        return None

    def _explain_tl024(self, cmd) -> Optional[List[FlowStep]]:
        if not isinstance(cmd, ast.While):
            return None
        # The secret sits in the *controlling* guards, not the (public)
        # loop guard: chase any secret variable that decides whether the
        # unbounded loop runs at all.
        for guard in self.tdg.guards_of.get(cmd.node_id, ()):
            if guard.node_id == cmd.node_id:
                continue
            guard_vars = guard.cond.variables() if isinstance(
                guard, (ast.If, ast.While)) else frozenset()
            for name in sorted(guard_vars):
                chain = self._value_chain(
                    name, guard.node_id, self.lattice.bottom, frozenset()
                )
                if chain is not None:
                    chain.append(self._step(
                        "branch",
                        f"branching on {name!r} decides whether this "
                        "unbounded (⊤-cost) loop executes",
                        guard.node_id,
                    ))
                    chain.append(self._sink_step(
                        "the loop's cycle cost has no finite static bound: "
                        "running it or not shifts the clock by an "
                        "unbounded amount -- the flagged sink",
                        cmd.node_id,
                    ))
                    return chain
        return None

    def _secret_branch_chain(
        self, root: ast.Command
    ) -> Optional[Tuple[List[FlowStep], ast.LabeledCommand]]:
        """A source chain into the first secret-guarded branch under
        ``root`` (the fork the capacity census counts)."""
        for sub in ast.labeled_commands(root):
            if not isinstance(sub, (ast.If, ast.While)):
                continue
            for name in sorted(sub.cond.variables()):
                chain = self._value_chain(
                    name, sub.node_id, self.lattice.bottom, frozenset()
                )
                if chain is not None:
                    chain.append(self._step(
                        "branch",
                        f"branching on {name!r} forks the execution into "
                        "timing-distinguishable classes",
                        sub.node_id,
                    ))
                    return chain, sub
        return None

    def _explain_tl026(self, cmd) -> Optional[List[FlowStep]]:
        # Anchored at the widest fork the census counted: an If guard, or
        # any labeled command when the fork was synthetic.
        found = self._secret_branch_chain(cmd)
        if found is None:
            return None
        chain, _branch = found
        chain.append(self._sink_step(
            "the timing-equivalence classes this fork creates push the "
            "channel capacity past the file's declared `// budget:` "
            "bits bound -- the flagged sink",
            cmd.node_id,
        ))
        return chain

    def _explain_tl027(self, cmd) -> Optional[List[FlowStep]]:
        if not isinstance(cmd, ast.Mitigate):
            return None
        found = self._secret_branch_chain(cmd.body)
        steps: List[FlowStep] = found[0] if found else []
        steps.append(self._step(
            "mitigate",
            "this mitigate absorbs the body's variation into a single "
            "deadline class -- capacity is already at its floor",
            cmd.node_id,
        ))
        steps.append(self._sink_step(
            "a smaller initial budget reaches the same single deadline "
            "class: the padding beyond it is pure latency, not "
            "mitigation -- the flagged sink",
            cmd.node_id,
        ))
        return steps

    def _explain_tl028(self, cmd) -> Optional[List[FlowStep]]:
        if not isinstance(cmd, ast.Mitigate):
            return None
        found = self._secret_branch_chain(cmd.body)
        steps: List[FlowStep] = found[0] if found else []
        steps.append(self._step(
            "mitigate",
            "the body's cycle spread straddles several deadlines of this "
            "mitigate's prediction sequence",
            cmd.node_id,
        ))
        steps.append(self._sink_step(
            "which deadline fires is decided by the secret, so the "
            "quantum itself -- not the body's data flow -- carries the "
            "capacity -- the flagged sink",
            cmd.node_id,
        ))
        return steps


def attach_flows(
    diagnostics: List[Diagnostic],
    explainer: FlowExplainer,
) -> None:
    """Attach a flow path to every explainable diagnostic (in place)."""
    for diag in diagnostics:
        if diag.flow is None:
            diag.flow = explainer.explain(diag)


# -- DOT export ----------------------------------------------------------------


def tdg_to_dot(tdg: TimingDependenceGraph, title: str = "tdg") -> str:
    """Render the timing-dependence graph in Graphviz DOT syntax: variable
    vertices, command vertices, and explicit/implicit/timing edges."""
    lines = [f"digraph {title} {{", "  rankdir=LR;",
             "  node [fontname=monospace];"]
    var_names = set(tdg.value_deps)
    for edges in tdg.value_deps.values():
        var_names.update(e.src for e in edges)
    for name in sorted(var_names):
        label = tdg.gamma[name]
        lines.append(
            f'  v_{name} [shape=ellipse, label="{name} : {label}"];'
        )
    used_cmds: Set[int] = set()
    for edges in tdg.value_deps.values():
        for edge in edges:
            used_cmds.add(edge.node_id)
    for node_id, taint in sorted(tdg.start_taint.items()):
        if taint:
            used_cmds.add(node_id)
    for node_id in sorted(used_cmds):
        cmd = tdg.commands.get(node_id)
        where = "" if cmd is None or cmd.span.is_synthetic \
            else f" @ {cmd.span}"
        kind = type(cmd).__name__ if cmd is not None else "?"
        lines.append(
            f'  c_{node_id} [shape=box, label="{kind}#{node_id}{where}"];'
        )
    for edges in tdg.value_deps.values():
        for edge in edges:
            style = "solid" if edge.kind == "explicit" else "dashed"
            lines.append(
                f"  v_{edge.src} -> v_{edge.dst} "
                f'[label="{edge.kind} #{edge.node_id}", style={style}];'
            )
    for node_id, taint in sorted(tdg.start_taint.items()):
        for name in sorted(taint):
            lines.append(
                f"  v_{name} -> c_{node_id} "
                '[label="timing", style=dotted, color=red];'
            )
    lines.append("}")
    return "\n".join(lines)
