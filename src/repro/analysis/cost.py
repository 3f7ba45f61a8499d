"""Static cycle-cost analysis: interval bounds per command, region, and
mitigate block, parameterized by hardware model.

The analyzer is an abstract interpreter over the program term (the same
structured control flow the CFG mirrors), with two abstract components:

* a flat constant environment (the :class:`ConstantPropagation` lattice's
  per-point facts, recomputed flow-sensitively along the interpretation)
  that resolves guards and loop bounds;
* the hardware contract's abstract state (bus queue occupancy, cumulative
  write counts) from :mod:`repro.hardware.costmodel`.

Loops whose guards stay constant are unrolled concretely (up to
:data:`MAX_UNROLL` iterations); anything else is *widened* to ⊤ -- the
loop's cost interval loses its finite upper bound and the report carries
a :class:`WideningNote` diagnostic.  Intervals measure **unpadded**
cycles: hardware-charged steps plus ``sleep``, excluding mitigation
padding (padding is what the predictor adds on top, so static bounds on
the unpadded body are exactly what quantum tuning needs).

Soundness is checked, not assumed: :func:`replay_program` re-executes a
program under the real interpreter with the PR 7 profiler and a region
recorder attached, and asserts every observed per-region cycle total
falls inside the static interval.  ``tests/test_cost.py`` runs that
harness over the whole lint corpus for every registry model, and a
Hypothesis property does the same for generated programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hardware.costmodel import (
    CostContract,
    Interval,
    ZERO,
    contract_for,
)
from ..hardware.interface import StepKind
from ..hardware.params import MachineParams
from ..lang import ast
from ..telemetry.recorder import TeeRecorder, TraceRecorder
from .dataflow import eval_const

#: Concrete-unroll budget per loop before widening to ⊤.
MAX_UNROLL = 4096


# ---------------------------------------------------------------------------
# Report model
# ---------------------------------------------------------------------------


@dataclass
class MitigateCost:
    """Static bounds for one mitigate block's *body* (unpadded cycles)."""

    mit_id: str
    node_id: int
    span: ast.Span
    level: str
    #: Constant-folded initial budget, when the analysis can prove one.
    budget: Optional[int]
    interval: Interval

    @property
    def initial_prediction(self) -> Optional[int]:
        """The doubling scheme's first-epoch prediction ``max(budget, 1)``."""
        return None if self.budget is None else max(self.budget, 1)


@dataclass
class BranchCost:
    """Per-arm bounds for one two-armed branch (guard step excluded)."""

    node_id: int
    span: ast.Span
    then_interval: Interval
    else_interval: Interval


@dataclass
class LoopCost:
    """Total bounds for one loop (all guard evaluations + iterations)."""

    node_id: int
    span: ast.Span
    interval: Interval
    widened: bool
    #: Concrete iteration count when the loop fully unrolled.
    unrolled: Optional[int] = None


@dataclass
class WideningNote:
    """Why a region lost its finite upper bound."""

    node_id: int
    span: ast.Span
    message: str


@dataclass
class CostReport:
    """Everything one (program, hardware model) cost analysis produced."""

    hardware: str
    program: Interval
    per_command: Dict[int, Interval] = field(default_factory=dict)
    mitigates: Dict[str, MitigateCost] = field(default_factory=dict)
    branches: Dict[int, BranchCost] = field(default_factory=dict)
    loops: Dict[int, LoopCost] = field(default_factory=dict)
    notes: List[WideningNote] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        def iv(interval: Interval) -> List[Optional[int]]:
            return [interval.lo, interval.hi]

        return {
            "hardware": self.hardware,
            "program": iv(self.program),
            "mitigates": [
                {
                    "mit_id": site.mit_id,
                    "line": site.span.line,
                    "column": site.span.column,
                    "level": site.level,
                    "budget": site.budget,
                    "interval": iv(site.interval),
                }
                for site in self.mitigates.values()
            ],
            "loops": [
                {
                    "line": loop.span.line,
                    "interval": iv(loop.interval),
                    "widened": loop.widened,
                    "unrolled": loop.unrolled,
                }
                for loop in self.loops.values()
            ],
            "widened": [
                {"line": note.span.line, "message": note.message}
                for note in self.notes
            ],
        }


# ---------------------------------------------------------------------------
# Access counting (mirrors eval_expr_traced: no short-circuit, one access
# per Var / ArrayRead occurrence, in evaluation order)
# ---------------------------------------------------------------------------


def expr_accesses(expr: ast.Expr) -> int:
    """How many data accesses evaluating ``expr`` performs."""
    if isinstance(expr, ast.IntLit):
        return 0
    if isinstance(expr, ast.Var):
        return 1
    if isinstance(expr, ast.ArrayRead):
        return expr_accesses(expr.index) + 1
    if isinstance(expr, ast.BinOp):
        return expr_accesses(expr.left) + expr_accesses(expr.right)
    if isinstance(expr, ast.UnOp):
        return expr_accesses(expr.operand)
    raise TypeError(f"not an expression: {expr!r}")


def _assigned_names(cmd: ast.Command) -> frozenset:
    """Scalar names any path through ``cmd`` may write."""
    names = set()
    for sub in cmd.walk():
        if isinstance(sub, ast.Assign):
            names.add(sub.target)
    return frozenset(names)


# ---------------------------------------------------------------------------
# The abstract interpreter
# ---------------------------------------------------------------------------

Env = Dict[str, int]


class _CostInterpreter:
    def __init__(self, contract: CostContract):
        self.contract = contract
        self.per_command: Dict[int, Interval] = {}
        self.mitigates: Dict[str, MitigateCost] = {}
        self.branches: Dict[int, BranchCost] = {}
        self.loops: Dict[int, LoopCost] = {}
        self.notes: List[WideningNote] = []

    # -- recording -----------------------------------------------------------

    def _record_step(self, cmd: ast.LabeledCommand, interval: Interval) -> None:
        seen = self.per_command.get(cmd.node_id)
        self.per_command[cmd.node_id] = (
            interval if seen is None else seen.join(interval)
        )

    def _note(self, cmd: ast.LabeledCommand, message: str) -> None:
        if any(n.node_id == cmd.node_id for n in self.notes):
            return
        self.notes.append(WideningNote(cmd.node_id, cmd.span, message))

    # -- one hardware step ----------------------------------------------------

    def _step(
        self,
        cmd: ast.LabeledCommand,
        kind: StepKind,
        reads: int,
        writes: int,
        hw,
        is_branch: bool = False,
    ):
        interval, hw = self.contract.step_cost(
            kind, reads, writes, is_branch,
            cmd.read_label, cmd.write_label, hw,
        )
        self._record_step(cmd, interval)
        return interval, hw

    # -- environment helpers ---------------------------------------------------

    @staticmethod
    def _join_env(a: Env, b: Env) -> Env:
        return {
            name: value for name, value in a.items()
            if b.get(name) == value
        }

    # -- commands --------------------------------------------------------------

    def run(self, cmd: ast.Command, env: Env, hw):
        """Abstractly execute ``cmd``; returns (interval, env', hw')."""
        if isinstance(cmd, ast.Seq):
            first, env, hw = self.run(cmd.first, env, hw)
            second, env, hw = self.run(cmd.second, env, hw)
            return first + second, env, hw

        if isinstance(cmd, ast.Skip):
            interval, hw = self._step(cmd, StepKind.SKIP, 0, 0, hw)
            return interval, env, hw

        if isinstance(cmd, ast.Assign):
            interval, hw = self._step(
                cmd, StepKind.ASSIGN, expr_accesses(cmd.expr), 1, hw
            )
            value = eval_const(cmd.expr, env)
            env = dict(env)
            if value is None:
                env.pop(cmd.target, None)
            else:
                env[cmd.target] = value
            return interval, env, hw

        if isinstance(cmd, ast.ArrayAssign):
            reads = expr_accesses(cmd.index) + expr_accesses(cmd.expr)
            interval, hw = self._step(cmd, StepKind.ASSIGN, reads, 1, hw)
            return interval, env, hw

        if isinstance(cmd, ast.Sleep):
            duration = eval_const(cmd.duration, env)
            if duration is None:
                interval = Interval.top()
                self._note(
                    cmd,
                    "sleep duration is not a compile-time constant; "
                    "its cycle cost is unbounded (⊤)",
                )
            else:
                interval = Interval.exact(max(duration, 0))
            # Property 4: sleep never touches the hardware.
            self._record_step(cmd, interval)
            return interval, env, hw

        if isinstance(cmd, ast.If):
            return self._branch(cmd, env, hw)

        if isinstance(cmd, ast.While):
            return self._loop(cmd, env, hw)

        if isinstance(cmd, ast.Mitigate):
            return self._mitigate(cmd, env, hw)

        raise TypeError(f"not a command: {cmd!r}")

    def _branch(self, cmd: ast.If, env: Env, hw):
        head, hw = self._step(
            cmd, StepKind.BRANCH, expr_accesses(cmd.cond), 0, hw,
            is_branch=True,
        )
        guard = eval_const(cmd.cond, env)
        if guard is not None:
            arm = cmd.then_branch if guard != 0 else cmd.else_branch
            body, env, hw = self.run(arm, env, hw)
            return head + body, env, hw

        then_iv, then_env, then_hw = self.run(cmd.then_branch, dict(env), hw)
        else_iv, else_env, else_hw = self.run(cmd.else_branch, dict(env), hw)
        seen = self.branches.get(cmd.node_id)
        if seen is None:
            self.branches[cmd.node_id] = BranchCost(
                cmd.node_id, cmd.span, then_iv, else_iv
            )
        else:
            seen.then_interval = seen.then_interval.join(then_iv)
            seen.else_interval = seen.else_interval.join(else_iv)
        return (
            head + then_iv.join(else_iv),
            self._join_env(then_env, else_env),
            self.contract.join_state(then_hw, else_hw),
        )

    def _loop(self, cmd: ast.While, env: Env, hw):
        total = ZERO
        iterations = 0
        widened = False
        guard_reads = expr_accesses(cmd.cond)
        while True:
            head, hw = self._step(
                cmd, StepKind.BRANCH, guard_reads, 0, hw, is_branch=True
            )
            total = total + head
            guard = eval_const(cmd.cond, env)
            if guard == 0:
                break
            if guard is None:
                self._note(
                    cmd,
                    "loop bound is not a compile-time constant; the loop's "
                    "cycle cost is unbounded (⊤)",
                )
                widened = True
                break
            if iterations >= MAX_UNROLL:
                self._note(
                    cmd,
                    f"loop exceeds the {MAX_UNROLL}-iteration unroll budget; "
                    "its cycle cost is widened to ⊤",
                )
                widened = True
                break
            body, env, hw = self.run(cmd.body, env, hw)
            total = total + body
            iterations += 1

        if widened:
            # Kill every name the body may write, widen the hardware state,
            # and abstractly execute the body once so inner commands (and
            # nested mitigate regions) still get their per-visit intervals.
            env = {
                name: value for name, value in env.items()
                if name not in _assigned_names(cmd.body)
            }
            hw = self.contract.widen_state(hw)
            _, _, body_hw = self.run(cmd.body, dict(env), hw)
            hw = self.contract.widen_state(
                self.contract.join_state(hw, body_hw)
            )
            total = Interval.top(total.lo)

        loop_iv = total
        seen = self.loops.get(cmd.node_id)
        if seen is None:
            self.loops[cmd.node_id] = LoopCost(
                cmd.node_id, cmd.span, loop_iv, widened,
                unrolled=None if widened else iterations,
            )
        else:
            seen.interval = seen.interval.join(loop_iv)
            seen.widened = seen.widened or widened
            if widened:
                seen.unrolled = None
        return total, env, hw

    def _mitigate(self, cmd: ast.Mitigate, env: Env, hw):
        budget = eval_const(cmd.budget, env)
        head, hw = self._step(
            cmd, StepKind.MITIGATE, expr_accesses(cmd.budget), 0, hw
        )
        body, env, hw = self.run(cmd.body, env, hw)
        region = body + self.contract.region_overhead(hw)
        seen = self.mitigates.get(cmd.mit_id)
        if seen is None:
            self.mitigates[cmd.mit_id] = MitigateCost(
                mit_id=cmd.mit_id,
                node_id=cmd.node_id,
                span=cmd.span,
                level=cmd.level.name if cmd.level is not None else "?",
                budget=budget,
                interval=region,
            )
        else:
            seen.interval = seen.interval.join(region)
            if seen.budget != budget:
                seen.budget = None
        return head + body, env, hw


def compute_cost(
    program: ast.Command,
    hardware: str = "null",
    params: Optional[MachineParams] = None,
    contract: Optional[CostContract] = None,
) -> CostReport:
    """Static interval cycle bounds for ``program`` on one hardware model."""
    contract = contract if contract is not None else contract_for(
        hardware, params
    )
    interp = _CostInterpreter(contract)
    total, _, hw = interp.run(program, {}, contract.initial_state())
    return CostReport(
        hardware=contract.name,
        program=total + contract.region_overhead(hw),
        per_command=interp.per_command,
        mitigates=interp.mitigates,
        branches=interp.branches,
        loops=interp.loops,
        notes=interp.notes,
    )


# ---------------------------------------------------------------------------
# The profiler-replay soundness harness
# ---------------------------------------------------------------------------


@dataclass
class RegionObservation:
    """One observed unpadded cycle total vs. its static interval."""

    region: str  # "<program>" or a mitigate id
    observed: int
    interval: Interval

    @property
    def ok(self) -> bool:
        return self.interval.contains(self.observed)


@dataclass
class SoundnessCheck:
    """The outcome of replaying one program on one hardware model."""

    path: str
    hardware: str
    status: str  # "checked" or "skipped"
    reason: str = ""
    observations: List[RegionObservation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(obs.ok for obs in self.observations)

    @property
    def violations(self) -> List[RegionObservation]:
        return [obs for obs in self.observations if not obs.ok]


class RegionRecorder(TraceRecorder):
    """Collects mitigation epochs; every other hook is the inherited no-op."""

    def __init__(self):
        #: ``(mit_id, elapsed, padded, end_time)`` per completed epoch.
        self.mitigations: List[Tuple[str, int, int, int]] = []

    def on_mitigation(self, mit_id, level, estimate, elapsed,
                      padded, misses, pc_label, end_time, wall_ns):
        self.mitigations.append((str(mit_id), elapsed, padded, end_time))


def unpadded_regions(
    mitigations: List[Tuple[str, int, int, int]], final_time: int
) -> Tuple[int, List[Tuple[str, int]]]:
    """Strip mitigation padding out of observed region totals.

    ``mitigations`` holds ``(mit_id, elapsed, padded, end_time)`` per
    completed epoch.  An epoch's body window is ``[start, start+elapsed)``
    with ``start = end_time - padded``; epochs nested inside it (by time
    containment) contribute their own padding, which must be subtracted to
    recover the hardware+sleep cycles the static interval bounds.
    """
    epochs = [
        {
            "mit_id": mit_id,
            "start": end_time - padded,
            "elapsed": elapsed,
            "padding": padded - elapsed,
            "end": end_time,
        }
        for mit_id, elapsed, padded, end_time in mitigations
    ]
    program = final_time - sum(e["padding"] for e in epochs)
    regions = []
    for outer in epochs:
        nested_padding = sum(
            inner["padding"]
            for inner in epochs
            if inner is not outer
            and inner["start"] >= outer["start"]
            and inner["end"] <= outer["start"] + outer["elapsed"]
        )
        regions.append((outer["mit_id"], outer["elapsed"] - nested_padding))
    return program, regions


def default_memory(program: ast.Command) -> Dict[str, object]:
    """A zero-filled memory covering every name the program mentions.

    Scalars start at 0; arrays get :data:`DEFAULT_ARRAY_LENGTH` zeroed
    elements (enough that constant indices in the corpus stay in bounds).
    """
    arrays = set()
    for cmd in program.walk():
        if isinstance(cmd, ast.ArrayAssign):
            arrays.add(cmd.array)
        for expr in _command_exprs(cmd):
            for node in _walk_expr(expr):
                if isinstance(node, ast.ArrayRead):
                    arrays.add(node.array)
    names = ast.program_variables(program)
    memory: Dict[str, object] = {}
    for name in names:
        memory[name] = (
            [0] * DEFAULT_ARRAY_LENGTH if name in arrays else 0
        )
    return memory


DEFAULT_ARRAY_LENGTH = 64


def _command_exprs(cmd: ast.Command):
    if isinstance(cmd, ast.Assign):
        return (cmd.expr,)
    if isinstance(cmd, ast.ArrayAssign):
        return (cmd.index, cmd.expr)
    if isinstance(cmd, (ast.If, ast.While)):
        return (cmd.cond,)
    if isinstance(cmd, ast.Sleep):
        return (cmd.duration,)
    if isinstance(cmd, ast.Mitigate):
        return (cmd.budget,)
    return ()


def _walk_expr(expr: ast.Expr):
    yield expr
    for child in expr.children():
        yield from _walk_expr(child)


def replay_program(
    source: str,
    path: str = "<string>",
    hardware: str = "null",
    params: Optional[MachineParams] = None,
    memory: Optional[Dict[str, object]] = None,
    max_steps: int = 200_000,
) -> SoundnessCheck:
    """Run one program concretely and compare observed cycles to the
    static intervals (the soundness cross-check).

    Files that cannot be parsed, labeled, or executed (the corpus contains
    deliberately broken fixtures) come back as ``status="skipped"`` with
    the reason; everything else is ``"checked"`` with one observation per
    mitigate epoch plus the whole-program total.
    """
    from .. import api
    from ..lang.lexer import LexError
    from ..lang.parser import parse, ParseError
    from ..lattice import chain
    from ..semantics.core import EvaluationError
    from ..semantics.full import SemanticsError
    from ..telemetry.profiling import Profiler
    from ..typesystem.errors import TypingError
    from .engine import DirectiveError, parse_directives, _parse_gamma_spec
    from ..lang.parser import DEFAULT_LATTICE

    def skip(reason: str) -> SoundnessCheck:
        return SoundnessCheck(
            path=path, hardware=hardware, status="skipped", reason=reason
        )

    directives = parse_directives(source)
    levels = directives.get("levels")
    lattice = (
        chain(tuple(n.strip() for n in levels.split(",")))
        if levels else DEFAULT_LATTICE
    )
    try:
        gamma = (
            _parse_gamma_spec(directives["gamma"], lattice)
            if "gamma" in directives else {}
        )
    except DirectiveError as err:
        return skip(f"bad gamma directive: {err}")

    try:
        compiled = api.compile_program(
            source, gamma=gamma, lattice=lattice, infer=True, check=False
        )
    except (LexError, ParseError, TypingError) as err:
        return skip(f"does not compile: {err}")

    report = compute_cost(compiled.program, hardware, params)
    recorder = RegionRecorder()
    profiler = Profiler()
    try:
        result = compiled.run(
            memory if memory is not None else default_memory(
                compiled.program
            ),
            hardware=hardware,
            params=params,
            recorder=TeeRecorder(recorder, profiler),
        )
    except (EvaluationError, SemanticsError, TimeoutError, KeyError) as err:
        return skip(f"does not run: {err}")

    program_observed, regions = unpadded_regions(
        recorder.mitigations, result.final_time()
    )
    # The profiler partitions the clock: hardware + sleep + padding equals
    # the final time, so the unpadded total must also equal the profiled
    # non-padding cycles.  Cross-check the two observations agree.
    profiled = profiler.total_cycles() - profiler.cycles.get(
        "mitigation.padding", 0
    )
    observations = [
        RegionObservation("<program>", program_observed, report.program)
    ]
    if profiled != program_observed:
        observations.append(
            RegionObservation("<profiler-partition>", profiled,
                              Interval.exact(program_observed))
        )
    for mit_id, observed in regions:
        site = report.mitigates.get(mit_id)
        if site is None:
            observations.append(
                RegionObservation(mit_id, observed, Interval(1, 0))
            )
        else:
            observations.append(
                RegionObservation(mit_id, observed, site.interval)
            )
    return SoundnessCheck(
        path=path, hardware=hardware, status="checked",
        observations=observations,
    )


def check_corpus(
    paths,
    hardware_names=None,
    params: Optional[MachineParams] = None,
) -> List[SoundnessCheck]:
    """Replay every program on every model; returns one check per pair."""
    from ..hardware.registry import REGISTRY

    if hardware_names is None:
        hardware_names = REGISTRY.names()
    checks = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        for name in hardware_names:
            checks.append(
                replay_program(
                    source, path=str(path), hardware=name, params=params
                )
            )
    return checks
