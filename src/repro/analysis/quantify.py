"""Quantitative leakage: timing-equivalence classes per hardware model.

The Theorem 2 audit (:mod:`repro.analysis.audit`) bounds leakage from the
*shape* of the program alone -- ``|L^| * log2(K+1) * (1 + log2 T)`` counts
mitigate sites, not what the clock can actually resolve.  This module
computes the complementary *capacity* measure in the style of Di Pierro et
al. (arXiv:0807.3879): a path-sensitive abstract interpreter walks the
program with one hardware model's :class:`~repro.hardware.costmodel.
CostContract` and enumerates the **timing-equivalence classes** an observer
of that model can separate.  Channel capacity is ``log2(#classes)`` --
attacker-distinguishable bits, usually far below the worst-case bound.

The walk (:class:`CensusWalker`) maintains a set of :class:`TimingClass`
states (accumulated padded and unpadded duration intervals, constant env,
abstract hardware state, per-level Miss counters).  Three constructs
change the class count:

* a branch on confidential data **forks** a class when the contract says
  the two arms' cost intervals are distinguishable
  (:meth:`CostContract.distinguishable`); indistinguishable arms merge;
* a ``mitigate`` block **collapses** its body's variation to the deadline
  sequence: the scheme's predictions quantize the body interval into a
  finite set of observable padded durations (S-UPDATE in Fig. 6), one
  class per reachable Miss count;
* a confidential loop whose bound is not a compile-time constant
  **widens**: outside any mitigate the iteration count is directly
  observable, contributing up to ``1 + log2(T)`` extra classes (a
  declared precision loss, recorded as a :class:`PrecisionNote`); inside
  a mitigate the deadline collapse absorbs it.

Class counts saturate at :data:`MAX_CLASSES`; a saturated report means
"at least this much" and budget checks treat it as exceeding any finite
budget.

The same walk is the static cost analysis.  Along the way the walker
tabulates unpadded intervals per command, branch, loop and mitigate site
(the tables of :class:`repro.analysis.cost.CostReport`).  For an observer
who sees everything nothing is secret, so no class ever forks and the
walk is path-insensitive; :func:`repro.analysis.cost.compute_cost` is that
walk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import (
    Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple,
)

from ..hardware.costmodel import (
    CostContract,
    Interval,
    ZERO,
    contract_for,
)
from ..hardware.interface import StepKind
from ..hardware.params import MachineParams
from ..lang import ast
from ..lattice import Label
from ..semantics.mitigation import PredictionScheme, make_scheme
from ..typesystem.environment import SecurityEnvironment
from .audit import DEFAULT_HORIZON
from .cost import BranchCost, LoopCost, WideningNote
from .dataflow import eval_const

#: Saturation cap on simultaneously-tracked timing classes per model.
MAX_CLASSES = 4096

#: Concrete-unroll budget per loop before widening to ⊤.
MAX_UNROLL = 4096

#: Cap on Miss-counter iterations when quantizing a body interval into
#: deadlines.  Polynomial schemes grow like ``(m+1)^q``, so settling a
#: budget-1 prediction against the default 2^20 horizon needs ~1024
#: misses; the cap is a backstop for pathological schemes only.
_MAX_MISSES = 4096


# ---------------------------------------------------------------------------
# Report model
# ---------------------------------------------------------------------------


@dataclass
class ForkNote:
    """One program point where the observer gains distinguishing power."""

    node_id: int
    span: ast.Span
    kind: str  # "branch" | "loop" | "sleep" | "deadline"
    bits: float
    message: str


@dataclass
class PrecisionNote:
    """A declared precision loss (widened loop, unknown budget)."""

    node_id: int
    span: ast.Span
    message: str


@dataclass
class SiteQuant:
    """Deadline-sequence facts for one mitigate site."""

    mit_id: str
    node_id: int
    span: ast.Span
    level: str
    budget: Optional[int]
    #: Body cost interval (with region overhead), joined over visits.
    body: Interval
    #: Distinct observable padded deadlines the scheme can emit here.
    deadline_classes: int
    #: Worst-case padded duration (None when unbounded misses saturate).
    padded_hi: Optional[int]
    #: Unpadded body cost interval (with region overhead), joined over
    #: visits: nested sites count their bodies, not their padding.
    unpadded: Interval

    @property
    def deadline_bits(self) -> float:
        return math.log2(self.deadline_classes) if (
            self.deadline_classes > 0) else 0.0


@dataclass
class QuantifyReport:
    """Timing-equivalence-class census for one (program, model) pair."""

    hardware: str
    scheme: str
    horizon: int
    #: Attacker-distinguishable class count (saturating).
    classes: int
    capacity_bits: float
    saturated: bool
    #: Worst-case *padded* program duration interval (objective input).
    padded: Interval
    sites: Dict[str, SiteQuant] = field(default_factory=dict)
    forks: List[ForkNote] = field(default_factory=list)
    notes: List[PrecisionNote] = field(default_factory=list)

    @property
    def fork_bits(self) -> float:
        """Capacity contributed by branch/loop forks (vs. deadlines)."""
        return sum(f.bits for f in self.forks if f.kind != "deadline")

    @property
    def deadline_fork_bits(self) -> float:
        return sum(f.bits for f in self.forks if f.kind == "deadline")

    def exceeds(self, budget_bits: float) -> bool:
        """Does the computed capacity violate a bits budget?  Saturated
        censuses exceed every finite budget."""
        return self.saturated or self.capacity_bits > budget_bits + 1e-9

    def as_dict(self) -> dict:
        return {
            "hardware": self.hardware,
            "scheme": self.scheme,
            "horizon": self.horizon,
            "classes": self.classes,
            "capacity_bits": round(self.capacity_bits, 4),
            "saturated": self.saturated,
            "padded": [self.padded.lo, self.padded.hi],
            "sites": [
                {
                    "mit_id": site.mit_id,
                    "line": site.span.line,
                    "level": site.level,
                    "budget": site.budget,
                    "body": [site.body.lo, site.body.hi],
                    "deadline_classes": site.deadline_classes,
                    "deadline_bits": round(site.deadline_bits, 4),
                    "padded_hi": site.padded_hi,
                }
                for site in self.sites.values()
            ],
            "forks": [
                {
                    "line": fork.span.line,
                    "kind": fork.kind,
                    "bits": round(fork.bits, 4),
                    "message": fork.message,
                }
                for fork in self.forks
            ],
            "notes": [
                {"line": note.span.line, "message": note.message}
                for note in self.notes
            ],
        }


# ---------------------------------------------------------------------------
# Deadline quantization (the static mirror of MitigationState.settle)
# ---------------------------------------------------------------------------


def settle_misses(
    scheme: PredictionScheme, budget: int, misses: int, elapsed: int
) -> int:
    """The Miss count after S-UPDATE: the least ``m >= misses`` whose
    prediction strictly exceeds ``elapsed``."""
    m = misses
    while (scheme.predict(budget, m) <= elapsed
           and m - misses < _MAX_MISSES):
        m += 1
    return m


def deadline_span(
    scheme: PredictionScheme,
    budget: int,
    misses: int,
    body: Interval,
    horizon: int,
) -> Tuple[int, int]:
    """The reachable Miss-count range ``(m_lo, m_hi)`` for a body whose
    unpadded duration lies in ``body``; an unbounded body is clipped to
    the analysis horizon."""
    m_lo = settle_misses(scheme, budget, misses, max(body.lo, 0))
    hi = body.hi if body.hi is not None else max(horizon, body.lo)
    m_hi = settle_misses(scheme, budget, misses, max(hi, 0))
    return m_lo, m_hi


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
# Timing classes
# ---------------------------------------------------------------------------


class TimingClass(NamedTuple):
    """One attacker-distinguishable equivalence class of executions
    (immutable: the walker builds each next class with the constructor)."""

    #: Accumulated (padded) duration interval along this class.
    interval: Interval
    #: Flat constant environment (immutable view; copied on write).
    env: Tuple[Tuple[str, int], ...]
    #: Contract abstract state (bus queue, cumulative writes, ...).
    hw: Hashable
    #: Per-mitigation-level Miss counter ranges ``(level, lo, hi)``
    #: (local penalty policy); an unlisted level is at ``(0, 0)``.
    misses: Tuple[Tuple[str, int, int], ...] = ()
    #: Extra distinguishable bits accrued from widened secret constructs
    #: not (yet) absorbed by a mitigate's deadline collapse.
    secret_bits: float = 0.0
    #: Accumulated *unpadded* duration: hardware-charged steps plus
    #: ``sleep``, no mitigation padding (the cost analysis's measure).
    unpadded: Interval = ZERO

    def env_dict(self) -> Dict[str, int]:
        return dict(self.env)

    def miss_range(self, level: str) -> Tuple[int, int]:
        for name, lo, hi in self.misses:
            if name == level:
                return lo, hi
        return 0, 0

    def after(self, step: Interval, hw: Hashable) -> "TimingClass":
        """This class after ``step`` more cycles, leaving state ``hw``."""
        return TimingClass(self.interval + step, self.env, hw, self.misses,
                           self.secret_bits, self.unpadded + step)

    def restarted(self) -> "TimingClass":
        """This class at the start of a region: both durations zero."""
        return TimingClass(ZERO, self.env, self.hw, self.misses,
                           self.secret_bits, ZERO)

    def following(self, head: "TimingClass") -> "TimingClass":
        """A region's class placed after ``head``, the class that
        entered the region: both durations continue from it."""
        return TimingClass(head.interval + self.interval, self.env,
                           self.hw, self.misses, self.secret_bits,
                           head.unpadded + self.unpadded)


def _with_miss(misses: Tuple[Tuple[str, int, int], ...], level: str,
               lo: int, hi: int) -> Tuple[Tuple[str, int, int], ...]:
    others = tuple(entry for entry in misses if entry[0] != level)
    return tuple(sorted(others + ((level, lo, hi),)))


def _join_misses(
    a: Tuple[Tuple[str, int, int], ...],
    b: Tuple[Tuple[str, int, int], ...],
) -> Tuple[Tuple[str, int, int], ...]:
    """Per level, the least lower end and the greatest upper end."""
    if a == b:
        return a
    left = {name: (lo, hi) for name, lo, hi in a}
    right = {name: (lo, hi) for name, lo, hi in b}
    joined = []
    for name in sorted(left.keys() | right.keys()):
        a_lo, a_hi = left.get(name, (0, 0))
        b_lo, b_hi = right.get(name, (0, 0))
        joined.append((name, min(a_lo, b_lo), max(a_hi, b_hi)))
    return tuple(joined)


def _merge_classes(
    classes: List[TimingClass], contract: CostContract
) -> TimingClass:
    """Join several classes into one (the precision-losing merge used when
    arms are indistinguishable or the census saturates)."""
    merged = classes[0]
    env = merged.env_dict()
    interval = merged.interval
    unpadded = merged.unpadded
    hw = merged.hw
    secret_bits = merged.secret_bits
    misses = merged.misses
    for cls in classes[1:]:
        other_env = cls.env_dict()
        env = {k: v for k, v in env.items() if other_env.get(k) == v}
        interval = interval.join(cls.interval)
        unpadded = unpadded.join(cls.unpadded)
        hw = contract.join_state(hw, cls.hw)
        secret_bits = max(secret_bits, cls.secret_bits)
        misses = _join_misses(misses, cls.misses)
    return TimingClass(
        interval=interval,
        env=tuple(sorted(env.items())),
        hw=hw,
        misses=misses,
        secret_bits=secret_bits,
        unpadded=unpadded,
    )


# ---------------------------------------------------------------------------
# The walker: census and cost analysis in one path-sensitive pass
# ---------------------------------------------------------------------------


class CensusWalker:
    """The abstract interpreter over the program term.

    It enumerates the timing classes ``observer`` can separate and, along
    the same walk, tabulates the unpadded cost facts of
    :class:`~repro.analysis.cost.CostReport` (per command, branch, loop
    and mitigate site, plus widening notes).  ``observer=None`` is the
    observer who sees everything: nothing is secret, so no class ever
    forks and the walk is the path-insensitive cost analysis (``gamma``
    is then never consulted).
    """

    def __init__(
        self,
        contract: CostContract,
        scheme: PredictionScheme,
        horizon: int,
        gamma: Optional[SecurityEnvironment] = None,
        observer: Optional[Label] = None,
    ):
        self.contract = contract
        self.scheme = scheme
        self.horizon = horizon
        self.gamma = gamma
        self.observer = observer
        self.sites: Dict[str, SiteQuant] = {}
        self.forks: List[ForkNote] = []
        self.notes: List[PrecisionNote] = []
        self.saturated = False
        #: Unpadded interval per command, joined over every visit.
        self.per_command: Dict[int, Interval] = {}
        self.branches: Dict[int, BranchCost] = {}
        self.loops: Dict[int, LoopCost] = {}
        #: Why a region lost its finite upper bound (cost's notes).
        self.widenings: List[WideningNote] = []
        #: Extra widening bits one widened secret loop may contribute.
        self.widen_bits = math.log2(
            1 + max(math.log2(max(horizon, 2)), 1)
        )

    def walk(self, program: ast.Command) -> List[TimingClass]:
        """Abstractly execute the whole program; its final classes, each
        charged the program's closing region overhead."""
        initial = TimingClass(
            interval=ZERO, env=(), hw=self.contract.initial_state()
        )
        return [
            cls.after(self.contract.region_overhead(cls.hw), cls.hw)
            for cls in self.run(program, [initial])
        ]

    # -- bookkeeping ----------------------------------------------------------

    def _fork(self, cmd: ast.LabeledCommand, kind: str, bits: float,
              message: str) -> None:
        if bits <= 0:
            return
        for note in self.forks:
            if note.node_id == cmd.node_id and note.kind == kind:
                note.bits = max(note.bits, bits)
                return
        self.forks.append(
            ForkNote(cmd.node_id, cmd.span, kind, bits, message)
        )

    def _note(self, cmd: ast.LabeledCommand, message: str) -> None:
        if any(n.node_id == cmd.node_id for n in self.notes):
            return
        self.notes.append(PrecisionNote(cmd.node_id, cmd.span, message))

    def _widened(self, cmd: ast.LabeledCommand, message: str) -> None:
        if any(n.node_id == cmd.node_id for n in self.widenings):
            return
        self.widenings.append(WideningNote(cmd.node_id, cmd.span, message))

    def _record_step(self, cmd: ast.LabeledCommand,
                     interval: Interval) -> None:
        seen = self.per_command.get(cmd.node_id)
        self.per_command[cmd.node_id] = (
            interval if seen is None else seen.join(interval)
        )

    def _record_branch(self, cmd: ast.If, then_iv: Interval,
                       else_iv: Interval) -> None:
        seen = self.branches.get(cmd.node_id)
        if seen is None:
            self.branches[cmd.node_id] = BranchCost(
                cmd.node_id, cmd.span, then_iv, else_iv
            )
        else:
            seen.then_interval = seen.then_interval.join(then_iv)
            seen.else_interval = seen.else_interval.join(else_iv)

    def _record_loop(self, cmd: ast.While, interval: Interval,
                     iterations: Optional[int]) -> None:
        """One exit from the loop; ``iterations`` is None when widened."""
        widened = iterations is None
        seen = self.loops.get(cmd.node_id)
        if seen is None:
            self.loops[cmd.node_id] = LoopCost(
                cmd.node_id, cmd.span, interval, widened,
                unrolled=iterations,
            )
        else:
            seen.interval = seen.interval.join(interval)
            seen.widened = seen.widened or widened
            if widened:
                seen.unrolled = None

    def _secret(self, expr: ast.Expr) -> bool:
        """Does the expression read data invisible to the observer?"""
        return self.observer is not None and not self.gamma.label_of_expr(
            expr).flows_to(self.observer)

    def _cap(self, classes: List[TimingClass]) -> List[TimingClass]:
        if len(classes) == 1:
            return classes
        classes = _dedupe(classes, self.contract)
        if len(classes) <= MAX_CLASSES:
            return classes
        self.saturated = True
        keep = classes[:MAX_CLASSES - 1]
        keep.append(_merge_classes(classes[MAX_CLASSES - 1:],
                                   self.contract))
        return keep

    # -- one hardware step ----------------------------------------------------

    def _step(
        self,
        cls: TimingClass,
        cmd: ast.LabeledCommand,
        kind: StepKind,
        reads: int,
        writes: int,
        is_branch: bool = False,
    ) -> TimingClass:
        interval, hw = self.contract.step_cost(
            kind, reads, writes, is_branch,
            cmd.read_label, cmd.write_label, cls.hw,
        )
        self._record_step(cmd, interval)
        return cls.after(interval, hw)

    # -- commands --------------------------------------------------------------

    def run(self, cmd: ast.Command,
            classes: List[TimingClass]) -> List[TimingClass]:
        """Abstractly execute ``cmd`` over every class."""
        if isinstance(cmd, ast.Seq):
            classes = self.run(cmd.first, classes)
            return self.run(cmd.second, classes)
        out: List[TimingClass] = []
        for cls in classes:
            out.extend(self._run_one(cmd, cls))
        return self._cap(out)

    def _run_one(self, cmd: ast.Command,
                 cls: TimingClass) -> List[TimingClass]:
        if isinstance(cmd, ast.Skip):
            return [self._step(cls, cmd, StepKind.SKIP, 0, 0)]

        if isinstance(cmd, ast.Assign):
            nxt = self._step(
                cls, cmd, StepKind.ASSIGN, expr_accesses(cmd.expr), 1
            )
            env = nxt.env_dict()
            value = eval_const(cmd.expr, env)
            if value is None:
                env.pop(cmd.target, None)
            else:
                env[cmd.target] = value
            return [TimingClass(nxt.interval, tuple(sorted(env.items())),
                                nxt.hw, nxt.misses, nxt.secret_bits,
                                nxt.unpadded)]

        if isinstance(cmd, ast.ArrayAssign):
            reads = expr_accesses(cmd.index) + expr_accesses(cmd.expr)
            return [self._step(cls, cmd, StepKind.ASSIGN, reads, 1)]

        if isinstance(cmd, ast.Sleep):
            return self._sleep(cmd, cls)

        if isinstance(cmd, ast.If):
            return self._branch(cmd, cls)

        if isinstance(cmd, ast.While):
            return self._loop(cmd, cls)

        if isinstance(cmd, ast.Mitigate):
            return self._mitigate(cmd, cls)

        raise TypeError(f"not a command: {cmd!r}")

    def _sleep(self, cmd: ast.Sleep,
               cls: TimingClass) -> List[TimingClass]:
        duration = eval_const(cmd.duration, cls.env_dict())
        if duration is not None:
            interval = Interval.exact(max(duration, 0))
        else:
            interval = Interval.top()
            self._widened(
                cmd,
                "sleep duration is not a compile-time constant; "
                "its cycle cost is unbounded (⊤)",
            )
        # Property 4: sleep never touches the hardware.
        self._record_step(cmd, interval)
        nxt = cls.after(interval, cls.hw)
        if duration is None and self._secret(cmd.duration):
            # Every distinct duration is its own observation; the horizon
            # bounds how many the clock can tell apart.
            nxt = TimingClass(nxt.interval, nxt.env, nxt.hw, nxt.misses,
                              nxt.secret_bits + self.widen_bits,
                              nxt.unpadded)
            self._fork(
                cmd, "sleep", self.widen_bits,
                "a confidential, non-constant sleep exposes its duration "
                "directly (bounded only by the horizon)",
            )
            self._note(
                cmd,
                "sleep duration is confidential and not a compile-time "
                f"constant; counted as {self.widen_bits:.2f} bits of "
                "precision loss",
            )
        return [nxt]

    def _branch(self, cmd: ast.If,
                cls: TimingClass) -> List[TimingClass]:
        head = self._step(
            cls, cmd, StepKind.BRANCH, expr_accesses(cmd.cond), 0,
            is_branch=True,
        )
        guard = eval_const(cmd.cond, head.env_dict())
        if guard is not None:
            arm = cmd.then_branch if guard != 0 else cmd.else_branch
            return self.run(arm, [head])

        base = head.restarted()
        then_out = self.run(cmd.then_branch, [base])
        else_out = self.run(cmd.else_branch, [base])
        self._record_branch(cmd, _join(c.unpadded for c in then_out),
                            _join(c.unpadded for c in else_out))
        then_iv = _join(c.interval for c in then_out)
        else_iv = _join(c.interval for c in else_out)

        if self._secret(cmd.cond) and self.contract.distinguishable(
                then_iv, else_iv):
            self._fork(
                cmd, "branch", 1.0,
                f"confidential guard with distinguishable arms (then "
                f"{then_iv}, else {else_iv}): the clock reads the arm "
                "taken",
            )
        elif len(then_out) == 1 and len(else_out) == 1:
            # Public guard, or arms the observer cannot separate: one
            # class per arm-internal fork survives only if the arms
            # forked internally (conservative for public guards);
            # otherwise merge.
            merged = _merge_classes([then_out[0], else_out[0]],
                                    self.contract)
            return [merged.following(head)]
        return [sub.following(head) for sub in then_out + else_out]

    def _loop(self, cmd: ast.While,
              cls: TimingClass) -> List[TimingClass]:
        guard_reads = expr_accesses(cmd.cond)
        # The unpadded duration restarts so each exit reads the loop's
        # own total (the padded one stays cumulative: classes merge on it).
        current = [TimingClass(cls.interval, cls.env, cls.hw, cls.misses,
                               cls.secret_bits, ZERO)]
        done: List[TimingClass] = []
        iterations = 0
        while current:
            stepped = [
                self._step(c, cmd, StepKind.BRANCH, guard_reads, 0,
                           is_branch=True)
                for c in current
            ]
            nxt: List[TimingClass] = []
            widen: List[TimingClass] = []
            for c in stepped:
                guard = eval_const(cmd.cond, c.env_dict())
                if guard == 0:
                    self._record_loop(cmd, c.unpadded, iterations)
                    done.append(c)
                elif guard is None:
                    self._widened(
                        cmd,
                        "loop bound is not a compile-time constant; the "
                        "loop's cycle cost is unbounded (⊤)",
                    )
                    widen.append(c)
                elif iterations >= MAX_UNROLL:
                    self._widened(
                        cmd,
                        f"loop exceeds the {MAX_UNROLL}-iteration unroll "
                        "budget; its cycle cost is widened to ⊤",
                    )
                    widen.append(c)
                else:
                    nxt.append(c)
            if widen:
                done.extend(self._widen_loop(cmd, widen))
            if not nxt:
                break
            current = self._cap(self.run(cmd.body, nxt))
            iterations += 1
        return [
            TimingClass(c.interval, c.env, c.hw, c.misses, c.secret_bits,
                        cls.unpadded + c.unpadded)
            for c in done
        ]

    def _widen_loop(self, cmd: ast.While,
                    classes: List[TimingClass]) -> List[TimingClass]:
        """A loop whose guard is not a compile-time constant: cost widens
        to ⊤; a confidential guard also widens the class census."""
        secret = self._secret(cmd.cond)
        extra_bits = self.widen_bits if secret else 0.0
        killed = _assigned_names(cmd.body)
        out: List[TimingClass] = []
        for c in classes:
            # Kill every name the body may write (the loop may also run
            # zero times) and widen the hardware state.
            env = tuple(
                (name, value) for name, value in c.env
                if name not in killed
            )
            hw = self.contract.widen_state(c.hw)
            seeded = TimingClass(ZERO, env, hw, c.misses, c.secret_bits)
            # One abstract body pass so nested sites still get facts.
            landed = _merge_classes(self.run(cmd.body, [seeded]),
                                    self.contract)
            unpadded = Interval.top(c.unpadded.lo)
            self._record_loop(cmd, unpadded, None)
            out.append(TimingClass(
                interval=Interval.top(c.interval.lo),
                env=env,
                hw=self.contract.widen_state(
                    self.contract.join_state(hw, landed.hw)
                ),
                # The loop may also run zero times.
                misses=_join_misses(c.misses, landed.misses),
                secret_bits=landed.secret_bits + extra_bits,
                unpadded=unpadded,
            ))
        if secret:
            self._fork(
                cmd, "loop", self.widen_bits,
                "confidential loop bound is not a compile-time constant: "
                "the iteration count is directly observable (precision "
                f"loss declared as {self.widen_bits:.2f} bits, horizon-"
                "bounded)",
            )
            self._note(
                cmd,
                "confidential loop widened: iteration count unbounded; "
                f"declared precision loss {self.widen_bits:.2f} bits",
            )
        else:
            self._note(
                cmd,
                "loop bound is not a compile-time constant; duration "
                "widened to ⊤ (public guard: no class fork)",
            )
        return out

    def _mitigate(self, cmd: ast.Mitigate,
                  cls: TimingClass) -> List[TimingClass]:
        head = self._step(
            cls, cmd, StepKind.MITIGATE, expr_accesses(cmd.budget), 0
        )
        budget = eval_const(cmd.budget, head.env_dict())
        level_name = cmd.level.name if cmd.level is not None else "?"
        entry_bits = head.secret_bits

        # Each body class closes with the region overhead; the running
        # unpadded total does not carry it (the site's interval does).
        overhead: List[TimingClass] = []
        body_unpadded: List[Interval] = []
        for sub in self.run(cmd.body, [head.restarted()]):
            region = self.contract.region_overhead(sub.hw)
            overhead.append(TimingClass(
                sub.interval + region, sub.env, sub.hw, sub.misses,
                sub.secret_bits, sub.unpadded,
            ))
            body_unpadded.append(sub.unpadded + region)
        body_iv = _join(c.interval for c in overhead)
        body_cost = _join(body_unpadded)

        if budget is None:
            self._note(
                cmd,
                "mitigate budget is not a compile-time constant; the "
                "deadline sequence cannot be quantized statically",
            )
            self._record_site(cmd, level_name, None, body_iv, body_cost,
                              1, None)
            merged = _merge_classes(overhead, self.contract)
            return [TimingClass(
                head.interval + merged.interval, merged.env, merged.hw,
                merged.misses, max(entry_bits, merged.secret_bits),
                head.unpadded + merged.unpadded,
            )]

        # Was any of the body's variation confidential?  Declared-secret
        # levels (above the observer) always count; purely public
        # variation under an observable level pads to a public deadline.
        body_secret = (
            (self.observer is not None
             and not cmd.level.flows_to(self.observer))
            or len(overhead) > 1
            or any(sub.secret_bits > entry_bits for sub in overhead)
        )

        out: List[TimingClass] = []
        deadlines: set = set()
        worst_deadline = 0
        unbounded = False
        for sub in overhead:
            # Settle each end of the entry Miss range on its own: the
            # earliest deadline from the lowest count, the latest from
            # the highest.
            miss_lo, miss_hi = sub.miss_range(level_name)
            m_lo, m_hi = deadline_span(
                self.scheme, budget, miss_lo, sub.interval, self.horizon
            )
            if miss_hi != miss_lo:
                m_hi = deadline_span(
                    self.scheme, budget, miss_hi, sub.interval,
                    self.horizon,
                )[1]
            if sub.interval.hi is None:
                unbounded = True
            unpadded = head.unpadded + sub.unpadded
            if not body_secret:
                # Public variation: every deadline is a public function
                # of public data -- one class, padded somewhere in the
                # deadline window.
                lo_pad = self.scheme.predict(budget, m_lo)
                hi_pad = self.scheme.predict(budget, m_hi)
                worst_deadline = max(worst_deadline, hi_pad)
                out.append(TimingClass(
                    head.interval + Interval(lo_pad, hi_pad), sub.env,
                    sub.hw, _with_miss(sub.misses, level_name, m_lo, m_hi),
                    entry_bits, unpadded,
                ))
                continue
            for m in range(m_lo, m_hi + 1):
                deadline = self.scheme.predict(budget, m)
                deadlines.add(deadline)
                worst_deadline = max(worst_deadline, deadline)
                out.append(TimingClass(
                    head.interval + Interval.exact(deadline), sub.env,
                    sub.hw, _with_miss(sub.misses, level_name, m, m),
                    # The deadline collapse absorbs body-internal
                    # widening: the padded duration is all that leaks.
                    entry_bits, unpadded,
                ))
        site_classes = max(len(deadlines), 1) if body_secret else 1
        self._record_site(
            cmd, level_name, budget, body_iv, body_cost, site_classes,
            None if unbounded and site_classes >= _MAX_MISSES
            else worst_deadline,
        )
        if body_secret and site_classes > 1:
            self._fork(
                cmd, "deadline", math.log2(site_classes),
                f"the scheme's deadline sequence quantizes the body cost "
                f"{body_iv} into {site_classes} observable padded "
                "durations",
            )
        return out

    def _record_site(
        self,
        cmd: ast.Mitigate,
        level: str,
        budget: Optional[int],
        body: Interval,
        unpadded: Interval,
        classes: int,
        padded_hi: Optional[int],
    ) -> None:
        seen = self.sites.get(cmd.mit_id)
        if seen is None:
            self.sites[cmd.mit_id] = SiteQuant(
                mit_id=cmd.mit_id,
                node_id=cmd.node_id,
                span=cmd.span,
                level=level,
                budget=budget,
                body=body,
                deadline_classes=classes,
                padded_hi=padded_hi,
                unpadded=unpadded,
            )
            return
        seen.body = seen.body.join(body)
        seen.unpadded = seen.unpadded.join(unpadded)
        seen.deadline_classes = max(seen.deadline_classes, classes)
        if seen.budget != budget:
            seen.budget = None
        if padded_hi is None:
            seen.padded_hi = None
        elif seen.padded_hi is not None:
            seen.padded_hi = max(seen.padded_hi, padded_hi)


def _dedupe(
    classes: List[TimingClass], contract: CostContract
) -> List[TimingClass]:
    """Merge classes the observer cannot tell apart: identical duration
    interval and Miss state (env differences are invisible; merging keeps
    only the agreeing constants, a sound overapproximation).  This is what
    makes a mitigate's deadline collapse actually shrink the census."""
    groups: Dict[Tuple, List[TimingClass]] = {}
    for cls in classes:
        key = (
            cls.interval.lo, cls.interval.hi, cls.misses,
            round(cls.secret_bits, 9),
        )
        groups.setdefault(key, []).append(cls)
    return [
        members[0] if len(members) == 1
        else _merge_classes(members, contract)
        for members in groups.values()
    ]


def _join(intervals: Iterable[Interval]) -> Interval:
    """The join of a non-empty run of intervals."""
    return functools.reduce(Interval.join, intervals)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def quantify(
    program: ast.Command,
    gamma: SecurityEnvironment,
    hardware: str = "null",
    observer: Optional[Label] = None,
    scheme: str = "doubling",
    horizon: int = DEFAULT_HORIZON,
    params: Optional[MachineParams] = None,
    contract: Optional[CostContract] = None,
) -> QuantifyReport:
    """Enumerate the timing-equivalence classes of ``program`` on one
    hardware model and report the channel capacity ``log2(#classes)``.

    ``observer`` defaults to the lattice bottom (the paper's low
    adversary); data whose label flows to the observer is public for the
    census.  ``scheme`` names the prediction scheme quantizing mitigate
    deadlines (``doubling`` or ``polynomial``).
    """
    contract = contract if contract is not None else contract_for(
        hardware, params
    )
    observer = observer if observer is not None else gamma.lattice.bottom
    walker = CensusWalker(
        contract, make_scheme(scheme), horizon, gamma, observer
    )
    final = walker.walk(program)
    # Each class stands for 2^secret_bits indistinguishable-by-structure
    # but duration-separable observations.
    weight = sum(2.0 ** cls.secret_bits for cls in final)
    weight = max(weight, 1.0)
    capacity = math.log2(weight)
    if walker.saturated:
        capacity = max(capacity, math.log2(MAX_CLASSES))
    return QuantifyReport(
        hardware=contract.name,
        scheme=scheme,
        horizon=horizon,
        classes=max(int(round(weight)), len(final)),
        capacity_bits=capacity,
        saturated=walker.saturated,
        padded=_join(c.interval for c in final),
        sites=walker.sites,
        forks=walker.forks,
        notes=walker.notes,
    )


def quantify_all(
    program: ast.Command,
    gamma: SecurityEnvironment,
    models: Optional[List[str]] = None,
    observer: Optional[Label] = None,
    scheme: str = "doubling",
    horizon: int = DEFAULT_HORIZON,
    params: Optional[MachineParams] = None,
) -> Dict[str, QuantifyReport]:
    """The census on every requested registry model (default: all)."""
    from ..hardware.registry import REGISTRY

    names = models if models is not None else list(REGISTRY.names())
    return {
        name: quantify(
            program, gamma, hardware=name, observer=observer,
            scheme=scheme, horizon=horizon, params=params,
        )
        for name in names
    }
