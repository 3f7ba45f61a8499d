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

A mitigate's fan-out yields one :class:`TimingClass` per body state: a
*bundle* that carries every (padded duration, Miss count) pair the state
can end at.  Later commands handle a bundle once, and results keep the
order of the *per-class walk*, one class per pair.  Classes that reach a
mitigate-free command in the same *state* (env, hardware state, secret
bits) share one walk from a zero-duration origin, placed after each
class's own durations, and a mitigate-free ``mitigate`` body is walked
once per entry state for the life of a :class:`WalkMemo` (one walk, or
every walk of one ``repro tune`` skeleton); each pair then settles its
own deadlines.  This is exact because the walk is translation-equivariant
in the durations: regions start from a restarted origin, deadlines never
read the entry time, and every table effect joins state-only values, so
a reused body walk applies the effects it recorded (:class:`TableEffects`).

The same walk is the static cost analysis.  Along the way the walker
tabulates unpadded intervals per command, branch, loop and mitigate site
(the tables of :class:`repro.analysis.cost.CostReport`).  For an observer
who sees everything nothing is secret, so no class ever forks and the
walk is path-insensitive; :func:`repro.analysis.cost.compute_cost` is that
walk.
"""

from __future__ import annotations

import dataclasses
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

    def renamed(self, hardware: str) -> "QuantifyReport":
        """This census for another model that shares its walk: its own
        name and its own site, fork and note records."""
        return dataclasses.replace(
            self, hardware=hardware,
            sites={mit_id: dataclasses.replace(site)
                   for mit_id, site in self.sites.items()},
            forks=[dataclasses.replace(fork) for fork in self.forks],
            notes=[dataclasses.replace(note) for note in self.notes],
        )

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
    prediction strictly exceeds ``elapsed``, at most ``misses +
    _MAX_MISSES``.

    Every scheme's prediction strictly increases in ``m``, so the count
    is found by galloping to a prediction above ``elapsed`` and bisecting
    back: O(log) predictions where S-UPDATE takes one per miss.
    """
    if scheme.predict(budget, misses) > elapsed:
        return misses
    cap = misses + _MAX_MISSES
    # predict(lo) <= elapsed throughout; hi is the first probe above it.
    lo, step = misses, 1
    while True:
        hi = min(lo + step, cap)
        if scheme.predict(budget, hi) > elapsed:
            break
        if hi == cap:
            return cap
        lo, step = hi, step * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if scheme.predict(budget, mid) > elapsed:
            hi = mid
        else:
            lo = mid
    return hi


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


class StepFacts(NamedTuple):
    """The one hardware step a labeled command charges, as
    :meth:`CostContract.step_cost` reads it (all but the state)."""

    kind: StepKind
    reads: int
    writes: int
    is_branch: bool
    read_label: Optional[Label]
    write_label: Optional[Label]


def step_facts(cmd: ast.Command) -> Optional[StepFacts]:
    """The step ``cmd``'s own evaluation charges (a skip, an assignment,
    a guard or a mitigate's budget).  ``None`` for a command that charges
    none (a sequence, or a ``sleep``, which never touches the hardware)."""
    if isinstance(cmd, ast.Skip):
        kind, reads, writes = StepKind.SKIP, 0, 0
    elif isinstance(cmd, ast.Assign):
        kind, reads, writes = StepKind.ASSIGN, expr_accesses(cmd.expr), 1
    elif isinstance(cmd, ast.ArrayAssign):
        kind, writes = StepKind.ASSIGN, 1
        reads = expr_accesses(cmd.index) + expr_accesses(cmd.expr)
    elif isinstance(cmd, (ast.If, ast.While)):
        kind, reads, writes = StepKind.BRANCH, expr_accesses(cmd.cond), 0
    elif isinstance(cmd, ast.Mitigate):
        kind, reads, writes = StepKind.MITIGATE, expr_accesses(cmd.budget), 0
    else:
        return None
    return StepFacts(kind, reads, writes, kind is StepKind.BRANCH,
                     cmd.read_label, cmd.write_label)


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


#: Miss counter ranges ``(level, lo, hi)`` per mitigation level (local
#: penalty policy), sorted by level; an unlisted level is at ``(0, 0)``.
Misses = Tuple[Tuple[str, int, int], ...]

#: The pairs of a class that starts a walk: no duration past its interval
#: and no Miss counted.  A mitigate-free walk never reads Miss ranges, so
#: its origin carries these and its caller keeps its own.
_ORIGIN: Tuple[Tuple[int, Misses], ...] = ((0, ()),)


class TimingClass(NamedTuple):
    """A bundle of attacker-distinguishable equivalence classes of
    executions that share one state (immutable: the walker builds each
    next class with the constructor).

    Each ``(d, misses)`` of :attr:`pairs` is one class: its padded
    duration is :attr:`interval` moved by ``d`` cycles and its Miss
    counters are ``misses``.  A mitigate's fan-out puts every deadline a
    body state can reach into one bundle, so the commands after it move
    the shared interval once for all of them.  The census counts pairs.
    """

    #: Accumulated (padded) duration interval, shared by the pairs.
    interval: Interval
    #: Flat constant environment (immutable view; copied on write).
    env: Tuple[Tuple[str, int], ...]
    #: Contract abstract state (bus queue, cumulative writes, ...).
    hw: Hashable
    #: Distinct ``(d, misses)`` pairs, in the order of the per-class walk.
    pairs: Tuple[Tuple[int, Misses], ...] = _ORIGIN
    #: Extra distinguishable bits accrued from widened secret constructs
    #: not (yet) absorbed by a mitigate's deadline collapse.
    secret_bits: float = 0.0
    #: Accumulated *unpadded* duration: hardware-charged steps plus
    #: ``sleep``, no mitigation padding (the cost analysis's measure).
    unpadded: Interval = ZERO

    def env_dict(self) -> Dict[str, int]:
        return dict(self.env)

    @property
    def span(self) -> Interval:
        """The join of the pairs' padded durations."""
        if len(self.pairs) == 1:
            return _shifted(self.interval, self.pairs[0][0])
        offsets = [d for d, _ in self.pairs]
        iv = self.interval
        return Interval(iv.lo + min(offsets),
                        None if iv.hi is None else iv.hi + max(offsets))

    def singles(self) -> List["TimingClass"]:
        """One class per pair, its duration moved into the interval."""
        if len(self.pairs) == 1 and self.pairs[0][0] == 0:
            return [self]
        return [
            TimingClass(_shifted(self.interval, d), self.env, self.hw,
                        ((0, misses),), self.secret_bits, self.unpadded)
            for d, misses in self.pairs
        ]

    def after(self, step: Interval, hw: Hashable) -> "TimingClass":
        """This class after ``step`` more cycles, leaving state ``hw``."""
        return TimingClass(self.interval + step, self.env, hw, self.pairs,
                           self.secret_bits, self.unpadded + step)

    def origin(self) -> "TimingClass":
        """This class's state at zero durations, for a walk whose result
        every class in the state shares."""
        return TimingClass(ZERO, self.env, self.hw, _ORIGIN,
                           self.secret_bits)

    def restarted(self) -> "TimingClass":
        """This single class at the start of a region: both durations
        zero, its Miss ranges kept."""
        return TimingClass(ZERO, self.env, self.hw, self.pairs,
                           self.secret_bits, ZERO)

    def following(self, head: "TimingClass") -> "TimingClass":
        """A region's class placed after ``head``, the single class that
        entered the region: both durations continue from it."""
        return TimingClass(head.interval + self.interval, self.env,
                           self.hw, self.pairs, self.secret_bits,
                           head.unpadded + self.unpadded)


def _shifted(interval: Interval, cycles: int) -> Interval:
    if not cycles:
        return interval
    return Interval(interval.lo + cycles,
                    None if interval.hi is None else interval.hi + cycles)


def _count(classes: List[TimingClass]) -> int:
    """How many classes a list of bundles stands for."""
    return sum(len(cls.pairs) for cls in classes)


def _miss_range(misses: Misses, level: str) -> Tuple[int, int]:
    for name, lo, hi in misses:
        if name == level:
            return lo, hi
    return 0, 0


def _with_miss(misses: Misses, level: str, lo: int, hi: int) -> Misses:
    if not misses or (len(misses) == 1 and misses[0][0] == level):
        return ((level, lo, hi),)
    others = tuple(entry for entry in misses if entry[0] != level)
    return tuple(sorted(others + ((level, lo, hi),)))


def _join_misses(a: Misses, b: Misses) -> Misses:
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
    """Join several classes, every pair of every bundle, into one (the
    precision-losing merge used when arms are indistinguishable or the
    census saturates)."""
    merged = classes[0]
    env = merged.env_dict()
    interval = merged.span
    unpadded = merged.unpadded
    hw = merged.hw
    secret_bits = merged.secret_bits
    misses = functools.reduce(
        _join_misses, (m for cls in classes for _, m in cls.pairs)
    )
    for cls in classes[1:]:
        other_env = cls.env_dict()
        env = {k: v for k, v in env.items() if other_env.get(k) == v}
        interval = interval.join(cls.span)
        unpadded = unpadded.join(cls.unpadded)
        hw = contract.join_state(hw, cls.hw)
        secret_bits = max(secret_bits, cls.secret_bits)
    return TimingClass(
        interval=interval,
        env=tuple(sorted(env.items())),
        hw=hw,
        pairs=((0, misses),),
        secret_bits=secret_bits,
        unpadded=unpadded,
    )


# ---------------------------------------------------------------------------
# The walker: census and cost analysis in one path-sensitive pass
# ---------------------------------------------------------------------------


class TableEffects:
    """The tables a walk writes besides its mitigate sites: unpadded
    intervals per command, branch and loop, the widening, fork and
    precision notes (each in first-seen order), and saturation.

    Every write joins into what is there.  So :meth:`absorb`-ing the
    tables of another walk has exactly the effect of taking that walk
    here, and a memoized body walk (:class:`WalkMemo`) records its own
    tables to absorb wherever it is reused.  The records absorbed are
    copies: the walker updates its own in place.
    """

    def __init__(self) -> None:
        #: Unpadded interval per command, joined over every visit.
        self.per_command: Dict[int, Interval] = {}
        self.branches: Dict[int, BranchCost] = {}
        self.loops: Dict[int, LoopCost] = {}
        #: Why a region lost its finite upper bound (cost's notes).
        self.widenings: List[WideningNote] = []
        self.forks: List[ForkNote] = []
        self.notes: List[PrecisionNote] = []
        self.saturated = False

    def step(self, node_id: int, interval: Interval) -> None:
        seen = self.per_command.get(node_id)
        if seen != interval:
            self.per_command[node_id] = (
                interval if seen is None else seen.join(interval)
            )

    def branch(self, record: BranchCost) -> None:
        seen = self.branches.get(record.node_id)
        if seen is None:
            self.branches[record.node_id] = record
        else:
            seen.then_interval = seen.then_interval.join(
                record.then_interval)
            seen.else_interval = seen.else_interval.join(
                record.else_interval)

    def loop(self, record: LoopCost) -> None:
        """Exits from a loop: ``record.unrolled`` is the first exit's
        iteration count, kept until some exit widens."""
        seen = self.loops.get(record.node_id)
        if seen is None:
            self.loops[record.node_id] = record
        else:
            seen.interval = seen.interval.join(record.interval)
            if record.widened:
                seen.widened = True
                seen.unrolled = None

    def fork(self, record: ForkNote) -> None:
        """One fork note per site and kind, with the largest bits and the
        first message."""
        for note in self.forks:
            if note.node_id == record.node_id and note.kind == record.kind:
                note.bits = max(note.bits, record.bits)
                return
        self.forks.append(record)

    def absorb(self, other: "TableEffects") -> None:
        """Apply another walk's effects, as taking that walk here would."""
        for node_id, interval in other.per_command.items():
            self.step(node_id, interval)
        for branch in other.branches.values():
            self.branch(dataclasses.replace(branch))
        for loop in other.loops.values():
            self.loop(dataclasses.replace(loop))
        for widening in other.widenings:
            _once(self.widenings, dataclasses.replace(widening))
        for fork in other.forks:
            self.fork(dataclasses.replace(fork))
        for note in other.notes:
            _once(self.notes, dataclasses.replace(note))
        self.saturated = self.saturated or other.saturated


def _once(records: list, record) -> None:
    """Keep the first note per command."""
    if all(seen.node_id != record.node_id for seen in records):
        records.append(record)


class WalkMemo:
    """What the walks of one program share for as long as their caller
    keeps this memo: each command's step facts and whether it contains a
    ``mitigate`` (by ``id``), and per contract the classes and
    :class:`TableEffects` of every mitigate-free ``mitigate`` body walked
    from an entry state (env, hardware state, secret bits).

    Nothing here reads a mitigate budget or the scheme: a mitigate-free
    body holds neither, and a literal budget charges no reads.  So one
    memo serves every walk of one tree under one Gamma, observer and
    horizon, whatever scheme each walk uses and whatever literal budgets
    the tree carries.  Commands are keyed by ``id``: the memo's owner
    keeps the tree alive.
    """

    def __init__(self) -> None:
        self.facts: Dict[int, Optional[StepFacts]] = {}
        self.mitigating: Dict[int, bool] = {}
        self.bodies: Dict[CostContract, Dict[Tuple, Tuple[
            List[TimingClass], TableEffects]]] = {}


class CensusWalker:
    """The abstract interpreter over the program term.

    It enumerates the timing classes ``observer`` can separate and, along
    the same walk, tabulates the unpadded cost facts of
    :class:`~repro.analysis.cost.CostReport` (per command, branch, loop
    and mitigate site, plus widening notes).  ``observer=None`` is the
    observer who sees everything: nothing is secret, so no class ever
    forks and the walk is the path-insensitive cost analysis (``gamma``
    is then never consulted).  ``memo`` is shared with the other walks
    of the program its caller runs (default: this walk's own).
    """

    def __init__(
        self,
        contract: CostContract,
        scheme: PredictionScheme,
        horizon: int,
        gamma: Optional[SecurityEnvironment] = None,
        observer: Optional[Label] = None,
        memo: Optional[WalkMemo] = None,
    ):
        self.contract = contract
        self.scheme = scheme
        self.horizon = horizon
        self.gamma = gamma
        self.observer = observer
        self.sites: Dict[str, SiteQuant] = {}
        self.tables = TableEffects()
        #: Extra widening bits one widened secret loop may contribute.
        self.widen_bits = math.log2(
            1 + max(math.log2(max(horizon, 2)), 1)
        )
        memo = memo if memo is not None else WalkMemo()
        self._facts = memo.facts
        self._mitigating = memo.mitigating
        self._bodies = memo.bodies.setdefault(contract, {})
        #: The body walks whose tables this walk has absorbed.
        self._absorbed: set = set()

    def walk(self, program: ast.Command) -> List[TimingClass]:
        """Abstractly execute the whole program; its final classes, each
        charged the program's closing region overhead."""
        initial = TimingClass(ZERO, (), self.contract.initial_state())
        return [
            cls.after(self.contract.region_overhead(cls.hw), cls.hw)
            for cls in self.run(program, [initial])
        ]

    # -- bookkeeping ----------------------------------------------------------

    def _fork(self, cmd: ast.LabeledCommand, kind: str, bits: float,
              message: str) -> None:
        if bits > 0:
            self.tables.fork(
                ForkNote(cmd.node_id, cmd.span, kind, bits, message))

    def _note(self, cmd: ast.LabeledCommand, message: str) -> None:
        _once(self.tables.notes,
              PrecisionNote(cmd.node_id, cmd.span, message))

    def _widened(self, cmd: ast.LabeledCommand, message: str) -> None:
        _once(self.tables.widenings,
              WideningNote(cmd.node_id, cmd.span, message))

    def _secret(self, expr: ast.Expr) -> bool:
        """Does the expression read data invisible to the observer?"""
        return self.observer is not None and not self.gamma.label_of_expr(
            expr).flows_to(self.observer)

    def _cap(self, classes: List[TimingClass]) -> List[TimingClass]:
        if len(classes) > 1:
            classes = _dedupe(classes, self.contract)
        elif len(classes[0].pairs) <= MAX_CLASSES:
            return classes
        if _count(classes) <= MAX_CLASSES:
            return classes
        self.tables.saturated = True
        singles = [one for cls in classes for one in cls.singles()]
        keep = singles[:MAX_CLASSES - 1]
        keep.append(_merge_classes(singles[MAX_CLASSES - 1:],
                                   self.contract))
        return keep

    # -- one hardware step ----------------------------------------------------

    def _step(self, cls: TimingClass,
              cmd: ast.LabeledCommand) -> TimingClass:
        facts = self._facts.get(id(cmd))
        if facts is None:
            facts = self._facts[id(cmd)] = step_facts(cmd)
        interval, hw = self.contract.step_cost(*facts, cls.hw)
        self.tables.step(cmd.node_id, interval)
        return cls.after(interval, hw)

    # -- commands --------------------------------------------------------------

    def run(self, cmd: ast.Command,
            classes: List[TimingClass]) -> List[TimingClass]:
        """Abstractly execute ``cmd`` over every class.

        A mitigate-free command passes the Miss ranges through, so the
        classes that reach it with the same env, hardware state and
        secret bits take one walk from a zero-duration origin, placed
        after each class's own durations; a bundle is placed whole.  A
        ``mitigate`` whose body is mitigate-free takes each bundle whole
        too.  Any other command containing a ``mitigate`` walks one
        class per pair.  This is exact because the walk is
        translation-equivariant in the durations and every table effect
        joins state-only values (``docs/ANALYSIS.md``).
        """
        if isinstance(cmd, ast.Seq):
            classes = self.run(cmd.first, classes)
            return self.run(cmd.second, classes)
        if len(classes) == 1 and len(classes[0].pairs) == 1:
            (cls,) = classes[0].singles()
            return self._cap(self._run_one(cmd, cls))
        if self._contains_mitigate(cmd):
            whole = (isinstance(cmd, ast.Mitigate)
                     and not self._contains_mitigate(cmd.body))
            if not whole:
                classes = [one for cls in classes for one in cls.singles()]
            return self._cap([sub for cls in classes
                              for sub in self._run_one(cmd, cls)])
        walked: Dict[Tuple, List[TimingClass]] = {}
        out: List[TimingClass] = []
        for cls in classes:
            key = (cls.env, cls.hw, cls.secret_bits)
            subs = walked.get(key)
            if subs is None:
                subs = walked[key] = self._run_one(cmd, cls.origin())
            # Over several sub-states the pairs go one at a time: the
            # per-class walk's order, which saturation and merges keep.
            bundles = ((cls.pairs,) if len(subs) == 1
                       else [(pair,) for pair in cls.pairs])
            out.extend(
                TimingClass(cls.interval + sub.interval, sub.env, sub.hw,
                            pairs, sub.secret_bits,
                            cls.unpadded + sub.unpadded)
                for pairs in bundles for sub in subs
            )
        return self._cap(out)

    def _contains_mitigate(self, cmd: ast.Command) -> bool:
        known = self._mitigating.get(id(cmd))
        if known is None:
            known = self._mitigating[id(cmd)] = bool(ast.mitigates(cmd))
        return known

    def _walk_body(self, body: ast.Command,
                   head: TimingClass) -> List[TimingClass]:
        """A mitigate-free body's classes from ``head``'s state, walked
        once per state for the memo's lifetime; their pairs are the
        origin's, not ``head``'s.  The walk's recorded tables are
        absorbed once per walk that reaches it."""
        key = (id(body), head.env, head.hw, head.secret_bits)
        walked = self._bodies.get(key)
        if walked is None:
            outer, self.tables = self.tables, TableEffects()
            subs = self.run(body, [head.origin()])
            walked = self._bodies[key] = (subs, self.tables)
            self.tables = outer
        if key not in self._absorbed:
            self._absorbed.add(key)
            self.tables.absorb(walked[1])
        return walked[0]

    def _run_one(self, cmd: ast.Command,
                 cls: TimingClass) -> List[TimingClass]:
        if isinstance(cmd, ast.Skip):
            return [self._step(cls, cmd)]

        if isinstance(cmd, ast.Assign):
            nxt = self._step(cls, cmd)
            env = nxt.env_dict()
            value = eval_const(cmd.expr, env)
            if value is None:
                env.pop(cmd.target, None)
            else:
                env[cmd.target] = value
            return [TimingClass(nxt.interval, tuple(sorted(env.items())),
                                nxt.hw, nxt.pairs, nxt.secret_bits,
                                nxt.unpadded)]

        if isinstance(cmd, ast.ArrayAssign):
            return [self._step(cls, cmd)]

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
        self.tables.step(cmd.node_id, interval)
        nxt = cls.after(interval, cls.hw)
        if duration is None and self._secret(cmd.duration):
            # Every distinct duration is its own observation; the horizon
            # bounds how many the clock can tell apart.
            nxt = TimingClass(nxt.interval, nxt.env, nxt.hw, nxt.pairs,
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
        head = self._step(cls, cmd)
        guard = eval_const(cmd.cond, head.env_dict())
        if guard is not None:
            arm = cmd.then_branch if guard != 0 else cmd.else_branch
            return self.run(arm, [head])

        base = head.restarted()
        then_out = self.run(cmd.then_branch, [base])
        else_out = self.run(cmd.else_branch, [base])
        self.tables.branch(BranchCost(
            cmd.node_id, cmd.span, _join(c.unpadded for c in then_out),
            _join(c.unpadded for c in else_out)))
        then_iv = _join(c.span for c in then_out)
        else_iv = _join(c.span for c in else_out)

        if self._secret(cmd.cond) and self.contract.distinguishable(
                then_iv, else_iv):
            self._fork(
                cmd, "branch", 1.0,
                f"confidential guard with distinguishable arms (then "
                f"{then_iv}, else {else_iv}): the clock reads the arm "
                "taken",
            )
        elif _count(then_out) == 1 and _count(else_out) == 1:
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
        # The unpadded duration restarts so each exit reads the loop's
        # own total (the padded one stays cumulative: classes merge on it).
        current = [TimingClass(cls.interval, cls.env, cls.hw, cls.pairs,
                               cls.secret_bits, ZERO)]
        done: List[TimingClass] = []
        iterations = 0
        while current:
            stepped = [self._step(c, cmd) for c in current]
            nxt: List[TimingClass] = []
            widen: List[TimingClass] = []
            for c in stepped:
                guard = eval_const(cmd.cond, c.env_dict())
                if guard == 0:
                    self.tables.loop(LoopCost(
                        cmd.node_id, cmd.span, c.unpadded, False,
                        unrolled=iterations))
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
            TimingClass(c.interval, c.env, c.hw, c.pairs, c.secret_bits,
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
        for c in (one for cls in classes for one in cls.singles()):
            # Kill every name the body may write (the loop may also run
            # zero times) and widen the hardware state.
            env = tuple(
                (name, value) for name, value in c.env
                if name not in killed
            )
            hw = self.contract.widen_state(c.hw)
            seeded = TimingClass(ZERO, env, hw, c.pairs, c.secret_bits)
            # One abstract body pass so nested sites still get facts.
            landed = _merge_classes(self.run(cmd.body, [seeded]),
                                    self.contract)
            unpadded = Interval.top(c.unpadded.lo)
            self.tables.loop(
                LoopCost(cmd.node_id, cmd.span, unpadded, True))
            out.append(TimingClass(
                interval=Interval.top(c.interval.lo),
                env=env,
                hw=self.contract.widen_state(
                    self.contract.join_state(hw, landed.hw)
                ),
                # The loop may also run zero times.
                pairs=((0, _join_misses(c.pairs[0][1],
                                        landed.pairs[0][1])),),
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
        head = self._step(cls, cmd)
        budget = eval_const(cmd.budget, head.env_dict())
        level_name = cmd.level.name if cmd.level is not None else "?"
        entry_bits = head.secret_bits
        # A mitigate-free body is walked once per state, and each pair of
        # the entering bundle settles its own Miss ranges against it.  A
        # body with mitigates of its own enters one class at a time
        # (``run``), and its classes carry the Miss ranges.
        nested = self._contains_mitigate(cmd.body)
        if nested:
            subs = self.run(cmd.body, [head.restarted()])
        else:
            subs = self._walk_body(cmd.body, head)

        # Each body class closes with the region overhead; the running
        # unpadded total does not carry it (the site's interval does).
        overhead: List[TimingClass] = []
        body_unpadded: List[Interval] = []
        for sub in subs:
            region = self.contract.region_overhead(sub.hw)
            overhead.append(TimingClass(
                sub.interval + region, sub.env, sub.hw, sub.pairs,
                sub.secret_bits, sub.unpadded,
            ))
            body_unpadded.append(sub.unpadded + region)
        body_iv = _join(c.span for c in overhead)
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
                merged.pairs if nested else head.pairs,
                max(entry_bits, merged.secret_bits),
                head.unpadded + merged.unpadded,
            )]

        # Was any of the body's variation confidential?  Declared-secret
        # levels (above the observer) always count; purely public
        # variation under an observable level pads to a public deadline.
        body_secret = (
            (self.observer is not None
             and not cmd.level.flows_to(self.observer))
            or _count(overhead) > 1
            or any(sub.secret_bits > entry_bits for sub in overhead)
        )

        # Runs of pairs that share a body class and a padded interval, in
        # the per-class order: entering pair, body class, its pair, Miss
        # count.  Each run is one class of the result.
        runs: List[Tuple[int, Interval, list]] = []
        #: Distinct deadlines each entering pair can reach.
        site_classes: List[int] = []
        worst_deadline = 0
        for d_entry, entry_misses in head.pairs:
            deadlines: set = set()
            for index, sub in enumerate(overhead):
                for d_body, body_misses in sub.pairs:
                    misses = body_misses if nested else entry_misses
                    body = _shifted(sub.interval, d_body)
                    # Settle each end of the entry Miss range on its own:
                    # the earliest deadline from the lowest count, the
                    # latest from the highest.
                    miss_lo, miss_hi = _miss_range(misses, level_name)
                    m_lo, m_hi = deadline_span(
                        self.scheme, budget, miss_lo, body, self.horizon
                    )
                    if miss_hi != miss_lo:
                        m_hi = deadline_span(
                            self.scheme, budget, miss_hi, body,
                            self.horizon,
                        )[1]
                    if not body_secret:
                        # Public variation: every deadline is a public
                        # function of public data -- one class, padded
                        # somewhere in the deadline window.
                        lo_pad = self.scheme.predict(budget, m_lo)
                        hi_pad = self.scheme.predict(budget, m_hi)
                        worst_deadline = max(worst_deadline, hi_pad)
                        padded = head.interval + Interval(lo_pad, hi_pad)
                        pairs = [(d_entry, _with_miss(misses, level_name,
                                                      m_lo, m_hi))]
                    else:
                        # The deadline collapse absorbs body-internal
                        # widening: the padded duration is all that leaks.
                        padded = head.interval
                        counts = range(m_lo, m_hi + 1)
                        padding = [self.scheme.predict(budget, m)
                                   for m in counts]
                        deadlines.update(padding)
                        worst_deadline = max(worst_deadline, *padding)
                        pairs = [
                            (d_entry + deadline,
                             _with_miss(misses, level_name, m, m))
                            for m, deadline in zip(counts, padding)
                        ]
                    if runs and runs[-1][:2] == (index, padded):
                        runs[-1][2].extend(pairs)
                    else:
                        runs.append((index, padded, pairs))
            site_classes.append(max(len(deadlines), 1) if body_secret
                                else 1)

        most = max(site_classes)
        unbounded = any(sub.interval.hi is None for sub in overhead)
        self._record_site(
            cmd, level_name, budget, body_iv, body_cost, most,
            None if unbounded and most >= _MAX_MISSES else worst_deadline,
        )
        # The note keeps the first entering pair's count, its bits the
        # largest.
        for classes in dict.fromkeys(site_classes):
            if body_secret and classes > 1:
                self._fork(
                    cmd, "deadline", math.log2(classes),
                    f"the scheme's deadline sequence quantizes the body "
                    f"cost {body_iv} into {classes} observable padded "
                    "durations",
                )
        return [
            TimingClass(padded, overhead[index].env, overhead[index].hw,
                        tuple(dict.fromkeys(pairs)), entry_bits,
                        head.unpadded + overhead[index].unpadded)
            for index, padded, pairs in runs
        ]

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
    makes a mitigate's deadline collapse actually shrink the census.

    Each group of pairs with one key lands where its first pair stood, as
    in a walk of one class per pair.  A bundle's own pairs are distinct,
    so a bundle none of whose pairs shares a key stays whole."""
    groups: Dict[Tuple, List[Tuple[int, int]]] = {}
    for index, cls in enumerate(classes):
        iv = cls.interval
        bits = round(cls.secret_bits, 9)
        for place, (d, misses) in enumerate(cls.pairs):
            key = (iv.lo + d, None if iv.hi is None else iv.hi + d, misses,
                   bits)
            groups.setdefault(key, []).append((index, place))
    if len(groups) == _count(classes):
        return classes
    leaders = {members[0]: members for members in groups.values()
               if len(members) > 1}
    followers = {member for members in groups.values()
                 for member in members[1:]}
    touched = {index for index, _ in [*leaders, *followers]}
    out: List[TimingClass] = []
    for index, cls in enumerate(classes):
        if index not in touched:
            out.append(cls)
            continue
        for place, pair in enumerate(cls.pairs):
            members = leaders.get((index, place))
            if members is not None:
                out.append(_merge_classes(
                    [classes[i]._replace(pairs=(classes[i].pairs[j],))
                     for i, j in members],
                    contract,
                ))
            elif (index, place) not in followers:
                out.append(cls._replace(pairs=(pair,)))
    return out


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
    memo: Optional[WalkMemo] = None,
) -> QuantifyReport:
    """Enumerate the timing-equivalence classes of ``program`` on one
    hardware model and report the channel capacity ``log2(#classes)``.

    ``observer`` defaults to the lattice bottom (the paper's low
    adversary); data whose label flows to the observer is public for the
    census.  ``scheme`` names the prediction scheme quantizing mitigate
    deadlines (``doubling`` or ``polynomial``).  ``memo`` is one the
    other walks of ``program`` under the same Gamma, observer and
    horizon share (:class:`Census`); by default the walk keeps its own.
    """
    contract = contract if contract is not None else contract_for(
        hardware, params
    )
    observer = observer if observer is not None else gamma.lattice.bottom
    walker = CensusWalker(
        contract, make_scheme(scheme), horizon, gamma, observer, memo
    )
    final = walker.walk(program)
    tables = walker.tables
    # Each class stands for 2^secret_bits indistinguishable-by-structure
    # but duration-separable observations; a bundle, for one per pair.
    weight = sum(
        weight for cls in final
        for weight in [2.0 ** cls.secret_bits] * len(cls.pairs)
    )
    weight = max(weight, 1.0)
    capacity = math.log2(weight)
    if tables.saturated:
        capacity = max(capacity, math.log2(MAX_CLASSES))
    return QuantifyReport(
        hardware=contract.name,
        scheme=scheme,
        horizon=horizon,
        classes=max(int(round(weight)), _count(final)),
        capacity_bits=capacity,
        saturated=tables.saturated,
        padded=_join(c.span for c in final),
        sites=walker.sites,
        forks=tables.forks,
        notes=tables.notes,
    )


def census_groups(
    program: ast.Command,
    models: Iterable[str],
    params: Optional[MachineParams] = None,
) -> List[List[Tuple[str, CostContract]]]:
    """The requested models (aliases accepted), grouped by the walk they
    share on ``program``: one group per distinct
    :meth:`~repro.hardware.costmodel.CostContract.census_key`, in the
    order of each group's first model.  Each member is the requested
    name and its contract; walking the first contract walks them all."""
    # Equal steps cost the same on every contract: each key needs only
    # the distinct ones.
    steps = list(dict.fromkeys(
        facts for cmd in program.walk()
        if (facts := step_facts(cmd)) is not None))
    groups: Dict[Hashable, List[Tuple[str, CostContract]]] = {}
    for name in models:
        contract = contract_for(name, params)
        groups.setdefault(contract.census_key(steps), []).append(
            (name, contract))
    return list(groups.values())


class Census:
    """The census of one program on several registry models (default:
    all), for every scheme and literal budgets the caller walks it with.

    The models are grouped by the walk they share (:func:`census_groups`)
    once, and every walk shares one :class:`WalkMemo`, which lives as
    long as this object: for :func:`quantify_all`, one call; for the
    ``repro tune`` search, one placement skeleton, whose budgets the
    search rewrites in place between walks.
    """

    def __init__(
        self,
        program: ast.Command,
        gamma: SecurityEnvironment,
        models: Optional[Iterable[str]] = None,
        observer: Optional[Label] = None,
        horizon: int = DEFAULT_HORIZON,
        params: Optional[MachineParams] = None,
    ):
        from ..hardware.registry import REGISTRY

        self.program = program
        self.gamma = gamma
        self.names = (list(models) if models is not None
                      else list(REGISTRY.names()))
        self.observer = observer
        self.horizon = horizon
        self.groups = census_groups(program, self.names, params)
        self.memo = WalkMemo()

    def reports(self, scheme: str = "doubling") -> Dict[str, QuantifyReport]:
        """The census on every model at the program's current budgets,
        walked once per group; the other models of a group get their own
        copy of its report."""
        reports: Dict[str, QuantifyReport] = {}
        for (first, contract), *others in self.groups:
            report = reports[first] = quantify(
                self.program, self.gamma, observer=self.observer,
                scheme=scheme, horizon=self.horizon, contract=contract,
                memo=self.memo,
            )
            for name, other in others:
                reports[name] = report.renamed(other.name)
        return {name: reports[name] for name in self.names}


def quantify_all(
    program: ast.Command,
    gamma: SecurityEnvironment,
    models: Optional[Iterable[str]] = None,
    observer: Optional[Label] = None,
    scheme: str = "doubling",
    horizon: int = DEFAULT_HORIZON,
    params: Optional[MachineParams] = None,
) -> Dict[str, QuantifyReport]:
    """The census on every requested registry model (default: all), one
    :class:`Census` walk per :func:`census_groups` group."""
    return Census(program, gamma, models, observer, horizon,
                  params).reports(scheme)
