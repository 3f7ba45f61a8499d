"""Abstract syntax for the timing-label language (Fig. 1 of the paper).

The command grammar is the paper's::

    c ::= skip[lr,lw] | (x := e)[lr,lw] | c ; c
        | (while e do c)[lr,lw] | (if e then c1 else c2)[lr,lw]
        | (mitigate_n (e, l) c)[lr,lw] | (sleep e)[lr,lw]

extended with arrays (``a[e]`` reads and ``(a[e1] := e2)`` writes), which the
paper's C case studies need.  Every primitive command carries a *read label*
``lr`` (an upper bound on the machine-environment state that may affect its
running time) and a *write label* ``lw`` (a lower bound on the
machine-environment state it may modify); sequential composition carries no
labels (Sec. 3).  Labels may be omitted (``None``) and later filled in by
:mod:`repro.typesystem.inference`.

AST nodes use *identity* equality so they can serve as dictionary keys in the
layout pass and the type checker; use :func:`ast_equal` for structural
comparison (e.g. parser/pretty-printer round-trip tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, Optional, Tuple

from ..lattice import Label

_node_counter = itertools.count(1)


def _fresh_node_id() -> int:
    return next(_node_counter)


# ---------------------------------------------------------------------------
# Source spans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """A half-open region of source text, 1-based (``line:column`` up to but
    not including ``end_line:end_column``).

    Nodes built programmatically (via :mod:`repro.lang.builder` or raw
    constructors) carry :data:`SYNTHETIC_SPAN`, whose coordinates are all
    zero; the parser overwrites it with the real region.
    """

    line: int
    column: int
    end_line: int
    end_column: int

    @property
    def is_synthetic(self) -> bool:
        """True for spans of nodes that never came from source text."""
        return self.line == 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


#: The span of every node not produced by the parser.
SYNTHETIC_SPAN = Span(0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

ARITH_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>")
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
BOOL_OPS = ("&&", "||")
BINARY_OPS = ARITH_OPS + CMP_OPS + BOOL_OPS
UNARY_OPS = ("-", "!")


@dataclass(eq=False)
class Expr:
    """Base class for expressions."""

    span: Span = field(default=SYNTHETIC_SPAN, kw_only=True)

    def variables(self) -> FrozenSet[str]:
        """Names of all variables (including array names) read by this expression."""
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """All expressions in this subtree, preorder."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(eq=False)
class IntLit(Expr):
    """An integer literal."""

    value: int

    def variables(self) -> FrozenSet[str]:
        return frozenset()


@dataclass(eq=False)
class Var(Expr):
    """A scalar variable read."""

    name: str

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.name})


@dataclass(eq=False)
class ArrayRead(Expr):
    """Reading element ``array[index]``."""

    array: str
    index: Expr

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.array}) | self.index.variables()

    def children(self) -> Tuple[Expr, ...]:
        return (self.index,)


@dataclass(eq=False)
class BinOp(Expr):
    """A binary operation. ``op`` is drawn from :data:`BINARY_OPS`."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def variables(self) -> FrozenSet[str]:
        return self.left.variables() | self.right.variables()

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(eq=False)
class UnOp(Expr):
    """A unary operation. ``op`` is drawn from :data:`UNARY_OPS`."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {self.op!r}")

    def variables(self) -> FrozenSet[str]:
        return self.operand.variables()

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Command:
    """Base class for commands."""

    span: Span = field(default=SYNTHETIC_SPAN, kw_only=True)

    def labeled(self) -> bool:
        """True for the paper's *labeled commands* ``c[lr,lw]`` (all but Seq)."""
        return True

    def subcommands(self) -> Tuple["Command", ...]:
        return ()

    def walk(self) -> Iterator["Command"]:
        """All commands in this subtree, preorder."""
        yield self
        for sub in self.subcommands():
            yield from sub.walk()


@dataclass(eq=False)
class LabeledCommand(Command):
    """A command carrying read/write timing labels.

    ``read_label``/``write_label`` are ``None`` until annotated (either in the
    source text or by label inference).  ``node_id`` uniquely identifies the
    occurrence; the layout pass derives instruction addresses from it and the
    type checker keys per-occurrence facts (like ``pc`` at ``mitigate``) on it.
    """

    read_label: Optional[Label] = field(default=None, kw_only=True)
    write_label: Optional[Label] = field(default=None, kw_only=True)
    node_id: int = field(default_factory=_fresh_node_id, kw_only=True)

    def vars1(self) -> FrozenSet[str]:
        """The part of memory that may affect the timing of the *next*
        evaluation step of this command (Sec. 3.6).

        For compound commands this includes only the guard expression; for
        assignments and ``sleep`` it is the target and the full expression.
        """
        raise NotImplementedError


@dataclass(eq=False)
class Skip(LabeledCommand):
    """``skip[lr,lw]`` -- a real command that consumes observable time."""

    def vars1(self) -> FrozenSet[str]:
        return frozenset()


@dataclass(eq=False)
class Assign(LabeledCommand):
    """``(x := e)[lr,lw]``."""

    target: str = ""
    expr: Expr = field(default_factory=lambda: IntLit(0))

    def vars1(self) -> FrozenSet[str]:
        return frozenset({self.target}) | self.expr.variables()


@dataclass(eq=False)
class ArrayAssign(LabeledCommand):
    """``(a[e1] := e2)[lr,lw]`` -- the array extension."""

    array: str = ""
    index: Expr = field(default_factory=lambda: IntLit(0))
    expr: Expr = field(default_factory=lambda: IntLit(0))

    def vars1(self) -> FrozenSet[str]:
        return (
            frozenset({self.array})
            | self.index.variables()
            | self.expr.variables()
        )


@dataclass(eq=False)
class Seq(Command):
    """``c1 ; c2`` -- carries no timing labels (Sec. 3)."""

    first: Command = None  # type: ignore[assignment]
    second: Command = None  # type: ignore[assignment]

    def labeled(self) -> bool:
        return False

    def subcommands(self) -> Tuple[Command, ...]:
        return (self.first, self.second)


@dataclass(eq=False)
class If(LabeledCommand):
    """``(if e then c1 else c2)[lr,lw]``."""

    cond: Expr = field(default_factory=lambda: IntLit(0))
    then_branch: Command = None  # type: ignore[assignment]
    else_branch: Command = None  # type: ignore[assignment]

    def vars1(self) -> FrozenSet[str]:
        return self.cond.variables()

    def subcommands(self) -> Tuple[Command, ...]:
        return (self.then_branch, self.else_branch)


@dataclass(eq=False)
class While(LabeledCommand):
    """``(while e do c)[lr,lw]``."""

    cond: Expr = field(default_factory=lambda: IntLit(0))
    body: Command = None  # type: ignore[assignment]

    def vars1(self) -> FrozenSet[str]:
        return self.cond.variables()

    def subcommands(self) -> Tuple[Command, ...]:
        return (self.body,)


@dataclass(eq=False)
class Sleep(LabeledCommand):
    """``(sleep e)[lr,lw]`` -- suspends for ``max(e, 0)`` cycles (Property 4)."""

    duration: Expr = field(default_factory=lambda: IntLit(0))

    def vars1(self) -> FrozenSet[str]:
        return self.duration.variables()


@dataclass(eq=False)
class Mitigate(LabeledCommand):
    """``(mitigate_n (e, l) c)[lr,lw]``.

    ``budget`` computes the initial prediction for the running time of
    ``body``; ``level`` bounds what can be learned from the timing of the
    mitigated block (no information above ``level`` leaks).  ``mit_id`` is the
    paper's source identifier eta; it defaults to the node id and names the
    command in mitigate-vector traces (Sec. 6.3).
    """

    budget: Expr = field(default_factory=lambda: IntLit(1))
    level: Label = None  # type: ignore[assignment]
    body: Command = None  # type: ignore[assignment]
    mit_id: Optional[str] = None

    def __post_init__(self) -> None:
        self.auto_id = self.mit_id is None
        if self.mit_id is None:
            self.mit_id = f"m{self.node_id}"

    def vars1(self) -> FrozenSet[str]:
        return self.budget.variables()

    def subcommands(self) -> Tuple[Command, ...]:
        return (self.body,)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def _flatten_seq(cmd: "Command") -> list:
    if isinstance(cmd, Seq):
        return _flatten_seq(cmd.first) + _flatten_seq(cmd.second)
    return [cmd]


def ast_equal(a: object, b: object) -> bool:
    """Structural equality of two AST fragments, ignoring node ids.

    Sequential composition is compared modulo associativity (``(a;b);c``
    equals ``a;(b;c)``) -- the semantics cannot tell them apart and the
    pretty-printer flattens them.  Mitigate identifiers are compared only
    when both are explicitly set.
    """
    if isinstance(a, Command) and isinstance(b, Command):
        if isinstance(a, Seq) or isinstance(b, Seq):
            flat_a = _flatten_seq(a)
            flat_b = _flatten_seq(b)
            return len(flat_a) == len(flat_b) and all(
                ast_equal(x, y) for x, y in zip(flat_a, flat_b)
            )
    if type(a) is not type(b):
        return False
    if isinstance(a, IntLit):
        return a.value == b.value
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, ArrayRead):
        return a.array == b.array and ast_equal(a.index, b.index)
    if isinstance(a, BinOp):
        return (
            a.op == b.op
            and ast_equal(a.left, b.left)
            and ast_equal(a.right, b.right)
        )
    if isinstance(a, UnOp):
        return a.op == b.op and ast_equal(a.operand, b.operand)
    if isinstance(a, LabeledCommand):
        if a.read_label != b.read_label or a.write_label != b.write_label:
            return False
        if isinstance(a, Skip):
            return True
        if isinstance(a, Assign):
            return a.target == b.target and ast_equal(a.expr, b.expr)
        if isinstance(a, ArrayAssign):
            return (
                a.array == b.array
                and ast_equal(a.index, b.index)
                and ast_equal(a.expr, b.expr)
            )
        if isinstance(a, If):
            return (
                ast_equal(a.cond, b.cond)
                and ast_equal(a.then_branch, b.then_branch)
                and ast_equal(a.else_branch, b.else_branch)
            )
        if isinstance(a, While):
            return ast_equal(a.cond, b.cond) and ast_equal(a.body, b.body)
        if isinstance(a, Sleep):
            return ast_equal(a.duration, b.duration)
        if isinstance(a, Mitigate):
            return (
                ast_equal(a.budget, b.budget)
                and a.level == b.level
                and ast_equal(a.body, b.body)
            )
    raise TypeError(f"not an AST node: {a!r}")


def seq(*commands: Command) -> Command:
    """Right-associated sequential composition of one or more commands."""
    if not commands:
        raise ValueError("seq() needs at least one command")
    result = commands[-1]
    for cmd in reversed(commands[:-1]):
        result = Seq(first=cmd, second=result)
    return result


def labeled_commands(root: Command) -> Tuple[LabeledCommand, ...]:
    """All labeled (non-Seq) commands in the tree, preorder."""
    return tuple(c for c in root.walk() if isinstance(c, LabeledCommand))


def mitigates(root: Command) -> Tuple[Mitigate, ...]:
    """All mitigate commands in the tree, preorder."""
    return tuple(c for c in root.walk() if isinstance(c, Mitigate))


def step_exprs(cmd: Command) -> Tuple[Expr, ...]:
    """The expressions ``cmd`` evaluates in its own step, in evaluation
    order (cf. ``vars1``); ``()`` for ``skip`` and sequences."""
    if isinstance(cmd, Assign):
        return (cmd.expr,)
    if isinstance(cmd, ArrayAssign):
        return (cmd.index, cmd.expr)
    if isinstance(cmd, (If, While)):
        return (cmd.cond,)
    if isinstance(cmd, Sleep):
        return (cmd.duration,)
    if isinstance(cmd, Mitigate):
        return (cmd.budget,)
    return ()


def program_variables(root: Command) -> FrozenSet[str]:
    """Every variable or array name mentioned anywhere in the program."""
    names: set = set()
    for cmd in root.walk():
        if isinstance(cmd, LabeledCommand):
            names |= cmd.vars1()
        if isinstance(cmd, (If, While)):
            names |= cmd.cond.variables()
        if isinstance(cmd, Mitigate):
            names |= cmd.budget.variables()
    return frozenset(names)
