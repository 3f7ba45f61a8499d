"""Core semantics (Fig. 2): untimed small-step execution.

The core semantics ignores timing entirely: ``mitigate (e, l) c`` evaluates
to ``c`` and ``sleep`` behaves like ``skip``.  Its purpose in the paper is to
pin down *what the program computes*, against which the full semantics must
be adequate (Property 1).  Our full semantics reuses this module's stepping
logic, so adequacy holds by construction -- and the tests check it anyway by
running both and comparing.

Expression evaluation is total and deterministic:

* division and modulus by zero yield 0 (raising would itself be a channel);
* division truncates toward zero, and ``%`` satisfies
  ``a == (a/b)*b + a%b`` (C semantics, matching the case studies);
* shifts by negative amounts yield the left operand unchanged;
* comparisons and boolean operators yield 0/1, with any nonzero operand
  counting as true (the paper's ``n <> 0`` convention).

Array index errors (the one partiality the array extension introduces) raise
:class:`EvaluationError`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..lang import ast
from ..machine.layout import DataAccess
from ..machine.memory import Memory


class EvaluationError(RuntimeError):
    """Raised on an out-of-bounds array access."""


def _read_out_of_bounds(array: str, index: int,
                        length: int) -> EvaluationError:
    return EvaluationError(
        f"array read {array}[{index}] out of bounds (length {length})"
    )


def _write_out_of_bounds(array: str, index: int,
                         length: int) -> EvaluationError:
    return EvaluationError(
        f"array write {array}[{index}] out of bounds (length {length})"
    )


#: Syntactic marker for a finished computation.  Distinct from ``skip``,
#: which is a real command that consumes time (Sec. 3.1); ``STOP`` is pure
#: syntax and takes no time at all.
STOP = None
Continuation = Optional[ast.Command]


def _truncdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _truncmod(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a - _truncdiv(a, b) * b


def eval_expr(expr: ast.Expr, memory: Memory) -> int:
    """Big-step expression evaluation ``(e, m) => v``."""
    value, _ = eval_expr_traced(expr, memory)
    return value


def eval_expr_traced(
    expr: ast.Expr, memory: Memory
) -> Tuple[int, Tuple[DataAccess, ...]]:
    """Evaluate ``expr``, also returning the data accesses it performs.

    The access list is what the full semantics hands to the hardware model;
    it contains one entry per scalar read and per array-element read, in
    evaluation order.  Short-circuiting would make the *set* of accesses
    value-dependent, so ``&&``/``||`` evaluate both operands -- the paper's
    single-step timing model charges a whole expression at once.
    """
    accesses: list = []

    def go(e: ast.Expr) -> int:
        if isinstance(e, ast.IntLit):
            return e.value
        if isinstance(e, ast.Var):
            accesses.append(DataAccess(e.name))
            return memory.read(e.name)
        if isinstance(e, ast.ArrayRead):
            index = go(e.index)
            length = memory.array_length(e.array)
            if not 0 <= index < length:
                raise _read_out_of_bounds(e.array, index, length)
            accesses.append(DataAccess(e.array, index))
            return memory.read_elem(e.array, index)
        if isinstance(e, ast.UnOp):
            v = go(e.operand)
            return -v if e.op == "-" else int(v == 0)
        if isinstance(e, ast.BinOp):
            a = go(e.left)
            b = go(e.right)
            return _apply(e.op, a, b)
        raise TypeError(f"not an expression: {e!r}")

    value = go(expr)
    return value, tuple(accesses)


#: Binary operator semantics, by source operator.  Comparisons and the
#: boolean operators yield 0/1 ints, never bools (values land in memory
#: and events).
OPERATORS: Dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _truncdiv,
    "%": _truncmod,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": lambda a, b: a << b if b >= 0 else a,
    ">>": lambda a, b: a >> b if b >= 0 else a,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(a != 0 and b != 0),
    "||": lambda a, b: int(a != 0 or b != 0),
}


def _apply(op: str, a: int, b: int) -> int:
    fn = OPERATORS.get(op)
    if fn is None:
        raise ValueError(f"unknown operator {op!r}")  # pragma: no cover
    return fn(a, b)


@dataclass(frozen=True)
class CoreStep:
    """One core-semantics transition: the executed labeled command (if the
    step came from one -- sequencing steps are driven by their first
    component) and the resulting continuation."""

    executed: Optional[ast.LabeledCommand]
    continuation: Continuation
    assigned: Optional[Tuple[str, int]] = None


def core_step(cmd: ast.Command, memory: Memory) -> CoreStep:
    """One transition of Fig. 2.  Mutates ``memory`` for assignments.

    Returns the new continuation (``STOP`` when the command finished) and
    identifies which labeled command fired, which the full semantics uses to
    attach labels, addresses, and costs.
    """
    if isinstance(cmd, ast.Skip):
        return CoreStep(cmd, STOP)
    if isinstance(cmd, ast.Sleep):
        # Untimed: behaves like skip (the duration still gets evaluated by
        # the full semantics for its accesses and for Property 4).
        return CoreStep(cmd, STOP)
    if isinstance(cmd, ast.Assign):
        value = eval_expr(cmd.expr, memory)
        memory.write(cmd.target, value)
        return CoreStep(cmd, STOP, assigned=(cmd.target, value))
    if isinstance(cmd, ast.ArrayAssign):
        index = eval_expr(cmd.index, memory)
        value = eval_expr(cmd.expr, memory)
        length = memory.array_length(cmd.array)
        if not 0 <= index < length:
            raise _write_out_of_bounds(cmd.array, index, length)
        memory.write_elem(cmd.array, index, value)
        return CoreStep(cmd, STOP, assigned=(cmd.array, value))
    if isinstance(cmd, ast.If):
        branch = (
            cmd.then_branch
            if eval_expr(cmd.cond, memory) != 0
            else cmd.else_branch
        )
        return CoreStep(cmd, branch)
    if isinstance(cmd, ast.While):
        if eval_expr(cmd.cond, memory) != 0:
            return CoreStep(cmd, ast.Seq(first=cmd.body, second=cmd))
        return CoreStep(cmd, STOP)
    if isinstance(cmd, ast.Mitigate):
        # Core semantics: identity -- mitigate (e, l) c steps to c.
        return CoreStep(cmd, cmd.body)
    if isinstance(cmd, ast.Seq):
        inner = core_step(cmd.first, memory)
        if inner.continuation is STOP:
            return CoreStep(inner.executed, cmd.second, inner.assigned)
        return CoreStep(
            inner.executed,
            ast.Seq(first=inner.continuation, second=cmd.second),
            inner.assigned,
        )
    raise TypeError(f"not a command: {cmd!r}")


def run_core(
    program: ast.Command, memory: Memory, max_steps: int = 1_000_000
) -> Memory:
    """Run a program to completion under the core semantics.

    Mutates and returns ``memory``.  Raises :class:`TimeoutError` after
    ``max_steps`` transitions (the language has nonterminating programs).
    """
    current: Continuation = program
    for _ in range(max_steps):
        if current is STOP:
            return memory
        current = core_step(current, memory).continuation
    if current is STOP:
        return memory
    raise TimeoutError(f"program did not terminate within {max_steps} steps")
