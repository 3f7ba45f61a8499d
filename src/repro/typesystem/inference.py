"""Timing-label inference (Sec. 2.2: "these timing labels could be inferred
automatically according to the type system, reducing the burden on
programmers").

The paper's evaluation labels only the *data* (Gamma); read/write labels are
then inferred as the least restrictive labels satisfying the typing rules,
and the ``lr = lw`` side condition makes the pair a single *timing label*
(Sec. 8.1-8.2).  This module fills every missing annotation with::

    lw = pc  join  (labels of array indices the command evaluates)
    lr = lw                                   (cache-usable; Sec. 5.1)

which is exactly the paper's compilation strategy: a command in a high
context runs with a high timing label (so the hardware serves it from the
high partition / in no-fill mode), and low-context commands keep the fast
low label.  ``pc <= lw`` is required by every rule and the array-index term
is required by our array extension, so this is the least write label; taking
``lr = lw`` (rather than the always-sound ``lr = bottom``) is the
performance-optimal choice on cache-based hardware, at the price of raising
timing end-labels -- when that breaks a downstream constraint the checker's
error says where a ``mitigate`` is needed.

Already-annotated commands are left untouched, so hand annotations and
inference mix freely.  Inference mutates the AST in place and returns it
(chaining style); it does *not* typecheck the result -- run
:func:`repro.typesystem.typing.typecheck` afterwards.
"""

from __future__ import annotations

from typing import Optional

from ..lang import ast
from ..lattice import Label
from .environment import SecurityEnvironment


def infer_labels(
    program: ast.Command,
    gamma: SecurityEnvironment,
    pc: Optional[Label] = None,
) -> ast.Command:
    """Fill in missing read/write labels throughout ``program``."""
    lattice = gamma.lattice
    _infer(program, gamma, pc if pc is not None else lattice.bottom)
    return program


def _index_label(gamma: SecurityEnvironment, *exprs: ast.Expr) -> Label:
    """Join of all array-index labels inside the given expressions."""
    return gamma.lattice.join_all(
        label for expr in exprs for label in gamma.array_index_labels(expr)
    )


def _fill(cmd: ast.LabeledCommand, gamma: SecurityEnvironment, pc: Label) -> None:
    lattice = gamma.lattice
    inferred = lattice.join(pc, _index_label(gamma, *ast.step_exprs(cmd)))
    if isinstance(cmd, ast.ArrayAssign):
        # The stored element's address leaks the index; fold it in.
        inferred = lattice.join(inferred, gamma.label_of_expr(cmd.index))
    if cmd.write_label is None:
        cmd.write_label = inferred
    if cmd.read_label is None:
        cmd.read_label = cmd.write_label


def _infer(cmd: ast.Command, gamma: SecurityEnvironment, pc: Label) -> None:
    lattice = gamma.lattice
    if isinstance(cmd, ast.Seq):
        _infer(cmd.first, gamma, pc)
        _infer(cmd.second, gamma, pc)
        return

    assert isinstance(cmd, ast.LabeledCommand)
    _fill(cmd, gamma, pc)

    if isinstance(cmd, ast.If):
        inner_pc = lattice.join(pc, gamma.label_of_expr(cmd.cond))
        _infer(cmd.then_branch, gamma, inner_pc)
        _infer(cmd.else_branch, gamma, inner_pc)
    elif isinstance(cmd, ast.While):
        inner_pc = lattice.join(pc, gamma.label_of_expr(cmd.cond))
        _infer(cmd.body, gamma, inner_pc)
    elif isinstance(cmd, ast.Mitigate):
        # T-MTG does not raise pc for the body.
        _infer(cmd.body, gamma, pc)
