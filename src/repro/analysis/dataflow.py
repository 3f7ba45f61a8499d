"""A small generic dataflow engine over the CFG.

:func:`solve` runs a forward worklist fixpoint for any :class:`Problem`,
with problem-supplied join and per-command transfer functions.  Facts start *unreached* (``None``) and only reached
predecessors are joined, which keeps optimistic analyses (constant
propagation) precise: an unreached branch contributes nothing.  All the
lattices here are finite (per-program variable sets, constants with a
two-step per-variable chain) and the transfers monotone, so the fixpoint
terminates.

Two classic problem instances ship with the engine:

* :class:`ReachingDefinitions` -- which ``(variable, node_id)`` definitions
  may reach each point; powers the step-by-step flow paths of
  ``repro lint --explain`` (:mod:`repro.analysis.flows`);
* :class:`ConstantPropagation` -- which variables are provably constant;
  powers constant-pruned reachability (:func:`repro.analysis.cfg.
  reachable_commands`), the TL018 constant-secret-branch lint, and the
  reachable Theorem 2 bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

from ..lang import ast
from ..semantics.core import _apply as _apply_binop
from .cfg import CFG, BasicBlock

Fact = Any


class Problem:
    """One forward dataflow problem: boundary, join and transfer."""

    def boundary(self) -> Fact:
        """The fact at the entry block."""
        raise NotImplementedError

    def join(self, a: Fact, b: Fact) -> Fact:
        raise NotImplementedError

    def transfer(self, cmd: ast.LabeledCommand, fact: Fact) -> Fact:
        """The fact after evaluating one command."""
        raise NotImplementedError


@dataclass
class Solution:
    """Per-block facts plus per-command replay.

    ``block_in``/``block_out`` hold the facts before the block's first
    command and after its last; ``None`` means the block was never
    reached.
    """

    problem: Problem
    cfg: CFG
    block_in: Dict[int, Optional[Fact]]
    block_out: Dict[int, Optional[Fact]]

    def before(self, node_id: int) -> Optional[Fact]:
        """The fact just before a command evaluates."""
        block_id = self.cfg.block_of.get(node_id)
        if block_id is None:
            return None
        fact = self.block_in[block_id]
        if fact is None:
            return None
        for cmd in self.cfg.blocks[block_id].commands:
            if cmd.node_id == node_id:
                return fact
            fact = self.problem.transfer(cmd, fact)
        raise KeyError(f"node {node_id} not in block {block_id}")

    def after(self, node_id: int) -> Optional[Fact]:
        """The fact just after a command evaluates."""
        fact = self.before(node_id)
        if fact is None:
            return None
        block_id = self.cfg.block_of[node_id]
        for cmd in self.cfg.blocks[block_id].commands:
            if cmd.node_id == node_id:
                return self.problem.transfer(cmd, fact)
        raise KeyError(f"node {node_id} not in block {block_id}")


def _transfer_block(problem: Problem, block: BasicBlock, fact: Fact) -> Fact:
    for cmd in block.commands:
        fact = problem.transfer(cmd, fact)
    return fact


def solve(cfg: CFG, problem: Problem) -> Solution:
    """Worklist fixpoint of ``problem`` over ``cfg``."""
    start = cfg.entry
    block_in: Dict[int, Optional[Fact]] = {b: None for b in cfg.blocks}
    block_out: Dict[int, Optional[Fact]] = {b: None for b in cfg.blocks}
    block_in[start] = problem.boundary()

    work = [start]
    while work:
        bid = work.pop(0)
        incoming = [block_out[e.src] for e in cfg.predecessors(bid)
                    if block_out[e.src] is not None]
        fact = block_in[bid] if bid == start else None
        for other in incoming:
            fact = other if fact is None else problem.join(fact, other)
        if fact is None:
            continue
        block_in[bid] = fact
        out = _transfer_block(problem, cfg.blocks[bid], fact)
        if block_out[bid] is not None and out == block_out[bid]:
            continue
        block_out[bid] = out
        for edge in cfg.successors(bid):
            if edge.dst not in work:
                work.append(edge.dst)
    return Solution(problem=problem, cfg=cfg,
                    block_in=block_in, block_out=block_out)


# -- expression helpers --------------------------------------------------------


def eval_const(
    expr: ast.Expr, env: Mapping[str, int] = {},
) -> Optional[int]:
    """Constant-fold an expression under the interpreter's own operator
    semantics, reading known-constant variables from ``env``."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.Var):
        return env.get(expr.name)
    if isinstance(expr, ast.UnOp):
        value = eval_const(expr.operand, env)
        if value is None:
            return None
        return -value if expr.op == "-" else int(value == 0)
    if isinstance(expr, ast.BinOp):
        left = eval_const(expr.left, env)
        right = eval_const(expr.right, env)
        if left is None or right is None:
            return None
        return _apply_binop(expr.op, left, right)
    return None  # ArrayRead: memory is not tracked


# -- reaching definitions ------------------------------------------------------

#: One definition: (variable name, node_id of the defining command).
Definition = Tuple[str, int]


class ReachingDefinitions(Problem):
    """Which definitions may reach each program point (forward, may)."""

    def boundary(self) -> FrozenSet[Definition]:
        return frozenset()

    def join(self, a: FrozenSet[Definition],
             b: FrozenSet[Definition]) -> FrozenSet[Definition]:
        return a | b

    def transfer(self, cmd: ast.LabeledCommand,
                 fact: FrozenSet[Definition]) -> FrozenSet[Definition]:
        if isinstance(cmd, ast.Assign):
            kept = frozenset(d for d in fact if d[0] != cmd.target)
            return kept | {(cmd.target, cmd.node_id)}
        if isinstance(cmd, ast.ArrayAssign):
            # Weak update: a store to one element does not kill the others.
            return fact | {(cmd.array, cmd.node_id)}
        return fact

    def of(self, fact: Optional[FrozenSet[Definition]],
           name: str) -> FrozenSet[int]:
        """node_ids of the reaching definitions of ``name`` in ``fact``."""
        if fact is None:
            return frozenset()
        return frozenset(node for var, node in fact if var == name)


# -- constant propagation ------------------------------------------------------

#: The fact is an immutable mapping var -> known constant; a variable
#: absent from the mapping is *not* a constant (NAC).
Constants = Tuple[Tuple[str, int], ...]


def _as_dict(fact: Constants) -> Dict[str, int]:
    return dict(fact)


def _as_fact(env: Dict[str, int]) -> Constants:
    return tuple(sorted(env.items()))


class ConstantPropagation(Problem):
    """Which integer variables are provably constant (forward, must).

    Conservative on public and secret variables alike: the analysis is
    about *values*, not labels.  A secret assigned a constant is still a
    constant -- that mismatch is exactly what TL018 reports.
    """

    def boundary(self) -> Constants:
        return ()  # nothing known at entry: every input is NAC

    def join(self, a: Constants, b: Constants) -> Constants:
        da, db = _as_dict(a), _as_dict(b)
        return _as_fact({
            name: value for name, value in da.items()
            if db.get(name) == value
        })

    def transfer(self, cmd: ast.LabeledCommand, fact: Constants) -> Constants:
        if isinstance(cmd, ast.Assign):
            env = _as_dict(fact)
            value = eval_const(cmd.expr, env)
            if value is None:
                env.pop(cmd.target, None)
            else:
                env[cmd.target] = value
            return _as_fact(env)
        return fact
