"""Automatic mitigate placement.

Sec. 5 of the paper: "the type system isolates the places where timing needs
to be controlled externally.  These places are where mitigate commands are
needed."  This module makes that actionable: given an ill-typed program,
:func:`auto_mitigate` inserts the smallest trailing ``mitigate`` wrappers
that make it typecheck, and :func:`suggest_mitigations` reports the same
placements without rewriting.

The algorithm walks each sequential block the way the checker does, tracking
the timing start-label.  When a command fails *because of the timing label*
(it would typecheck if the timing start-label were rolled back to an earlier
point of the block), the maximal guilty suffix of the preceding commands is
wrapped in one ``mitigate (1, l) { ... }`` whose level ``l`` is the wrapped
region's timing end-label -- the least level T-MTG accepts.  Failures that
are not timing-induced (explicit flows, implicit flows, pc/write-label
violations) cannot be fixed by mitigation and are re-raised.

The inserted budget is the placeholder ``1``; calibrate it afterwards (cf.
Sec. 8.2's 110%-of-average policy, ``repro.apps.*.calibrate_budget``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from ..lang import ast
from ..lattice import Label
from .environment import SecurityEnvironment
from .errors import TypingError
from .typing import TypeChecker

#: A per-placement budget policy: either one integer for every inserted
#: mitigate, or a callable ``(body, level) -> int`` (e.g. the synthesizer
#: feeding static worst-case body costs back in).
BudgetPolicy = Union[int, Callable[[ast.Command, Label], int]]


@dataclass(frozen=True)
class Placement:
    """One suggested mitigate insertion."""

    level: Label
    wrapped: Tuple[ast.Command, ...]
    before: Optional[ast.Command]

    def describe(self) -> str:
        """One-line human-readable description of the insertion."""
        kinds = ", ".join(type(c).__name__ for c in self.wrapped)
        target = (
            f"before {type(self.before).__name__} node "
            f"{self.before.node_id}"
            if isinstance(self.before, ast.LabeledCommand)
            else "at the end of the block"
        )
        return (
            f"wrap [{kinds}] in mitigate(_, {self.level.name}) {target}"
        )


class UnmitigatableError(TypingError):
    """The program's errors are not timing-induced; mitigation cannot help."""


def _unrepairable(reason: str, original: TypingError) -> UnmitigatableError:
    """Give up on ``original`` for ``reason``, located once: at the
    command ``original`` names."""
    rule = f"[{original.rule}] " if original.rule else ""
    return UnmitigatableError(f"{reason}: {rule}{original.message}",
                              original.command)


class _Repairer:
    def __init__(self, gamma: SecurityEnvironment,
                 budget: BudgetPolicy = 1):
        self.gamma = gamma
        self.lattice = gamma.lattice
        self.placements: List[Placement] = []
        self.budget = budget

    def _budget_for(self, body: ast.Command, level: Label) -> int:
        if callable(self.budget):
            return max(int(self.budget(body, level)), 1)
        return max(int(self.budget), 1)

    # -- checking helpers ---------------------------------------------------

    def _end_label(self, cmd: ast.Command, pc: Label, start: Label) -> Label:
        checker = TypeChecker(self.gamma)
        checker.info = _fresh_info(self.lattice)
        return checker.check(cmd, pc, start)

    def _typechecks(self, cmd: ast.Command, pc: Label, start: Label) -> bool:
        try:
            self._end_label(cmd, pc, start)
            return True
        except TypingError:
            return False

    # -- block repair ---------------------------------------------------------

    def repair_block(
        self, commands: List[ast.Command], pc: Label, start: Label
    ) -> Tuple[List[ast.Command], Label]:
        """Repair one flattened sequential block; returns (commands, end)."""
        out: List[ast.Command] = []
        # taints[i] = timing start-label before out[i].
        taints: List[Label] = []
        taint = start
        for cmd in commands:
            cmd = self._repair_subcommands(cmd, pc, taint)
            try:
                new_taint = self._end_label(cmd, pc, taint)
            except TypingError as err:
                # Fold the guilty suffix of `out` into a mitigate (mutating
                # out/taints), leaving the timing label rolled back.
                taint = self._wrap_suffix(out, taints, taint, cmd, pc, err)
                new_taint = self._end_label(cmd, pc, taint)
            out.append(cmd)
            taints.append(taint)
            taint = new_taint
        return out, taint

    def _repair_subcommands(
        self, cmd: ast.Command, pc: Label, taint: Label
    ) -> ast.Command:
        """Recursively repair branch/loop/mitigate bodies."""
        join = self.lattice.join
        if isinstance(cmd, ast.If):
            guard = self.gamma.label_of_expr(cmd.cond)
            inner_pc = join(pc, guard)
            lr = cmd.read_label if cmd.read_label else self.lattice.bottom
            inner_start = join(taint, guard, lr)
            cmd.then_branch = self._repair_into(
                cmd.then_branch, inner_pc, inner_start
            )
            cmd.else_branch = self._repair_into(
                cmd.else_branch, inner_pc, inner_start
            )
        elif isinstance(cmd, ast.While):
            guard = self.gamma.label_of_expr(cmd.cond)
            inner_pc = join(pc, guard)
            lr = cmd.read_label if cmd.read_label else self.lattice.bottom
            cmd.body = self._repair_into(
                cmd.body, inner_pc, join(taint, guard, lr)
            )
        elif isinstance(cmd, ast.Mitigate):
            lr = cmd.read_label if cmd.read_label else self.lattice.bottom
            budget = self.gamma.label_of_expr(cmd.budget)
            cmd.body = self._repair_into(
                cmd.body, pc, self.lattice.join(taint, budget, lr)
            )
        return cmd

    def _repair_into(
        self, cmd: ast.Command, pc: Label, start: Label
    ) -> ast.Command:
        commands, _ = self.repair_block(_flatten(cmd), pc, start)
        return ast.seq(*commands)

    def _wrap_suffix(
        self,
        out: List[ast.Command],
        taints: List[Label],
        taint: Label,
        failing: ast.Command,
        pc: Label,
        original: TypingError,
    ) -> Label:
        """Wrap the maximal guilty suffix of ``out`` so ``failing`` checks.

        Mutates ``out``/``taints`` in place (the suffix is replaced by one
        mitigate command) and returns the timing label after the wrapper.
        """
        # Find the latest cut j such that rolling the timing label back to
        # taints[j] lets the failing command typecheck (minimal wrap).
        cut = None
        for j in range(len(out) - 1, -1, -1):
            if self._typechecks(failing, pc, taints[j]):
                cut = j
                break
        if cut is None:
            # Even a full rollback does not help (or nothing precedes the
            # failure): the error is not timing-induced.
            raise _unrepairable(
                "this type error cannot be repaired by inserting mitigate "
                "commands", original,
            )
        cut_taint = taints[cut]
        suffix = out[cut:]
        del out[cut:]
        del taints[cut:]
        body = ast.seq(*suffix)
        level = self._end_label(body, pc, cut_taint)
        wrapper = ast.Mitigate(
            budget=ast.IntLit(self._budget_for(body, level)),
            level=level,
            body=body,
            # Inferred-style timing labels: the wrapper runs in this pc.
            read_label=pc,
            write_label=pc,
        )
        self.placements.append(
            Placement(level=level, wrapped=tuple(suffix), before=failing)
        )
        out.append(wrapper)
        taints.append(cut_taint)
        new_taint = self._end_label(wrapper, pc, cut_taint)
        if not self._typechecks(failing, pc, new_taint):
            raise _unrepairable(
                "mitigation insertion did not unblock the command", original,
            )
        return new_taint


def _flatten(cmd: ast.Command) -> List[ast.Command]:
    if isinstance(cmd, ast.Seq):
        return _flatten(cmd.first) + _flatten(cmd.second)
    return [cmd]


def _fresh_info(lattice):
    from .typing import TypingInfo

    return TypingInfo(end_label=lattice.bottom)


def auto_mitigate(
    program: ast.Command,
    gamma: SecurityEnvironment,
    pc: Optional[Label] = None,
    budget: BudgetPolicy = 1,
) -> Tuple[ast.Command, List[Placement]]:
    """Insert mitigate commands until the program typechecks.

    The program must already be label-annotated (run inference first).
    ``budget`` sets the inserted initial estimates: an int applied to
    every wrapper, or a callable ``(body, level) -> int`` so a caller
    with cost facts (the ``repro tune`` synthesizer) can calibrate each
    site.  Returns the rewritten program and the list of placements.
    Raises :class:`UnmitigatableError` when the errors are not
    timing-induced.
    """
    lattice = gamma.lattice
    repairer = _Repairer(gamma, budget=budget)
    commands, _ = repairer.repair_block(
        _flatten(program),
        pc if pc is not None else lattice.bottom,
        lattice.bottom,
    )
    return ast.seq(*commands), repairer.placements


def suggest_mitigations(
    program: ast.Command,
    gamma: SecurityEnvironment,
    pc: Optional[Label] = None,
) -> List[Placement]:
    """The placements :func:`auto_mitigate` would make, computed on a
    throwaway structural copy so the input program is untouched."""
    from ..lang.parser import parse
    from ..lang.pretty import pretty

    clone = parse(pretty(program), gamma.lattice)
    _, placements = auto_mitigate(clone, gamma, pc=pc)
    return placements
