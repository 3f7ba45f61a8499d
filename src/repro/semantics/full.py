"""The full (timed) semantics: configurations ``(c, m, E, G)``.

This interpreter executes programs over a concrete
:class:`~repro.hardware.interface.MachineEnvironment`, producing final
memory, final environment, elapsed global time, the observable assignment
events, and the mitigate vector.  It is one particular "full semantics" in
the paper's sense -- the paper deliberately axiomatizes the class of
acceptable full semantics (Properties 1-7) rather than fixing one; the
checkers in :mod:`repro.semantics.faithfulness` and
:mod:`repro.hardware.contract` validate that this interpreter over each
secure hardware model inhabits that class.

How a step is charged
---------------------

Every labeled command executes in one evaluation step (matching Fig. 2's
granularity).  The interpreter resolves the step's
:class:`~repro.machine.layout.AccessTrace` -- the command's instruction
address plus the data addresses of exactly the ``vars1`` reads and the
written location -- and hands it to the hardware together with the command's
read/write labels.  The hardware returns the step's cost and updates itself.

Two constructs bypass the hardware:

* ``sleep e`` takes exactly ``max(e, 0)`` cycles (Property 4 demands
  equality, so no fetch or data cost may be added);
* mitigation bookkeeping (the Fig. 6 auxiliary commands, labeled [bot, top]
  in the paper) is charged as pure padding: the exit step costs exactly the
  padding needed to stretch the block to its prediction.

Sequential composition adds no cost of its own (Property 3).

How a program runs
------------------

Each :meth:`Interpreter.run` compiles the program once, in one preorder
walk, into one closure per labeled command.  Everything static is
resolved then: labels, instruction and data addresses, operator
functions, and the store cells expressions read.  A step whose
expressions read no array element gets its access trace built at compile
time (``if``/``while`` get one per branch outcome); only array-touching
steps assemble a trace as they run.  The run loop pops closures off an
explicit continuation stack -- a branch pushes the chosen block, a loop
pushes itself under its body, a ``mitigate`` pushes its exit under its
body -- so it walks no AST.  Compilation is per run, never cached: label
inference rewrites labels in place, so a program's labels can change
between runs.  What cannot be resolved (a missing label, a name the
layout does not place) compiles to a step that raises only when reached,
after evaluating the command's expressions (whose own errors come
first), so an unlabeled dead branch still runs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from time import perf_counter_ns
from typing import Callable, List, Mapping, Optional, Tuple

from ..lang import ast
from ..lattice import Label
from ..machine.layout import AccessTrace, Layout
from ..machine.memory import Memory
from ..hardware.interface import MachineEnvironment, StepKind
from ..telemetry.recorder import TraceRecorder
from .core import (
    OPERATORS, _apply, _read_out_of_bounds, _write_out_of_bounds,
    eval_expr_traced,
)
from .events import Event, MitigationRecord
from .mitigation import MitigationState

#: A compiled expression: evaluates against the run's store.
Code = Callable[[], int]
#: A compiled labeled command: performs one step.
Step = Callable[[], None]

SKIP, ASSIGN, BRANCH, MITIGATE = (
    StepKind.SKIP, StepKind.ASSIGN, StepKind.BRANCH, StepKind.MITIGATE)


class SemanticsError(RuntimeError):
    """Raised when a program cannot be executed under the full semantics
    (e.g. a command is missing its timing labels)."""


@dataclass
class ExecutionResult:
    """Everything one run produces."""

    memory: Memory
    environment: MachineEnvironment
    time: int
    events: Tuple[Event, ...]
    mitigations: Tuple[MitigationRecord, ...]
    steps: int

    def final_time(self) -> int:
        """The final global clock ``G`` (alias of ``time``)."""
        return self.time


@dataclass
class Interpreter:
    """Executes one program under the full semantics.

    Parameters
    ----------
    program:
        A fully label-annotated command (run label inference first if the
        source used ``_`` placeholders).
    memory, environment:
        The initial ``m`` and ``E``; both are mutated in place.
    layout:
        Address layout; built automatically from the program and memory
        when omitted.
    mitigation:
        Predictor state (scheme + penalty policy); fresh fast-doubling/local
        state when omitted.
    mitigate_pc:
        Optional map from mitigate id to its static ``pc`` label, as
        computed by the type checker; attached to mitigation records so the
        Sec. 6.3 projections can run.
    recorder:
        Optional :class:`~repro.telemetry.recorder.TraceRecorder` observing
        the run (combine several sinks with
        :func:`~repro.telemetry.recorder.combine`); ``None`` observes
        nothing and reads no clock.
    """

    program: ast.Command
    memory: Memory
    environment: MachineEnvironment
    layout: Optional[Layout] = None
    mitigation: Optional[MitigationState] = None
    mitigate_pc: Mapping[str, Label] = field(default_factory=dict)
    max_steps: int = 10_000_000
    recorder: Optional[TraceRecorder] = None

    def __post_init__(self) -> None:
        if self.layout is None:
            self.layout = Layout.build(self.program, self.memory)
        if self.mitigation is None:
            self.mitigation = MitigationState()
        # Thread the run's telemetry through every layer that advances or
        # explains the clock: hardware (one hit/miss burst per step) and the
        # mitigation runtime (Miss[l] transitions).  Always assigned, so an
        # unrecorded run detaches the previous run's.
        self._hw = defaultdict(int) if self.recorder is not None else None
        self.environment.attach_hw(self._hw)
        self.mitigation.recorder = self.recorder
        self.time = 0
        self.steps = 0
        self.events: List[Event] = []
        self.records: List[MitigationRecord] = []

    def _charge(self, kind: StepKind, trace: AccessTrace,
                read_label: Label, write_label: Label) -> None:
        """Charge one hardware step and advance the clock: every labeled
        step but ``sleep`` comes through here, so this is the one place a
        step checks for a recorder.  Recorded, it hands the step's
        hardware burst to ``on_step`` and clears it."""
        recorder = self.recorder
        if recorder is None:
            self.time += self.environment.step(kind, trace, read_label,
                                               write_label)
            return
        started = perf_counter_ns()
        cost = self.environment.step(kind, trace, read_label, write_label)
        wall_ns = perf_counter_ns() - started
        self.time += cost
        hw = self._hw
        recorder.on_step(kind, cost, self.time, wall_ns, hw)
        hw.clear()

    def _finish_mitigation(self, mit_id: str, level: Label, estimate: int,
                           start_time: int,
                           pc_label: Optional[Label]) -> None:
        """The exit step of a mitigate block (Fig. 6's ``update`` and
        padding ``sleep``, fused into one step)."""
        elapsed = self.time - start_time
        recorder = self.recorder
        if recorder is None:
            total = self.mitigation.settle(estimate, level, elapsed)
        else:
            started = perf_counter_ns()
            total = self.mitigation.settle(estimate, level, elapsed)
            wall_ns = perf_counter_ns() - started
        # Pad the block to exactly its (possibly just-inflated) prediction.
        self.time = start_time + total
        self.records.append(
            MitigationRecord(
                mit_id=mit_id,
                level=level,
                start_time=start_time,
                end_time=self.time,
                pc_label=pc_label,
            )
        )
        if recorder is not None:
            recorder.on_mitigation(
                mit_id=mit_id,
                level=level,
                estimate=estimate,
                elapsed=elapsed,
                padded=total,
                misses=self.mitigation.misses(level),
                pc_label=pc_label,
                end_time=self.time,
                wall_ns=wall_ns,
            )

    # -- driving --------------------------------------------------------------------

    def run(self) -> ExecutionResult:
        """Run to completion (or raise ``TimeoutError`` after ``max_steps``)."""
        recorder = self.recorder
        if recorder is not None:
            # Span boundary: the run timeline opens at global clock 0.
            recorder.on_run_start({
                "hardware": type(self.environment).__name__,
                "mitigation": self.mitigation.describe(),
            })
        stack = _Compiler(self).load(self.program)
        pop = stack.pop
        steps, max_steps = self.steps, self.max_steps
        try:
            while stack:
                if steps >= max_steps:
                    raise TimeoutError(
                        f"program did not terminate within {max_steps} steps"
                    )
                pop()()
                steps += 1
        except BaseException as error:
            if recorder is not None:
                recorder.on_abort(error)
            raise
        finally:
            self.steps = steps
        # Mitigate vectors are ordered by completion time; records are
        # appended at completion so they already are, but make it explicit.
        self.records.sort(key=lambda r: r.end_time)
        result = ExecutionResult(
            memory=self.memory,
            environment=self.environment,
            time=self.time,
            events=tuple(self.events),
            mitigations=tuple(self.records),
            steps=self.steps,
        )
        if recorder is not None:
            recorder.on_finish(result)
        return result


def _accessed(expr: ast.Expr):
    """The Var/ArrayRead nodes of ``expr`` in the order evaluation
    performs their data accesses (an element read follows its index)."""
    if isinstance(expr, ast.Var):
        yield expr
    elif isinstance(expr, ast.ArrayRead):
        yield from _accessed(expr.index)
        yield expr
    else:
        for child in expr.children():
            yield from _accessed(child)


class _Compiler:
    """Compiles one program for one run of one :class:`Interpreter`.

    Holds the run's continuation stack, which the compiled steps push
    onto, and ``reads``, the one buffer array-touching steps collect
    their data addresses in.
    """

    def __init__(self, interp: Interpreter):
        self.interp = interp
        self.memory = interp.memory
        self.scalars, self.arrays = interp.memory.stores()
        self.layout = interp.layout
        self.stack: List[Step] = []
        self.reads: List[int] = []

    def load(self, program: ast.Command) -> List[Step]:
        """The run's stack, holding ``program``'s first step on top."""
        self.stack.extend(self.block(program))
        return self.stack

    def block(self, cmd: ast.Command) -> Tuple[Step, ...]:
        """A sequence's steps, last first (ready to push)."""
        steps: List[Step] = []
        pending = [cmd]
        while pending:
            node = pending.pop()
            if isinstance(node, ast.Seq):
                pending += (node.second, node.first)
            else:
                steps.append(self.command(node))
        steps.reverse()
        return tuple(steps)

    # -- static resolution ----------------------------------------------------

    def resolve(self, cmd: ast.LabeledCommand, exprs, write=None):
        """``(error, instruction, reads, write_placement)``: the static
        half of the step's access trace, in the order the rules resolve
        it (labels, fetch address, reads, write).  ``reads`` is ``None``
        when an expression reads an array element (the addresses then
        depend on values).  ``error`` is the first resolution failure."""
        layout = self.layout
        try:
            if cmd.read_label is None or cmd.write_label is None:
                raise SemanticsError(
                    f"command {type(cmd).__name__} (node {cmd.node_id}) has "
                    "no timing labels; annotate it or run label inference "
                    "first"
                )
            instruction = layout.instruction_address(cmd.node_id)
            reads: Optional[List[int]] = []
            for expr in exprs:
                for node in _accessed(expr):
                    if isinstance(node, ast.Var):
                        address = layout.placement(node.name)[0]
                        if reads is not None:
                            reads.append(address)
                    else:
                        layout.placement(node.array)
                        reads = None
            placement = layout.placement(write) if write else None
        except (SemanticsError, KeyError) as err:
            return err, None, None, None
        return (None, instruction,
                None if reads is None else tuple(reads), placement)

    def deferred(self, exprs, error: Exception,
                 store: Optional[str] = None) -> Step:
        """A step that cannot be resolved: evaluate its expressions (with
        the reference evaluator, so they fail first if they would), check
        an array store's target, then raise the resolution error."""
        memory = self.memory

        def fail() -> None:
            values = [eval_expr_traced(e, memory)[0] for e in exprs]
            if store is not None:
                length = memory.array_length(store)
                if not 0 <= values[0] < length:
                    raise _write_out_of_bounds(store, values[0], length)
            raise error
        return fail

    # -- expressions ----------------------------------------------------------

    def expr(self, e: ast.Expr, traced: bool) -> Code:
        """Compile ``e``.  ``traced`` code appends each data address it
        reads to ``self.reads``, in evaluation order."""
        if isinstance(e, ast.IntLit):
            value = e.value
            return lambda: value
        if isinstance(e, ast.Var):
            name, scalars = e.name, self.scalars
            if name not in scalars:
                read = self.memory.read  # raises the store's own error
                return lambda: read(name)
            if not traced:
                return lambda: scalars[name]
            address = self.layout.placement(name)[0]
            append = self.reads.append

            def var() -> int:
                append(address)
                return scalars[name]
            return var
        if isinstance(e, ast.ArrayRead):
            return self.array_read(e, traced)
        if isinstance(e, ast.UnOp):
            operand = self.expr(e.operand, traced)
            if e.op == "-":
                return lambda: -operand()
            return lambda: int(operand() == 0)
        if isinstance(e, ast.BinOp):
            left = self.expr(e.left, traced)
            right = self.expr(e.right, traced)
            fn = OPERATORS.get(e.op) or partial(_apply, e.op)
            return lambda: fn(left(), right())

        def not_an_expression() -> int:
            raise TypeError(f"not an expression: {e!r}")
        return not_an_expression

    def array_read(self, e: ast.ArrayRead, traced: bool) -> Code:
        index = self.expr(e.index, traced)
        name = e.array
        cells = self.arrays.get(name)
        if cells is None:
            length = self.memory.array_length  # raises "undeclared array"

            def undeclared() -> int:
                index()
                return length(name)
            return undeclared
        n = len(cells)
        if not traced:
            def element() -> int:
                i = index()
                if 0 <= i < n:
                    return cells[i]
                raise _read_out_of_bounds(name, i, n)
            return element
        base, stride = self.layout.placement(name)
        append = self.reads.append

        def traced_element() -> int:
            i = index()
            if not 0 <= i < n:
                raise _read_out_of_bounds(name, i, n)
            append(base + stride * i)
            return cells[i]
        return traced_element

    # -- commands -------------------------------------------------------------

    def command(self, cmd: ast.Command) -> Step:
        """Compile one labeled command into its step."""
        compile_kind = self.KINDS.get(type(cmd))
        if compile_kind is None:
            def not_a_command() -> None:
                raise TypeError(f"not a command: {cmd!r}")
            return not_a_command
        return compile_kind(self, cmd)

    def reads_of(self, reads: Optional[Tuple[int, ...]]
                 ) -> Callable[[], Tuple[int, ...]]:
        """The step's read addresses: the static tuple (through a C-level
        getter), or a drain of what traced code appended this step."""
        if reads is not None:
            return repeat(reads).__next__
        buffer = self.reads

        def drain() -> Tuple[int, ...]:
            drained = tuple(buffer)
            buffer.clear()
            return drained
        return drain

    def trace_of(self, instruction: int, reads, writes=(),
                 taken: Optional[bool] = None) -> Callable[[], AccessTrace]:
        """The step's trace: prebuilt when static, else built per step."""
        if reads is not None:
            return repeat(
                AccessTrace(instruction, reads, writes, taken)).__next__
        drain = self.reads_of(None)
        return lambda: AccessTrace(instruction, drain(), writes, taken)

    def skip(self, cmd: ast.Skip) -> Step:
        error, instruction, _, _ = self.resolve(cmd, ())
        if error is not None:
            return self.deferred((), error)
        charge, lr, lw = self.interp._charge, cmd.read_label, cmd.write_label
        trace = AccessTrace(instruction)
        return lambda: charge(SKIP, trace, lr, lw)

    def sleep(self, cmd: ast.Sleep) -> Step:
        # Property 4: exactly max(n, 0) cycles, nothing else -- no fetch,
        # no data cost, so no trace and no hardware step.
        if cmd.read_label is None or cmd.write_label is None:
            error, _, _, _ = self.resolve(cmd, ())
            return self.deferred((cmd.duration,), error)
        interp = self.interp
        duration = self.expr(cmd.duration, traced=False)

        def sleep() -> None:
            cycles = max(duration(), 0)
            interp.time += cycles
            if interp.recorder is not None:
                interp.recorder.on_sleep(cycles, interp.time)
        return sleep

    def assign(self, cmd: ast.Assign) -> Step:
        exprs, target = (cmd.expr,), cmd.target
        error, instruction, reads, placement = self.resolve(
            cmd, exprs, target)
        if error is not None:
            return self.deferred(exprs, error)
        interp, charge = self.interp, self.interp._charge
        lr, lw = cmd.read_label, cmd.write_label
        value_of = self.expr(cmd.expr, traced=reads is None)
        trace_of = self.trace_of(instruction, reads, (placement[0],))
        store = (self.scalars.__setitem__ if target in self.scalars
                 else self.memory.write)  # raises the store's own error
        record = interp.events.append

        def assign() -> None:
            value = value_of()
            charge(ASSIGN, trace_of(), lr, lw)
            store(target, int(value))
            record(Event(target, value, interp.time))
        return assign

    def array_assign(self, cmd: ast.ArrayAssign) -> Step:
        exprs, array = (cmd.index, cmd.expr), cmd.array
        error, instruction, reads, placement = self.resolve(
            cmd, exprs, array)
        cells = self.arrays.get(array)
        if error is not None or cells is None:
            return self.deferred(exprs, error, store=array)
        interp, charge = self.interp, self.interp._charge
        lr, lw = cmd.read_label, cmd.write_label
        index_of = self.expr(cmd.index, traced=reads is None)
        value_of = self.expr(cmd.expr, traced=reads is None)
        reads_of = self.reads_of(reads)
        base, stride = placement
        length = len(cells)
        record = interp.events.append

        def array_assign() -> None:
            index = index_of()
            value = value_of()
            if not 0 <= index < length:
                raise _write_out_of_bounds(array, index, length)
            charge(ASSIGN, AccessTrace(instruction, reads_of(),
                                       (base + stride * index,)), lr, lw)
            cells[index] = int(value)
            record(Event(array, value, interp.time, index=index))
        return array_assign

    def guarded(self, cmd):
        """What ``if`` and ``while`` share: the step's error (if it cannot
        be resolved), its compiled guard, and its traces by outcome."""
        error, instruction, reads, _ = self.resolve(cmd, (cmd.cond,))
        if error is not None:
            return self.deferred((cmd.cond,), error), None, None
        traces = (self.trace_of(instruction, reads, taken=False),
                  self.trace_of(instruction, reads, taken=True))
        return None, self.expr(cmd.cond, traced=reads is None), traces

    def if_(self, cmd: ast.If) -> Step:
        failed, guard, traces = self.guarded(cmd)
        if failed is not None:
            return failed
        charge, lr, lw = self.interp._charge, cmd.read_label, cmd.write_label
        then_block = self.block(cmd.then_branch)
        else_block = self.block(cmd.else_branch)
        extend = self.stack.extend

        def branch() -> None:
            taken = guard() != 0
            charge(BRANCH, traces[taken](), lr, lw)
            extend(then_block if taken else else_block)
        return branch

    def while_(self, cmd: ast.While) -> Step:
        failed, guard, traces = self.guarded(cmd)
        if failed is not None:
            return failed
        charge, lr, lw = self.interp._charge, cmd.read_label, cmd.write_label
        body = self.block(cmd.body)
        push, extend = self.stack.append, self.stack.extend

        def loop() -> None:
            taken = guard() != 0
            charge(BRANCH, traces[taken](), lr, lw)
            if taken:
                push(loop)
                extend(body)
        return loop

    def mitigate(self, cmd: ast.Mitigate) -> Step:
        exprs = (cmd.budget,)
        error, instruction, reads, _ = self.resolve(cmd, exprs)
        if error is not None:
            return self.deferred(exprs, error)
        interp, charge = self.interp, self.interp._charge
        lr, lw = cmd.read_label, cmd.write_label
        budget = self.expr(cmd.budget, traced=reads is None)
        trace_of = self.trace_of(instruction, reads)
        mit_id, level = cmd.mit_id, cmd.level
        pc_label = interp.mitigate_pc.get(mit_id)
        body = self.block(cmd.body)
        push, extend = self.stack.append, self.stack.extend
        finish = interp._finish_mitigation
        predict = interp.mitigation.predict

        def mitigate() -> None:
            estimate = budget()
            charge(MITIGATE, trace_of(), lr, lw)
            if interp.recorder is not None:
                # Span boundary: the epoch opens once the head is charged,
                # carrying the runtime's current prediction for it.
                interp.recorder.on_mitigate_enter(
                    mit_id, level, estimate, predict(estimate, level),
                    interp.time)
            push(partial(finish, mit_id, level, estimate, interp.time,
                         pc_label))
            extend(body)
        return mitigate

    KINDS = {
        ast.Skip: skip,
        ast.Sleep: sleep,
        ast.Assign: assign,
        ast.ArrayAssign: array_assign,
        ast.If: if_,
        ast.While: while_,
        ast.Mitigate: mitigate,
    }


def execute(
    program: ast.Command,
    memory: Memory,
    environment: MachineEnvironment,
    layout: Optional[Layout] = None,
    mitigation: Optional[MitigationState] = None,
    mitigate_pc: Mapping[str, Label] = None,
    max_steps: int = 10_000_000,
    recorder: Optional[TraceRecorder] = None,
) -> ExecutionResult:
    """Run ``program`` from ``(memory, environment, G=0)`` to completion.

    ``memory`` and ``environment`` are mutated; pass copies to keep the
    originals.  ``recorder`` observes the run (see :mod:`repro.telemetry`;
    a :class:`~repro.telemetry.profiling.Profiler` attributes cycles and
    wall-time to subsystems); ``None`` records nothing and costs one
    identity check per site.  See :class:`Interpreter` for the other
    parameters.
    """
    interp = Interpreter(
        program=program,
        memory=memory,
        environment=environment,
        layout=layout,
        mitigation=mitigation,
        mitigate_pc=dict(mitigate_pc or {}),
        max_steps=max_steps,
        recorder=recorder,
    )
    return interp.run()
