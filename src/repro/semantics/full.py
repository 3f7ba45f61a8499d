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

Each step tests the run's recorder itself.  Without one, it calls the
hardware's ``step`` directly and adds the cost to the clock; with one, it
goes through :meth:`_RunState.charge`, which also counts the step into the
run's totals and feeds a sink that consumes ``on_step``.  Both paths make
the same hardware call with the same arguments, so a recorder never
changes a cycle.

Two constructs bypass the hardware:

* ``sleep e`` takes exactly ``max(e, 0)`` cycles (Property 4 demands
  equality, so no fetch or data cost may be added);
* mitigation bookkeeping (the Fig. 6 auxiliary commands, labeled [bot, top]
  in the paper) is charged as pure padding: the exit step costs exactly the
  padding needed to stretch the block to its prediction.

Sequential composition adds no cost of its own (Property 3).

How a program runs
------------------

An :class:`Interpreter` compiles its program once, at construction, in
one preorder walk, into one closure per labeled command.  Everything
static is resolved then: labels, instruction and data addresses,
operator functions, and the store cells expressions read.  A step whose
expressions read no array element gets its access trace built at compile
time (``if``/``while`` get one per branch outcome); only array-touching
steps assemble a trace as they run.  The run loop pops closures off an
explicit continuation stack -- a branch pushes the chosen block, a loop
pushes itself under its body, a ``mitigate`` pushes its exit under its
body -- so it walks no AST.  What cannot be resolved (a missing label, a
name the layout does not place) compiles to a step that raises only when
reached, after evaluating the command's expressions (whose own errors
come first), so an unlabeled dead branch still runs.

The compiled code is kept for every run on a memory of the same shape
(scalar names, array names and array lengths): :meth:`Interpreter.bind`
points it at the next run's memory, hardware, mitigation state and
recorder, and each run resets the clock, the events and the mitigation
records.  The steps read and write stores the interpreter owns; a run
copies the caller's values in and the final values back out, so the
caller's memory is still mutated in place.  Label inference rewrites
labels in place, so reuse is only sound once the labels are fixed
(:class:`repro.api.CompiledProgram` reuses its interpreter; :func:`execute`
compiles for one run).  The steps capture the run's state, never the
interpreter, and a loop refers to itself weakly, so compiled code forms
no reference cycle: a dropped interpreter is freed at once.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from time import perf_counter_ns
from typing import Callable, List, Mapping, Optional, Tuple
from weakref import ref

from ..lang import ast
from ..lattice import Label
from ..machine.layout import AccessTrace, Layout
from ..machine.memory import Memory
from ..hardware.interface import MachineEnvironment, StepKind
from ..telemetry.recorder import TraceRecorder, overrides
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


#: An assignment event as a run records it: ``(name, value, time, index)``,
#: the fields of an :class:`Event` in order.
EventRecord = Tuple[str, int, int, Optional[int]]


@dataclass
class ExecutionResult:
    """Everything one run produces.

    A run records its assignment events as plain ``event_records``;
    :attr:`events` builds the :class:`Event` tuple from them on first read
    and keeps it, so a run whose events nobody reads builds none.  Results
    compare by the records, which is the same as comparing the events."""

    memory: Memory
    environment: MachineEnvironment
    time: int
    event_records: Tuple[EventRecord, ...]
    mitigations: Tuple[MitigationRecord, ...]
    steps: int

    @cached_property
    def events(self) -> Tuple[Event, ...]:
        """The observable assignment events ``(x, v, t)``, in order."""
        return tuple(Event(*record) for record in self.event_records)

    def final_time(self) -> int:
        """The final global clock ``G`` (alias of ``time``)."""
        return self.time


class _RunState:
    """What the compiled steps read and write while a run is in progress:
    the clock, ``step`` (the run's hardware model's bound ``step``
    method), the run's mitigation state and recorder, its events as
    :data:`EventRecord` tuples and its mitigation records, the
    continuation stack and ``reads``, the one buffer array-touching steps
    collect their data addresses in.

    A recorded run also keeps the totals its sinks receive through
    ``on_totals``: ``steps`` by kind value, machine ``cycles`` and
    ``totals``, the hardware counts.  ``on_step`` is the recorder's
    ``on_step`` when a sink consumes it, else ``None``; then ``hw``, the
    dict the hardware counts into, is ``totals`` itself.

    The steps capture this state and its bound methods, never the
    :class:`Interpreter` that owns them, so the compiled code is not
    reachable from what it captures.  The state holds no bound method of
    its own (that would be a cycle through the state itself).
    """

    __slots__ = ("time", "step", "mitigation", "recorder", "on_step", "hw",
                 "totals", "steps", "cycles", "events", "records", "stack",
                 "reads", "__weakref__")

    def __init__(self) -> None:
        self.time = 0
        self.step: Optional[Callable[..., int]] = None
        self.mitigation: Optional[MitigationState] = None
        self.recorder: Optional[TraceRecorder] = None
        self.on_step = None
        self.hw = self.totals = self.steps = None
        self.cycles = 0
        self.events: List[EventRecord] = []
        self.records: List[MitigationRecord] = []
        self.stack: List[Step] = []
        self.reads: List[int] = []

    def charge(self, kind: StepKind, trace: AccessTrace,
               read_label: Label, write_label: Label) -> None:
        """Charge one hardware step of a recorded run and advance the
        clock.  An unrecorded step never comes here: it calls the
        hardware's ``step`` itself.  This one also counts the step into
        the run's totals; only when a sink consumes ``on_step`` does it
        time the hardware, hand that sink the step's burst and fold the
        burst into the totals."""
        on_step = self.on_step
        if on_step is None:
            cost = self.step(kind, trace, read_label, write_label)
            self.time += cost
            self.cycles += cost
            self.steps[kind._value_] += 1
            return
        started = perf_counter_ns()
        cost = self.step(kind, trace, read_label, write_label)
        wall_ns = perf_counter_ns() - started
        self.time += cost
        self.cycles += cost
        self.steps[kind._value_] += 1
        hw, totals = self.hw, self.totals
        on_step(kind, cost, self.time, wall_ns, hw)
        for key, count in hw.items():
            totals[key] += count
        hw.clear()

    def deliver(self) -> None:
        """Hand the run's totals to the recorder and start them afresh."""
        self.recorder.on_totals(self.steps, self.cycles, self.totals)
        self.steps.clear()
        self.cycles = 0
        self.totals.clear()

    def finish_mitigation(self, mit_id: str, level: Label, estimate: int,
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
                estimate=estimate,
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


@dataclass
class Interpreter:
    """Executes one program under the full semantics.

    Construction compiles the program for ``memory``'s shape and sets up
    its first run; :meth:`run` runs it.  :meth:`bind` sets up another run
    of the same compiled code.

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
        self._store = self.memory.copy()
        self._state = _RunState()
        self._code = _Compiler(self._state, self._store, self.layout,
                               self.mitigate_pc).block(self.program)
        self._attach()

    def fits(self, memory: Memory) -> bool:
        """Was this interpreter compiled for ``memory``'s shape: the same
        scalar names, array names and array lengths?"""
        scalars, arrays = memory.stores()
        own_scalars, own_arrays = self._store.stores()
        return (scalars.keys() == own_scalars.keys()
                and arrays.keys() == own_arrays.keys()
                and all(len(arrays[name]) == len(cells)
                        for name, cells in own_arrays.items()))

    def bind(self, memory: Memory, environment: MachineEnvironment,
             mitigation: Optional[MitigationState], max_steps: int,
             recorder: Optional[TraceRecorder]) -> None:
        """Set up the next :meth:`run` of the compiled code on ``memory``,
        which must :meth:`fit <fits>`; the other arguments are as for the
        constructor."""
        self.memory, self.environment = memory, environment
        self.mitigation, self.max_steps = mitigation, max_steps
        self.recorder = recorder
        self._attach()

    def _attach(self) -> None:
        if self.mitigation is None:
            self.mitigation = MitigationState()
        # Thread the run's telemetry through every layer that advances or
        # explains the clock: hardware (its hit/miss counts) and the
        # mitigation runtime (Miss[l] transitions).  Always assigned, so an
        # unrecorded run detaches the previous run's.  Recorded, the
        # hardware counts straight into the run's totals unless a sink
        # consumes each step's burst.
        state, recorder = self._state, self.recorder
        if recorder is None:
            state.hw = state.on_step = None
        else:
            state.on_step = (recorder.on_step
                             if overrides(recorder, "on_step") else None)
            state.steps, state.totals = defaultdict(int), defaultdict(int)
            state.hw = (state.totals if state.on_step is None
                        else defaultdict(int))
        self.environment.attach_hw(state.hw)
        self.mitigation.recorder = recorder
        state.step, state.mitigation = self.environment.step, self.mitigation
        state.recorder = recorder

    # -- driving --------------------------------------------------------------------

    def run(self) -> ExecutionResult:
        """Run to completion (or raise ``TimeoutError`` after ``max_steps``)."""
        state = self._state
        recorder = state.recorder
        if recorder is not None:
            # Span boundary: the run timeline opens at global clock 0.
            recorder.on_run_start({
                "hardware": self.environment.describe(),
                "mitigation": self.mitigation.describe(),
            })
        state.time = 0
        state.events.clear()
        state.records.clear()
        _copy_values(self.memory, self._store)
        stack = state.stack
        stack.extend(self._code)
        pop = stack.pop
        steps, max_steps = 0, self.max_steps
        try:
            while stack:
                if steps >= max_steps:
                    raise TimeoutError(
                        f"program did not terminate within {max_steps} steps"
                    )
                pop()()
                steps += 1
        except BaseException as error:
            # An aborted run leaves steps on the stack and addresses in
            # the read buffer; drop them so the next run starts clean.
            stack.clear()
            state.reads.clear()
            if recorder is not None:
                state.deliver()
                recorder.on_abort(error)
            raise
        finally:
            _copy_values(self._store, self.memory)
        # Mitigate vectors are ordered by completion time; records are
        # appended at completion so they already are, but make it explicit.
        state.records.sort(key=lambda r: r.end_time)
        result = ExecutionResult(
            memory=self.memory,
            environment=self.environment,
            time=state.time,
            event_records=tuple(state.events),
            mitigations=tuple(state.records),
            steps=steps,
        )
        if recorder is not None:
            state.deliver()
            recorder.on_finish(result)
        return result


def _copy_values(source: Memory, target: Memory) -> None:
    """Copy every value of ``source`` into ``target``, a memory of the same
    shape, keeping ``target``'s array lists (compiled code holds them)."""
    scalars, arrays = source.stores()
    target_scalars, target_arrays = target.stores()
    target_scalars.update(scalars)
    for name, cells in target_arrays.items():
        cells[:] = arrays[name]


#: A binary operator's closure by its operands' kinds (see
#: :meth:`_Compiler.operand`): ``fn`` the operator, ``s`` the scalar
#: store, ``a``/``b`` the left/right payloads.
_BINARY = {
    ("lit", "lit"): lambda fn, s, a, b: lambda: fn(a, b),
    ("lit", "var"): lambda fn, s, a, b: lambda: fn(a, s[b]),
    ("lit", "code"): lambda fn, s, a, b: lambda: fn(a, b()),
    ("var", "lit"): lambda fn, s, a, b: lambda: fn(s[a], b),
    ("var", "var"): lambda fn, s, a, b: lambda: fn(s[a], s[b]),
    ("var", "code"): lambda fn, s, a, b: lambda: fn(s[a], b()),
    ("code", "lit"): lambda fn, s, a, b: lambda: fn(a(), b),
    ("code", "var"): lambda fn, s, a, b: lambda: fn(a(), s[b]),
    ("code", "code"): lambda fn, s, a, b: lambda: fn(a(), b()),
}


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
    """Compiles one program against one memory's stores and layout into
    steps that drive ``state``, a :class:`_RunState`."""

    def __init__(self, state: _RunState, memory: Memory, layout: Layout,
                 mitigate_pc: Mapping[str, Label]):
        self.state = state
        self.memory = memory
        self.scalars, self.arrays = memory.stores()
        self.layout = layout
        self.mitigate_pc = mitigate_pc

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
            # Without its traceback the error holds no compile frame, so
            # the step that raises it forms no reference cycle.
            return err.with_traceback(None), None, None, None
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
        reads to the run state's ``reads``, in evaluation order."""
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
            append = self.state.reads.append

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
            left_kind, left = self.operand(e.left, traced)
            right_kind, right = self.operand(e.right, traced)
            fn = OPERATORS.get(e.op) or partial(_apply, e.op)
            return _BINARY[left_kind, right_kind](fn, self.scalars, left,
                                                  right)

        def not_an_expression() -> int:
            raise TypeError(f"not an expression: {e!r}")
        return not_an_expression

    def operand(self, e: ast.Expr, traced: bool):
        """A binary operand as ``(kind, payload)``: a literal as ``"lit"``
        and its value, an untraced read of a stored scalar as ``"var"``
        and its name (neither can fail, so folding them into the
        operator's closure keeps evaluation order and errors), anything
        else as ``"code"`` and its compiled code."""
        if isinstance(e, ast.IntLit):
            return "lit", e.value
        if isinstance(e, ast.Var) and not traced and e.name in self.scalars:
            return "var", e.name
        return "code", self.expr(e, traced)

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
        append = self.state.reads.append

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
        buffer = self.state.reads

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
        state, charge = self.state, self.state.charge
        lr, lw = cmd.read_label, cmd.write_label
        trace = AccessTrace(instruction)

        def skip() -> None:
            if state.recorder is None:
                state.time += state.step(SKIP, trace, lr, lw)
            else:
                charge(SKIP, trace, lr, lw)
        return skip

    def sleep(self, cmd: ast.Sleep) -> Step:
        # Property 4: exactly max(n, 0) cycles, nothing else -- no fetch,
        # no data cost, so no trace and no hardware step.
        if cmd.read_label is None or cmd.write_label is None:
            error, _, _, _ = self.resolve(cmd, ())
            return self.deferred((cmd.duration,), error)
        state = self.state
        duration = self.expr(cmd.duration, traced=False)

        def sleep() -> None:
            cycles = max(duration(), 0)
            state.time += cycles
            if state.recorder is not None:
                state.recorder.on_sleep(cycles, state.time)
        return sleep

    def assign(self, cmd: ast.Assign) -> Step:
        exprs, target = (cmd.expr,), cmd.target
        error, instruction, reads, placement = self.resolve(
            cmd, exprs, target)
        if error is not None:
            return self.deferred(exprs, error)
        state, charge = self.state, self.state.charge
        lr, lw = cmd.read_label, cmd.write_label
        value_of = self.expr(cmd.expr, traced=reads is None)
        trace_of = self.trace_of(instruction, reads, (placement[0],))
        store = (self.scalars.__setitem__ if target in self.scalars
                 else self.memory.write)  # raises the store's own error
        record = state.events.append

        def assign() -> None:
            value = value_of()
            if state.recorder is None:
                state.time += state.step(ASSIGN, trace_of(), lr, lw)
            else:
                charge(ASSIGN, trace_of(), lr, lw)
            store(target, int(value))
            record((target, value, state.time, None))
        return assign

    def array_assign(self, cmd: ast.ArrayAssign) -> Step:
        exprs, array = (cmd.index, cmd.expr), cmd.array
        error, instruction, reads, placement = self.resolve(
            cmd, exprs, array)
        cells = self.arrays.get(array)
        if error is not None or cells is None:
            return self.deferred(exprs, error, store=array)
        state, charge = self.state, self.state.charge
        lr, lw = cmd.read_label, cmd.write_label
        index_of = self.expr(cmd.index, traced=reads is None)
        value_of = self.expr(cmd.expr, traced=reads is None)
        reads_of = self.reads_of(reads)
        base, stride = placement
        length = len(cells)
        record = state.events.append

        def array_assign() -> None:
            index = index_of()
            value = value_of()
            if not 0 <= index < length:
                raise _write_out_of_bounds(array, index, length)
            trace = AccessTrace(instruction, reads_of(),
                                (base + stride * index,))
            if state.recorder is None:
                state.time += state.step(ASSIGN, trace, lr, lw)
            else:
                charge(ASSIGN, trace, lr, lw)
            cells[index] = int(value)
            record((array, value, state.time, index))
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
        state, charge = self.state, self.state.charge
        lr, lw = cmd.read_label, cmd.write_label
        then_block = self.block(cmd.then_branch)
        else_block = self.block(cmd.else_branch)
        extend = state.stack.extend

        def branch() -> None:
            taken = guard() != 0
            if state.recorder is None:
                state.time += state.step(BRANCH, traces[taken](), lr, lw)
            else:
                charge(BRANCH, traces[taken](), lr, lw)
            extend(then_block if taken else else_block)
        return branch

    def while_(self, cmd: ast.While) -> Step:
        failed, guard, traces = self.guarded(cmd)
        if failed is not None:
            return failed
        state, charge = self.state, self.state.charge
        lr, lw = cmd.read_label, cmd.write_label
        body = self.block(cmd.body)
        push, extend = state.stack.append, state.stack.extend

        def loop() -> None:
            taken = guard() != 0
            if state.recorder is None:
                state.time += state.step(BRANCH, traces[taken](), lr, lw)
            else:
                charge(BRANCH, traces[taken](), lr, lw)
            if taken:
                push(again())
                extend(body)
        # Weak: a strong self-reference would make every loop a cycle.
        again = ref(loop)
        return loop

    def mitigate(self, cmd: ast.Mitigate) -> Step:
        exprs = (cmd.budget,)
        error, instruction, reads, _ = self.resolve(cmd, exprs)
        if error is not None:
            return self.deferred(exprs, error)
        state, charge = self.state, self.state.charge
        lr, lw = cmd.read_label, cmd.write_label
        budget = self.expr(cmd.budget, traced=reads is None)
        trace_of = self.trace_of(instruction, reads)
        mit_id, level = cmd.mit_id, cmd.level
        pc_label = self.mitigate_pc.get(mit_id)
        body = self.block(cmd.body)
        push, extend = state.stack.append, state.stack.extend
        finish = state.finish_mitigation

        def mitigate() -> None:
            estimate = budget()
            if state.recorder is None:
                state.time += state.step(MITIGATE, trace_of(), lr, lw)
            else:
                charge(MITIGATE, trace_of(), lr, lw)
                # Span boundary: the epoch opens once the head is charged,
                # carrying the runtime's current prediction for it.
                state.recorder.on_mitigate_enter(
                    mit_id, level, estimate,
                    state.mitigation.predict(estimate, level), state.time)
            push(partial(finish, mit_id, level, estimate, state.time,
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
    """Compile ``program`` and run it once from ``(memory, environment,
    G=0)`` to completion (:class:`repro.api.CompiledProgram` keeps the
    compiled code for later runs).

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
