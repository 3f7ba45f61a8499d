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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import List, Mapping, Optional, Tuple

from ..lang import ast
from ..lattice import Label
from ..machine.layout import AccessTrace, DataAccess, Layout
from ..machine.memory import Memory
from ..hardware.interface import MachineEnvironment, StepKind
from ..telemetry.recorder import TraceRecorder
from .core import EvaluationError, eval_expr_traced
from .events import Event, MitigationRecord
from .mitigation import MitigationState


class SemanticsError(RuntimeError):
    """Raised when a program cannot be executed under the full semantics
    (e.g. a command is missing its timing labels)."""


@dataclass
class _MitFrame:
    """Runtime record of an in-progress mitigate command."""

    mit_id: str
    level: Label
    estimate: int
    start_time: int
    pc_label: Optional[Label]


@dataclass(eq=False)
class _MitExit(ast.Command):
    """Internal continuation marker closing a mitigate block (Fig. 6's
    ``update``/padding-``sleep`` sequence, fused into one step)."""

    frame: _MitFrame = None  # type: ignore[assignment]

    def labeled(self) -> bool:
        """Internal marker; not a paper-level labeled command."""
        return False


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
        # Thread the run's recorder through every layer that advances or
        # explains the clock: hardware (hit/miss classification) and the
        # mitigation runtime (Miss[l] transitions).  Always assigned, so
        # an unrecorded run detaches the previous run's recorder.
        self.environment.attach_recorder(self.recorder)
        self.mitigation.recorder = self.recorder
        self.time = 0
        self.steps = 0
        self.events: List[Event] = []
        self.records: List[MitigationRecord] = []

    # -- plumbing ------------------------------------------------------------

    def _labels(self, cmd: ast.LabeledCommand) -> Tuple[Label, Label]:
        if cmd.read_label is None or cmd.write_label is None:
            raise SemanticsError(
                f"command {type(cmd).__name__} (node {cmd.node_id}) has no "
                "timing labels; annotate it or run label inference first"
            )
        return cmd.read_label, cmd.write_label

    def _trace(
        self,
        cmd: ast.LabeledCommand,
        reads: Tuple[DataAccess, ...] = (),
        writes: Tuple[DataAccess, ...] = (),
        taken: Optional[bool] = None,
    ) -> AccessTrace:
        return AccessTrace(
            instruction=self.layout.instruction_address(cmd.node_id),
            reads=tuple(self.layout.data_address(a) for a in reads),
            writes=tuple(self.layout.data_address(a) for a in writes),
            taken=taken,
        )

    def _charge(
        self,
        kind: StepKind,
        cmd: ast.LabeledCommand,
        reads: Tuple[DataAccess, ...] = (),
        writes: Tuple[DataAccess, ...] = (),
        taken: Optional[bool] = None,
    ) -> None:
        read_label, write_label = self._labels(cmd)
        trace = self._trace(cmd, reads, writes, taken=taken)
        recorder = self.recorder
        if recorder is None:
            self.time += self.environment.step(kind, trace, read_label,
                                               write_label)
            return
        started = perf_counter_ns()
        cost = self.environment.step(kind, trace, read_label, write_label)
        wall_ns = perf_counter_ns() - started
        self.time += cost
        recorder.on_step(kind, cost, self.time, wall_ns)

    # -- stepping ---------------------------------------------------------------

    def _step(self, cmd: ast.Command) -> Optional[ast.Command]:
        """One full-semantics transition; returns the continuation."""
        if isinstance(cmd, ast.Seq):
            continuation = self._step(cmd.first)
            if continuation is None:
                return cmd.second
            return ast.Seq(first=continuation, second=cmd.second)

        if isinstance(cmd, _MitExit):
            return self._finish_mitigation(cmd.frame)

        if isinstance(cmd, ast.Skip):
            self._charge(StepKind.SKIP, cmd)
            return None

        if isinstance(cmd, ast.Sleep):
            # Property 4: exactly max(n, 0) cycles, nothing else.
            duration, _ = eval_expr_traced(cmd.duration, self.memory)
            self._labels(cmd)  # still insist the program is annotated
            self.time += max(duration, 0)
            if self.recorder is not None:
                self.recorder.on_sleep(max(duration, 0), self.time)
            return None

        if isinstance(cmd, ast.Assign):
            value, accesses = eval_expr_traced(cmd.expr, self.memory)
            self._charge(
                StepKind.ASSIGN,
                cmd,
                reads=accesses,
                writes=(DataAccess(cmd.target),),
            )
            self.memory.write(cmd.target, value)
            self.events.append(Event(cmd.target, value, self.time))
            return None

        if isinstance(cmd, ast.ArrayAssign):
            index, index_accesses = eval_expr_traced(cmd.index, self.memory)
            value, value_accesses = eval_expr_traced(cmd.expr, self.memory)
            if not 0 <= index < self.memory.array_length(cmd.array):
                raise EvaluationError(
                    f"array write {cmd.array}[{index}] out of bounds "
                    f"(length {self.memory.array_length(cmd.array)})"
                )
            self._charge(
                StepKind.ASSIGN,
                cmd,
                reads=index_accesses + value_accesses,
                writes=(DataAccess(cmd.array, index),),
            )
            self.memory.write_elem(cmd.array, index, value)
            self.events.append(Event(cmd.array, value, self.time, index=index))
            return None

        if isinstance(cmd, ast.If):
            guard, accesses = eval_expr_traced(cmd.cond, self.memory)
            self._charge(StepKind.BRANCH, cmd, reads=accesses,
                         taken=guard != 0)
            return cmd.then_branch if guard != 0 else cmd.else_branch

        if isinstance(cmd, ast.While):
            guard, accesses = eval_expr_traced(cmd.cond, self.memory)
            self._charge(StepKind.BRANCH, cmd, reads=accesses,
                         taken=guard != 0)
            if guard != 0:
                return ast.Seq(first=cmd.body, second=cmd)
            return None

        if isinstance(cmd, ast.Mitigate):
            estimate, accesses = eval_expr_traced(cmd.budget, self.memory)
            self._charge(StepKind.MITIGATE, cmd, reads=accesses)
            if self.recorder is not None:
                # Span boundary: the epoch opens once the head is charged,
                # carrying the runtime's current prediction for it.
                self.recorder.on_mitigate_enter(
                    cmd.mit_id,
                    cmd.level,
                    estimate,
                    self.mitigation.predict(estimate, cmd.level),
                    self.time,
                )
            frame = _MitFrame(
                mit_id=cmd.mit_id,
                level=cmd.level,
                estimate=estimate,
                start_time=self.time,
                pc_label=self.mitigate_pc.get(cmd.mit_id),
            )
            return ast.Seq(first=cmd.body, second=_MitExit(frame=frame))

        raise TypeError(f"not a command: {cmd!r}")

    def _finish_mitigation(self, frame: _MitFrame) -> None:
        elapsed = self.time - frame.start_time
        recorder = self.recorder
        if recorder is None:
            total = self.mitigation.settle(frame.estimate, frame.level,
                                           elapsed)
        else:
            started = perf_counter_ns()
            total = self.mitigation.settle(frame.estimate, frame.level,
                                           elapsed)
            wall_ns = perf_counter_ns() - started
        # Pad the block to exactly its (possibly just-inflated) prediction.
        self.time = frame.start_time + total
        self.records.append(
            MitigationRecord(
                mit_id=frame.mit_id,
                level=frame.level,
                start_time=frame.start_time,
                end_time=self.time,
                pc_label=frame.pc_label,
            )
        )
        if recorder is not None:
            recorder.on_mitigation(
                mit_id=frame.mit_id,
                level=frame.level,
                estimate=frame.estimate,
                elapsed=elapsed,
                padded=total,
                misses=self.mitigation.misses(frame.level),
                pc_label=frame.pc_label,
                end_time=self.time,
                wall_ns=wall_ns,
            )
        return None

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
        current: Optional[ast.Command] = self.program
        while current is not None:
            if self.steps >= self.max_steps:
                raise TimeoutError(
                    f"program did not terminate within {self.max_steps} steps"
                )
            current = self._step(current)
            self.steps += 1
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
