"""One-stop public API.

The typical pipeline is *parse (or build) -> infer labels -> typecheck ->
execute on a hardware model -> measure*.  :func:`compile_program` performs
the static half and returns a :class:`CompiledProgram` whose :meth:`run`
performs the dynamic half::

    from repro import api
    from repro.lattice import two_point

    lat = two_point()
    compiled = api.compile_program(
        '''
        if h then { x := 1 } else { x := 2 };
        sleep(5)
        ''',
        gamma={"h": "H", "x": "H"},
        lattice=lat,
    )
    result = compiled.run({"h": 1, "x": 0}, hardware="partitioned")
    print(result.time, result.events)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .hardware import MachineEnvironment, MachineParams, make_hardware
from .lang import ast
from .lang.parser import DEFAULT_LATTICE, parse
from .lattice import Label, Lattice, two_point
from .machine.layout import Layout
from .machine.memory import Memory, ValueSpec
from .semantics.full import ExecutionResult, Interpreter
from .semantics.mitigation import MitigationState
from .telemetry.recorder import TraceRecorder
from .typesystem.environment import SecurityEnvironment
from .typesystem.inference import infer_labels
from .typesystem.typing import TypingInfo, typecheck

Source = Union[str, ast.Command]
GammaSpec = Union[SecurityEnvironment, Mapping[str, Union[str, Label]]]


def _resolve_gamma(
    gamma: GammaSpec, lattice: Lattice
) -> SecurityEnvironment:
    if isinstance(gamma, SecurityEnvironment):
        return gamma
    bindings = {}
    for name, label in gamma.items():
        bindings[name] = lattice[label] if isinstance(label, str) else label
    return SecurityEnvironment(lattice, bindings)


@dataclass
class CompiledProgram:
    """A parsed, label-complete, typechecked program.

    Its first :meth:`run` compiles the program for the run memory's shape
    and keeps the compiled code; later runs on a memory of that shape reuse
    it, and a memory of another shape compiles anew.  The program's labels
    must therefore not change once it has run.
    """

    program: ast.Command
    gamma: SecurityEnvironment
    lattice: Lattice
    typing: TypingInfo
    _interpreter: Optional[Interpreter] = field(
        default=None, init=False, repr=False, compare=False)

    def run(
        self,
        memory: Union[Memory, Mapping[str, ValueSpec]],
        hardware: Union[str, MachineEnvironment] = "partitioned",
        params: Optional[MachineParams] = None,
        mitigation: Optional[MitigationState] = None,
        layout: Optional[Layout] = None,
        max_steps: int = 10_000_000,
        recorder: Optional[TraceRecorder] = None,
    ) -> ExecutionResult:
        """Execute under the full semantics.

        ``memory`` may be a mapping (scalars to ints, arrays to sequences);
        ``hardware`` a registry model name (any of
        ``repro.hardware.REGISTRY.choices()``: the secure ``null``,
        ``nofill`` and ``partitioned``, the commodity ``standard``/``nopar``
        and the adversarial ``bus``, ``writeback``, ``speculative``,
        ``frequency`` and ``leakytlb``) or a ready environment instance,
        which is used as-is (and mutated; call its ``reset()`` first for
        a cold start).  ``recorder`` attaches runtime
        telemetry, a :class:`~repro.telemetry.profiling.Profiler` included
        (see :mod:`repro.telemetry`); omitted, nothing observes the run.
        A ``layout`` applies to this run only: it is compiled for it.
        """
        if not isinstance(memory, Memory):
            memory = Memory(memory)
        if isinstance(hardware, str):
            hardware = make_hardware(hardware, self.lattice, params)
        interp = self._interpreter
        if layout is None and interp is not None and interp.fits(memory):
            interp.bind(memory, hardware, mitigation, max_steps, recorder)
        else:
            interp = Interpreter(
                program=self.program,
                memory=memory,
                environment=hardware,
                layout=layout,
                mitigation=mitigation,
                mitigate_pc=self.typing.mitigate_pc,
                max_steps=max_steps,
                recorder=recorder,
            )
            if layout is None:
                self._interpreter = interp
        return interp.run()


def compile_program(
    source: Source,
    gamma: GammaSpec,
    lattice: Optional[Lattice] = None,
    infer: bool = True,
    check: bool = True,
    require_cache_labels: bool = False,
    pc: Optional[Label] = None,
) -> CompiledProgram:
    """Parse (if needed), infer missing labels, and typecheck.

    ``lattice`` defaults to a :class:`SecurityEnvironment` ``gamma``'s own,
    else ``L <= H``.  Raises :class:`~repro.lang.parser.ParseError` or
    :class:`~repro.typesystem.errors.TypingError` on failure.  Pass
    ``check=False`` to skip the type check -- needed to *run* the paper's
    deliberately insecure baselines, which are ill-typed by design.
    """
    if lattice is None:
        lattice = (gamma.lattice if isinstance(gamma, SecurityEnvironment)
                   else DEFAULT_LATTICE)
    env = _resolve_gamma(gamma, lattice)
    program = parse(source, lattice) if isinstance(source, str) else source
    if infer:
        program = infer_labels(program, env, pc=pc)
    if check:
        info = typecheck(
            program, env, pc=pc, require_cache_labels=require_cache_labels
        )
    else:
        info = TypingInfo(end_label=lattice.bottom)
    return CompiledProgram(
        program=program, gamma=env, lattice=lattice, typing=info
    )
