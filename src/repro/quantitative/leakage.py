"""Quantitative leakage: Definition 1 of the paper, as a fold over one sweep.

:func:`sweep` compiles a program once and runs it once per secret variant;
Definition 1 here and Definition 2 and Lemma 1 in
:mod:`repro.quantitative.variations` are folds over those runs.

``Q(L, lA, c, m, E)`` is the log (base 2) of the number of *distinguishable
observations* an adversary at ``lA`` can make of runs of ``c`` started from
memories and environments that differ from ``(m, E)`` only at levels in
``L_{lA}`` (the members of ``L`` not already observable to the adversary).
An observation is the full sequence of ``lA``-visible assignment events with
their values *and times* -- the coresident adversary of Sec. 3.4.

As shown in the predictive-mitigation papers, counting distinguishable
observations bounds both Shannon- and min-entropy leakage measures
(:mod:`repro.quantitative.entropy` provides those for comparison).

The definition quantifies over *all* memories/environments projected-equal
to the baseline outside ``L_{lA}``.  That set is infinite, so the API takes
an explicit finite family of *secret variants* -- typically "every value the
secret can take" for enumerable secret spaces, which makes the measurement
exact, or a large sample, which makes it a lower bound (every distinct
observation found is genuinely distinguishable).  The function validates
each variant against the projected-equivalence side condition so that an
accidentally-miscast family cannot inflate the measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..lang import ast
from ..lattice import Label, Lattice
from ..machine.layout import Layout
from ..machine.memory import Memory, projected_equivalent
from ..hardware.interface import MachineEnvironment
from ..semantics.events import observable_events, observation_key
from ..semantics.full import ExecutionResult, Interpreter
from ..semantics.mitigation import MitigationState

#: One run of a :func:`sweep`: its memory variant's index and its result.
Run = Tuple[int, ExecutionResult]


class VariantError(ValueError):
    """A supplied variant changes state outside the allowed level set."""


@dataclass
class LeakageResult:
    """The outcome of a Definition 1 measurement."""

    bits: float
    distinguishable: int
    runs: int
    observations: Dict[Tuple, List[int]]

    @property
    def latest_event_time(self) -> int:
        """``T`` for the Sec. 7 bound: the time of the latest observable
        event in any run (1 when no run makes one)."""
        return max((key[-1][3] for key in self.observations if key),
                   default=1)

    def __str__(self) -> str:
        return (
            f"{self.bits:.3f} bits ({self.distinguishable} distinguishable "
            f"observations over {self.runs} runs)"
        )


def validate_variants(
    base: Memory,
    variants: Iterable[Memory],
    gamma: Mapping[str, Label],
    lattice: Lattice,
    levels: Iterable[Label],
    adversary: Label,
) -> None:
    """Raise :class:`VariantError` unless every variant equals ``base`` at
    every level outside ``L_{lA}``, Definition 1's side condition."""
    allowed = lattice.exclude_observable(levels, adversary)
    for variant in variants:
        for level in lattice.levels():
            if level not in allowed and not projected_equivalent(
                    base, variant, gamma, level):
                raise VariantError(
                    f"variant differs from the baseline at level {level}, "
                    "which is outside the varied set L_{lA}"
                )


def secret_variants(
    base: Memory, assignments: Iterable[Mapping[str, object]]
) -> List[Memory]:
    """Build variant memories from the baseline plus per-variant overrides.

    Each element of ``assignments`` maps names to new values (ints for
    scalars, sequences for arrays).  A convenience for enumerating secret
    spaces::

        variants = secret_variants(m, ({"h": v} for v in range(16)))
    """
    out = []
    for overrides in assignments:
        variant = base.copy()
        for name, value in overrides.items():
            if variant.is_scalar(name) and isinstance(value, int):
                variant.write(name, value)
            elif variant.is_array(name) and not isinstance(value, int):
                for i, item in enumerate(value):  # type: ignore[arg-type]
                    variant.write_elem(name, i, item)
            elif variant.is_scalar(name) or variant.is_array(name):
                shape = ("a scalar" if variant.is_scalar(name) else
                         f"an array of length {variant.array_length(name)}")
                raise VariantError(f"{name!r} is declared as {shape}; a "
                                   f"variant cannot set it to {value!r}")
            else:
                raise KeyError(
                    f"variant overrides undeclared name {name!r}; declare "
                    "it in the baseline memory first"
                )
        out.append(variant)
    return out


def sweep(
    program: ast.Command,
    base_memory: Memory,
    base_environment: MachineEnvironment,
    memory_variants: Sequence[Memory],
    environment_variants: Optional[Sequence[MachineEnvironment]] = None,
    mitigate_pc: Mapping[str, Label] = None,
    max_steps: int = 10_000_000,
    recorder=None,
) -> Iterable[Run]:
    """Run ``program``, compiled once for ``base_memory``, from a copy of
    every (memory variant, environment variant) pair, variant-major, with a
    fresh :class:`MitigationState` each, and yield each run's variant index
    and result.  Environments default to ``base_environment``; ``recorder``
    (see :mod:`repro.telemetry`) observes every run."""
    layout = Layout.build(program, base_memory)
    mitigate_pc = dict(mitigate_pc or {})
    if environment_variants is None:
        environment_variants = [base_environment]
    interpreter: Optional[Interpreter] = None
    for index, variant in enumerate(memory_variants):
        for environment in environment_variants:
            memory, clone = variant.copy(), environment.clone()
            if interpreter is None or not interpreter.fits(memory):
                interpreter = Interpreter(
                    program, memory, clone, layout, MitigationState(),
                    mitigate_pc, max_steps, recorder)
            else:
                interpreter.bind(memory, clone, MitigationState(), max_steps,
                                 recorder)
            yield index, interpreter.run()


def fold_leakage(
    runs: Iterable[Run], gamma: Mapping[str, Label], adversary: Label
) -> LeakageResult:
    """Definition 1 over a sweep: group its runs by what ``adversary``
    observes of them."""
    observations: Dict[Tuple, List[int]] = {}
    for index, result in runs:
        key = observation_key(
            observable_events(result.events, gamma, adversary)
        )
        observations.setdefault(key, []).append(index)
    distinguishable = len(observations)
    return LeakageResult(
        bits=math.log2(distinguishable) if distinguishable else 0.0,
        distinguishable=distinguishable,
        runs=sum(map(len, observations.values())),
        observations=observations,
    )


def measure_leakage(
    program: ast.Command,
    gamma: Mapping[str, Label],
    lattice: Lattice,
    levels: Iterable[Label],
    adversary: Label,
    base_memory: Memory,
    base_environment: MachineEnvironment,
    memory_variants: Sequence[Memory],
    environment_variants: Optional[Sequence[MachineEnvironment]] = None,
    mitigate_pc: Mapping[str, Label] = None,
    validate: bool = True,
    max_steps: int = 10_000_000,
    recorder=None,
) -> LeakageResult:
    """Measure ``Q(L, lA, c, m, E)`` over an explicit variant family.

    ``levels`` is the paper's ``L``; variants may differ from
    ``base_memory`` only at levels in ``L_{lA}`` (checked unless
    ``validate=False``).  Environments default to clones of the baseline
    (the common case: the adversary knows the initial hardware state).
    An optional ``recorder`` (see :mod:`repro.telemetry`) observes every
    run of the sweep, so one metrics document can cover it all.
    """
    if validate:
        validate_variants(base_memory, memory_variants, gamma, lattice,
                          levels, adversary)
    runs = sweep(program, base_memory, base_environment, memory_variants,
                 environment_variants, mitigate_pc, max_steps, recorder)
    return fold_leakage(runs, gamma, adversary)
