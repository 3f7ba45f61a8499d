"""Timing variations of mitigate commands: Definition 2, Lemma 1, Theorem 2.

Definition 2 collects, over runs whose initial memories/environments vary
only at levels in the *upward closure* ``L^_{lA}``, the distinct duration
vectors of the mitigate commands that occur in *low* contexts
(``pc(M) not in L^``) with *high* mitigation levels (``lev(M) in L^``).
Those are exactly the commands through which information from ``L`` can
reach the adversary's clock.

Lemma 1 (low-determinism) says the *identity* component of that projection
-- which mitigate commands occur, in what order -- is the same across all
such runs for well-typed programs; only durations vary.  Theorem 2 then
bounds Definition 1's leakage by ``log2`` of the number of distinct duration
vectors.  All three are folds over one :func:`~.leakage.sweep` of a variant
family, each projecting the mitigate vectors with ``project_mitigations``:

* :func:`fold_variations` / :func:`timing_variations` -- Definition 2: a
  :class:`~repro.telemetry.leakage.DynamicLeakageMeter` (the one
  Definition 2 implementation) fed each run's result;
* :func:`check_low_determinism` -- Lemma 1 as a checker;
* :func:`verify_theorem2` -- folds Definitions 1 and 2 over the same runs
  and confirms ``Q <= log2 |V|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence

from ..lang import ast
from ..lattice import Label, Lattice
from ..machine.memory import Memory
from ..hardware.interface import MachineEnvironment
from ..semantics.events import mitigation_ids, project_mitigations
from ..telemetry.leakage import DynamicLeakageMeter
from .leakage import LeakageResult, Run, fold_leakage, sweep, validate_variants


def fold_variations(
    runs: Iterable[Run],
    lattice: Lattice,
    levels: Iterable[Label],
    adversary: Label,
) -> DynamicLeakageMeter:
    """Definition 2 over a sweep: a meter fed each run's result, holding
    the distinct duration and id vectors of the mitigate commands with
    ``pc(M) not in L^`` (no pc label counts as low, the conservative
    direction) and ``lev(M) in L^``."""
    meter = DynamicLeakageMeter(lattice, levels, adversary)
    for _, result in runs:
        meter.observe(result)
    return meter


def timing_variations(
    program: ast.Command,
    lattice: Lattice,
    levels: Iterable[Label],
    adversary: Label,
    base_memory: Memory,
    base_environment: MachineEnvironment,
    memory_variants: Sequence[Memory],
    environment_variants: Optional[Sequence[MachineEnvironment]] = None,
    mitigate_pc: Mapping[str, Label] = None,
    max_steps: int = 10_000_000,
    recorder=None,
) -> DynamicLeakageMeter:
    """Measure ``V(L, lA, c, m, E)`` over an explicit variant family.

    Per Definition 2 the variants may range over the larger set ``L^_{lA}``
    (upward closure), which the caller's family should reflect.  An optional
    ``recorder`` (see :mod:`repro.telemetry`) observes every run.
    """
    runs = sweep(program, base_memory, base_environment, memory_variants,
                 environment_variants, mitigate_pc, max_steps, recorder)
    return fold_variations(runs, lattice, levels, adversary)


def check_low_determinism(
    program: ast.Command,
    lattice: Lattice,
    levels: Iterable[Label],
    adversary: Label,
    base_memory: Memory,
    base_environment: MachineEnvironment,
    memory_variants: Sequence[Memory],
    mitigate_pc: Mapping[str, Label] = None,
    max_steps: int = 10_000_000,
) -> List[str]:
    """Lemma 1: the projected mitigate-id vector is the same across variants.

    Returns violation strings (empty for well-typed programs).
    """
    upward = lattice.upward_closure(
        lattice.exclude_observable(levels, adversary)
    )
    low_context = [
        mitigation_ids(project_mitigations(result.mitigations,
                                           pc_not_in=upward))
        for _, result in sweep(program, base_memory, base_environment,
                               memory_variants, None, mitigate_pc, max_steps)
    ]
    return [
        "Lemma1: low-context mitigate vector differs across variants: "
        f"{low_context[0]} vs {ids}"
        for ids in low_context[1:] if ids != low_context[0]
    ]


@dataclass
class Theorem2Result:
    """Both sides of Theorem 2 on one variant family."""

    leakage: LeakageResult
    variations: DynamicLeakageMeter

    @property
    def holds(self) -> bool:
        """Did ``Q <= log2 |V|`` hold on this family?"""
        return self.leakage.bits <= self.variations.observed_bits + 1e-9

    def __str__(self) -> str:
        verdict = "holds" if self.holds else "VIOLATED"
        return (
            f"Theorem 2 {verdict}: Q = {self.leakage.bits:.3f} bits "
            f"<= log|V| = {self.variations.observed_bits:.3f} bits"
        )


def verify_theorem2(
    program: ast.Command,
    gamma: Mapping[str, Label],
    lattice: Lattice,
    levels: Iterable[Label],
    adversary: Label,
    base_memory: Memory,
    base_environment: MachineEnvironment,
    memory_variants: Sequence[Memory],
    mitigate_pc: Mapping[str, Label] = None,
    max_steps: int = 10_000_000,
) -> Theorem2Result:
    """Measure both sides of Theorem 2 on the same family and compare.

    For an exhaustive family this is a genuine check of the theorem's
    statement on that secret space (Definition 1 and Definition 2 computed
    exactly); for sampled families both sides are lower bounds measured on
    the same runs, so the comparison remains meaningful.
    """
    levels = tuple(levels)
    validate_variants(base_memory, memory_variants, gamma, lattice, levels,
                      adversary)
    runs = list(sweep(program, base_memory, base_environment,
                      memory_variants, None, mitigate_pc, max_steps))
    return Theorem2Result(
        leakage=fold_leakage(runs, gamma, adversary),
        variations=fold_variations(runs, lattice, levels, adversary),
    )
