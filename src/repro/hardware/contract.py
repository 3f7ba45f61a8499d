"""The executable checker for the hardware side of the software/hardware
contract.

Sec. 3.5-3.6 of the paper state seven properties a full semantics must
satisfy.  Four of them constrain the *hardware* alone and are checked here
against any :class:`~repro.hardware.interface.MachineEnvironment`:

* Property 2 (deterministic execution): same stimulus, same cost and state.
* Property 5 (write label): a step with write label ``lw`` leaves state at
  every level ``l`` with ``lw !<= l`` untouched.
* Property 6 (read label): two environments that agree at and below the read
  label charge the same cost for the same step.
* Property 7 (single-step machine-environment noninterference): for every
  level ``l``, the post-state at and below ``l`` is a function of the
  pre-state at and below ``l`` and the access trace.

The remaining properties (1 adequacy, 3 sequential composition, 4 sleep
accuracy) constrain the language semantics and are checked in
:mod:`repro.semantics.faithfulness`.

There is one checker, :func:`check_case`, and it evaluates all four
properties on one :class:`ContractCase`: a shared warm-up, a divergence
phase whose write labels cannot reach the observation level (so the two
environments it builds stay ``~level``-equivalent by Property 5), and a
probe step.  Cases come from one source, :func:`random_cases`, which draws
:func:`random_case` from a seeded :class:`random.Random` over every
(observation level, probe write label) pair in turn.
:func:`run_contract_suite` (``repro contract``) takes a fixed number of
rounds from it; :mod:`repro.hardware.verify` (``repro verify-hw``) takes
cases until the first violation and hands that case to :func:`shrink_case`.
Everything here uses only the standard library.

A note on Properties 6/7 and addresses: in the paper's scalar language the
addresses a command touches are syntactically determined, so "same command,
equivalent memories" implies "same access trace".  Our array extension can
make addresses value-dependent, which the *type system* handles (array-index
labels must flow to the write label); the hardware-level property is
therefore stated over equal traces, which is exactly the obligation the
paper's designs discharge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import cycle, islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..lattice import Label, Lattice
from ..machine.layout import AccessTrace
from .interface import MachineEnvironment, StepKind

EnvFactory = Callable[[], MachineEnvironment]


@dataclass(frozen=True)
class Stimulus:
    """One synthetic step: a trace plus its labels and kind."""

    kind: StepKind
    trace: AccessTrace
    read_label: Label
    write_label: Label


@dataclass
class Violation:
    """A concrete counterexample to one contract property."""

    prop: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.prop}] {self.detail}"

    def as_dict(self) -> Dict[str, str]:
        return {"prop": self.prop, "detail": self.detail}


@dataclass
class ContractReport:
    """Aggregated results of a contract-checking run."""

    violations: Dict[str, List[Violation]] = field(default_factory=dict)
    checked: Dict[str, int] = field(default_factory=dict)

    def record(self, prop: str, violation: Violation = None) -> None:
        self.checked[prop] = self.checked.get(prop, 0) + 1
        if violation is not None:
            self.violations.setdefault(prop, []).append(violation)

    def ok(self, prop: str = None) -> bool:
        if prop is not None:
            return not self.violations.get(prop)
        return not any(self.violations.values())

    def failing_properties(self) -> Tuple[str, ...]:
        return tuple(sorted(p for p, v in self.violations.items() if v))

    def summary(self) -> str:
        lines = []
        for prop in sorted(self.checked):
            bad = len(self.violations.get(prop, []))
            verdict = "OK" if bad == 0 else f"{bad} violations"
            lines.append(f"{prop}: {self.checked[prop]} checks, {verdict}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ContractCase:
    """One scenario for :func:`check_case`.

    ``shared`` steps run on both environments of the equivalence pair;
    ``divergent`` steps run on the second only, and are restricted to write
    labels that cannot reach any level at or below ``level`` -- by Property
    5 they must leave the pair ``~level``-equivalent.  ``probe`` is the
    observation whose cost (Property 6, when its read label flows to
    ``level``) and state effect (Property 7) are compared.
    """

    level: Label
    shared: Tuple[Stimulus, ...]
    divergent: Tuple[Stimulus, ...]
    probe: Stimulus


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


def _apply(env: MachineEnvironment, stim: Stimulus) -> int:
    return env.step(stim.kind, stim.trace, stim.read_label, stim.write_label)


def _determinism(
    factory: EnvFactory, sequence: Sequence[Stimulus]
) -> Optional[str]:
    """Property 2: the same stimuli drive two fresh environments
    identically.  Returns what went wrong, or None."""
    env_a, env_b = factory(), factory()
    for i, stim in enumerate(sequence):
        cost_a, cost_b = _apply(env_a, stim), _apply(env_b, stim)
        if cost_a != cost_b:
            return f"step {i}: identical stimuli cost {cost_a} != {cost_b}"
    if env_a.full_state() != env_b.full_state():
        return "identical stimulus sequences diverged in state"
    return None


def _write_label(
    factory: EnvFactory, lattice: Lattice, sequence: Sequence[Stimulus]
) -> Optional[str]:
    """Property 5: each step leaves unreachable levels untouched.  Returns
    what went wrong, or None."""
    env = factory()
    for i, stim in enumerate(sequence):
        before = {
            level: env.project(level)
            for level in lattice.levels()
            if not stim.write_label.flows_to(level)
        }
        _apply(env, stim)
        for level, snapshot in before.items():
            if env.project(level) != snapshot:
                return (
                    f"step {i} (lw={stim.write_label}) modified level "
                    f"{level} state"
                )
    return None


def check_case(
    factory: EnvFactory,
    lattice: Lattice,
    case: ContractCase,
    report: ContractReport = None,
) -> Tuple[Violation, ...]:
    """Evaluate Properties 2 and 5-7 on one case.

    Returns the violations found, at most one per property, in the order
    P2, P5, P6, P7; an empty tuple means every property held.  A P2
    violation ends the check, since nothing later can be compared on
    nondeterministic hardware.  After a P5 violation the pair is still
    built, and P6/P7 are still evaluated if it stayed ``~level``-
    equivalent.  Every property evaluated is recorded in ``report``, if
    one is given.
    """
    found: List[Violation] = []

    def verdict(prop: str, detail: Optional[str]) -> None:
        violation = None if detail is None else Violation(prop, detail)
        if report is not None:
            report.record(prop, violation)
        if violation is not None:
            found.append(violation)

    level, probe = case.level, case.probe
    sequence = (*case.shared, *case.divergent, probe)
    determinism = _determinism(factory, sequence)
    verdict("P2-determinism", determinism)
    if determinism is not None:
        return tuple(found)

    # Build the ~level-equivalent pair: env2 additionally runs the
    # divergence phase, whose write labels cannot reach <= level.
    write_label = _write_label(factory, lattice, sequence)
    env1, env2 = factory(), factory()
    for stim in case.shared:
        _apply(env1, stim)
        _apply(env2, stim)
    for stim in case.divergent:
        _apply(env2, stim)
    equivalent = env1.equivalent_to(env2, level)
    if write_label is None and not equivalent:
        # The per-step check should have caught this; keep a guard so an
        # unexpected equivalence break is still attributed to P5.
        write_label = (
            f"divergence phase with lw !<= {level} broke ~{level} "
            f"equivalence"
        )
    verdict("P5-write-label", write_label)
    if not equivalent:
        return tuple(found)

    # Property 6: with the probe's read label at or below the observation
    # level, both pair members must charge the same cost.
    if probe.read_label.flows_to(level):
        cost1 = _apply(env1.clone(), probe)
        cost2 = _apply(env2.clone(), probe)
        verdict("P6-read-label", None if cost1 == cost2 else (
            f"~{level}-equivalent environments charged {cost1} != {cost2} "
            f"for a probe with lr={probe.read_label}"
        ))

    # Property 7: the same probe trace preserves ~level equivalence.
    _apply(env1, probe)
    _apply(env2, probe)
    verdict("P7-single-step-NI", None if env1.equivalent_to(env2, level) else (
        f"equal probe traces broke ~{level} equivalence "
        f"(probe lr={probe.read_label}, lw={probe.write_label})"
    ))
    return tuple(found)


# ---------------------------------------------------------------------------
# Seeded case generation
# ---------------------------------------------------------------------------

_STEP_KINDS = (
    StepKind.SKIP,
    StepKind.ASSIGN,
    StepKind.BRANCH,
    StepKind.MITIGATE,
)


def _address_pool(rng: random.Random, size: int = 24) -> List[int]:
    """``size`` random word-aligned addresses in a 4 MB window; the steps
    of one case all draw from the same pool, so lines and sets recur."""
    pool = []
    for _ in range(size):
        base = rng.randrange(0, 1 << 20)
        pool.append(0x1000_0000 + base * 4)
    return pool


def random_stimulus(
    rng: random.Random,
    lattice: Lattice,
    data_pool: Sequence[int],
    code_pool: Sequence[int],
    labels: Tuple[Label, Label] = None,
    kinds: Sequence[StepKind] = _STEP_KINDS,
) -> Stimulus:
    """One random step; ``labels`` pins the (read, write) labels if given."""
    if labels is None:
        read = rng.choice(lattice.levels())
        # Favour lr = lw, the combination real designs optimize for.
        write = read if rng.random() < 0.7 else rng.choice(lattice.levels())
    else:
        read, write = labels
    n_reads = rng.randrange(0, 3)
    n_writes = rng.randrange(0, 2)
    kind = rng.choice(kinds)
    taken = rng.choice((True, False)) if kind == StepKind.BRANCH else None
    trace = AccessTrace(
        instruction=rng.choice(code_pool),
        reads=tuple(rng.choice(data_pool) for _ in range(n_reads)),
        writes=tuple(rng.choice(data_pool) for _ in range(n_writes)),
        taken=taken,
    )
    return Stimulus(kind, trace, read, write)


def _diverging_labels(lattice: Lattice, level: Label) -> List[Tuple[Label, Label]]:
    """Label pairs whose write label cannot reach any level at or below
    ``level`` -- steps safe to apply to one side of an ``~level`` pair."""
    pairs = []
    below = [l for l in lattice.levels() if l.flows_to(level)]
    for write in lattice.levels():
        if any(write.flows_to(l) for l in below):
            continue
        for read in lattice.levels():
            pairs.append((read, write))
    return pairs


def random_case(
    rng: random.Random, lattice: Lattice, level: Label, probe_write: Label
) -> ContractCase:
    """A random case observed at ``level`` whose probe has write label
    ``probe_write``.

    Addresses come from fresh 24-address pools per case: wide random pools
    reach the cache sets and TLB pages of large machines too, which a fixed
    handful of addresses does not.
    """
    data_pool = _address_pool(rng)
    code_pool = _address_pool(rng)
    shared = tuple(
        random_stimulus(rng, lattice, data_pool, code_pool)
        for _ in range(rng.randrange(16))
    )
    diverging = _diverging_labels(lattice, level)
    # At lattice top nothing can diverge; the case still exercises
    # Properties 2, 5 and 7 on equal environments.  Otherwise the phase is
    # always 15 steps deep -- one probe must find what it left behind, and
    # a short phase leaves too few dirty lines on a large machine -- with
    # branches over-weighted: divergence through a shared predictor needs
    # the phase to actually train a branch site.
    divergent = tuple(
        random_stimulus(
            rng, lattice, data_pool, code_pool,
            labels=rng.choice(diverging),
            kinds=_STEP_KINDS + (StepKind.BRANCH,) * 2,
        )
        for _ in range(15 if diverging else 0)
    )
    probe_read = rng.choice(
        [l for l in lattice.levels() if l.flows_to(level)]
    )
    if divergent and rng.random() < 0.5:
        # Replay probe: time what the victim just did, under the probe
        # labels.  This is what reads back a trained branch site.
        template = rng.choice(divergent)
        probe = Stimulus(
            template.kind, template.trace, probe_read, probe_write
        )
        return ContractCase(level, shared, divergent, probe)
    history = (*shared, *divergent)
    # Branch sites trained earlier are the prime observation targets, so
    # weight them; used data addresses bias the probe toward resident lines.
    used_code = [s.trace.instruction for s in history]
    used_branches = [
        s.trace.instruction for s in history if s.trace.taken is not None
    ]
    used_data = [a for s in history for a in (*s.trace.reads, *s.trace.writes)]
    probe = random_stimulus(
        rng, lattice,
        data_pool + used_data,
        code_pool + used_code + used_branches * 4,
        labels=(probe_read, probe_write),
        kinds=(StepKind.ASSIGN, StepKind.BRANCH),
    )
    return ContractCase(level, shared, divergent, probe)


def random_cases(
    rng: random.Random, lattice: Lattice
) -> Iterator[ContractCase]:
    """Random cases without end, one per (observation level, probe write
    label) pair in turn, all drawn from ``rng``."""
    levels = lattice.levels()
    for level, probe_write in cycle([(l, w) for l in levels for w in levels]):
        yield random_case(rng, lattice, level, probe_write)


def run_contract_suite(
    factory: EnvFactory,
    lattice: Lattice,
    trials: int = 20,
    seed: int = 0,
) -> ContractReport:
    """Check ``trials`` rounds of random cases, one case per (observation
    level, probe write label) pair each round."""
    report = ContractReport()
    count = trials * len(lattice.levels()) ** 2
    for case in islice(random_cases(random.Random(seed), lattice), count):
        check_case(factory, lattice, case, report)
    return report


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _addresses(case: ContractCase) -> List[int]:
    """Every address ``case`` touches, code and data alike, ascending."""
    return sorted({
        address
        for s in (*case.shared, *case.divergent, case.probe)
        for address in (s.trace.instruction, *s.trace.reads, *s.trace.writes)
    })


def _move(case: ContractCase, old: int, new: int) -> ContractCase:
    """``case`` with every use of address ``old`` moved to ``new``."""

    def moved(stim: Stimulus) -> Stimulus:
        trace = stim.trace
        return replace(stim, trace=trace._replace(
            instruction=new if trace.instruction == old else trace.instruction,
            reads=tuple(new if a == old else a for a in trace.reads),
            writes=tuple(new if a == old else a for a in trace.writes),
        ))

    return ContractCase(
        case.level,
        tuple(map(moved, case.shared)),
        tuple(map(moved, case.divergent)),
        moved(case.probe),
    )


def shrink_case(
    factory: EnvFactory, lattice: Lattice, case: ContractCase, prop: str
) -> ContractCase:
    """A smaller case whose first violation is still ``prop``, the first
    violation of ``case`` itself.

    Deterministic and greedy: drop each shared step, then each divergent
    step, then move each address to the smallest lower address the case
    already uses.  Each move is kept only if :func:`check_case` still
    reports the same property first.
    """
    def fails(candidate: ContractCase) -> bool:
        violations = check_case(factory, lattice, candidate)
        return bool(violations) and violations[0].prop == prop

    for phase in ("shared", "divergent"):
        index = 0
        while index < len(getattr(case, phase)):
            steps = getattr(case, phase)
            candidate = replace(
                case, **{phase: steps[:index] + steps[index + 1:]}
            )
            if fails(candidate):
                case = candidate
            else:
                index += 1

    for address in _addresses(case):
        for lower in _addresses(case):
            if lower >= address:
                break
            candidate = _move(case, address, lower)
            if fails(candidate):
                case = candidate
                break
    return case
