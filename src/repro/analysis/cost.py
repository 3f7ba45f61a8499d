"""Static cycle-cost analysis: interval bounds per command, region, and
mitigate block, parameterized by hardware model.

The cost analysis is the timing-class census of
:mod:`repro.analysis.quantify` seen by an observer who sees everything.
To that observer nothing is secret, so the census never forks and its
walk is path-insensitive: one class carries a flat constant environment
(resolving guards and loop bounds) and the hardware contract's abstract
state (bus queue occupancy, cumulative write counts) from
:mod:`repro.hardware.costmodel`.  :func:`compute_cost` reads that walk's
unpadded tables into a :class:`CostReport`.

Loops whose guards stay constant are unrolled concretely (up to
``MAX_UNROLL`` iterations); anything else is *widened* to ⊤ -- the
loop's cost interval loses its finite upper bound and the report carries
a :class:`WideningNote` diagnostic.  Intervals measure **unpadded**
cycles: hardware-charged steps plus ``sleep``, excluding mitigation
padding (padding is what the predictor adds on top, so static bounds on
the unpadded body are exactly what quantum tuning needs).  The same walk
also yields the padded program interval, kept on the report for the
replay harness.

Soundness is checked, not assumed: :func:`replay_program` re-executes a
program under the real interpreter with the profiler and a region
recorder attached, and asserts every observed per-region cycle total
falls inside the static interval.  ``tests/test_cost.py`` runs that
harness over the whole lint corpus for every registry model, and a
Hypothesis property does the same for generated programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hardware.costmodel import CostContract, Interval, contract_for
from ..hardware.params import MachineParams
from ..lang import ast
from ..semantics.mitigation import DoublingScheme
from ..telemetry.recorder import TeeRecorder, TraceRecorder
from .audit import DEFAULT_HORIZON


# ---------------------------------------------------------------------------
# Report model
# ---------------------------------------------------------------------------


@dataclass
class MitigateCost:
    """Static bounds for one mitigate block's *body* (unpadded cycles)."""

    mit_id: str
    node_id: int
    span: ast.Span
    level: str
    #: Constant-folded initial budget, when the analysis can prove one.
    budget: Optional[int]
    interval: Interval

    @property
    def initial_prediction(self) -> Optional[int]:
        """The doubling scheme's first-epoch prediction ``max(budget, 1)``."""
        return None if self.budget is None else max(self.budget, 1)


@dataclass
class BranchCost:
    """Per-arm bounds for one two-armed branch (guard step excluded)."""

    node_id: int
    span: ast.Span
    then_interval: Interval
    else_interval: Interval


@dataclass
class LoopCost:
    """Total bounds for one loop (all guard evaluations + iterations)."""

    node_id: int
    span: ast.Span
    interval: Interval
    widened: bool
    #: Concrete iteration count when the loop fully unrolled.
    unrolled: Optional[int] = None


@dataclass
class WideningNote:
    """Why a region lost its finite upper bound."""

    node_id: int
    span: ast.Span
    message: str


@dataclass
class CostReport:
    """Everything one (program, hardware model) cost analysis produced."""

    hardware: str
    program: Interval
    #: The census's worst-case *padded* duration under the runtime's
    #: default doubling scheme; the replay harness checks a run's end
    #: time against it.  Not part of :meth:`as_dict`.
    padded: Interval
    per_command: Dict[int, Interval] = field(default_factory=dict)
    mitigates: Dict[str, MitigateCost] = field(default_factory=dict)
    branches: Dict[int, BranchCost] = field(default_factory=dict)
    loops: Dict[int, LoopCost] = field(default_factory=dict)
    notes: List[WideningNote] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        def iv(interval: Interval) -> List[Optional[int]]:
            return [interval.lo, interval.hi]

        return {
            "hardware": self.hardware,
            "program": iv(self.program),
            "mitigates": [
                {
                    "mit_id": site.mit_id,
                    "line": site.span.line,
                    "column": site.span.column,
                    "level": site.level,
                    "budget": site.budget,
                    "interval": iv(site.interval),
                }
                for site in self.mitigates.values()
            ],
            "loops": [
                {
                    "line": loop.span.line,
                    "interval": iv(loop.interval),
                    "widened": loop.widened,
                    "unrolled": loop.unrolled,
                }
                for loop in self.loops.values()
            ],
            "widened": [
                {"line": note.span.line, "message": note.message}
                for note in self.notes
            ],
        }


def compute_cost(
    program: ast.Command,
    hardware: str = "null",
    params: Optional[MachineParams] = None,
    contract: Optional[CostContract] = None,
) -> CostReport:
    """Static interval cycle bounds for ``program`` on one hardware model:
    the census walk seen by an observer who sees everything."""
    # Imported here: the walker records this module's report types.
    from .quantify import CensusWalker

    contract = contract if contract is not None else contract_for(
        hardware, params
    )
    walker = CensusWalker(contract, DoublingScheme(), DEFAULT_HORIZON)
    # Nothing is secret to this observer, so the census never forks.
    (final,) = walker.walk(program)
    tables = walker.tables
    return CostReport(
        hardware=contract.name,
        program=final.unpadded,
        padded=final.span,
        per_command=tables.per_command,
        mitigates={
            mit_id: MitigateCost(
                mit_id=site.mit_id,
                node_id=site.node_id,
                span=site.span,
                level=site.level,
                budget=site.budget,
                interval=site.unpadded,
            )
            for mit_id, site in walker.sites.items()
        },
        branches=tables.branches,
        loops=tables.loops,
        notes=tables.widenings,
    )


# ---------------------------------------------------------------------------
# The profiler-replay soundness harness
# ---------------------------------------------------------------------------


@dataclass
class RegionObservation:
    """One observed unpadded cycle total vs. its static interval."""

    region: str  # "<program>" or a mitigate id
    observed: int
    interval: Interval

    @property
    def ok(self) -> bool:
        return self.interval.contains(self.observed)


@dataclass
class SoundnessCheck:
    """The outcome of replaying one program on one hardware model."""

    path: str
    hardware: str
    status: str  # "checked" or "skipped"
    reason: str = ""
    observations: List[RegionObservation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(obs.ok for obs in self.observations)

    @property
    def violations(self) -> List[RegionObservation]:
        return [obs for obs in self.observations if not obs.ok]


class RegionRecorder(TraceRecorder):
    """Collects mitigation epochs; every other hook is the inherited no-op."""

    def __init__(self):
        #: ``(mit_id, elapsed, padded, end_time)`` per completed epoch.
        self.mitigations: List[Tuple[str, int, int, int]] = []

    def on_mitigation(self, mit_id, level, estimate, elapsed,
                      padded, misses, pc_label, end_time, wall_ns):
        self.mitigations.append((str(mit_id), elapsed, padded, end_time))


def unpadded_regions(
    mitigations: List[Tuple[str, int, int, int]], final_time: int
) -> Tuple[int, List[Tuple[str, int]]]:
    """Strip mitigation padding out of observed region totals.

    ``mitigations`` holds ``(mit_id, elapsed, padded, end_time)`` per
    completed epoch.  An epoch's body window is ``[start, start+elapsed)``
    with ``start = end_time - padded``; epochs nested inside it (by time
    containment) contribute their own padding, which must be subtracted to
    recover the hardware+sleep cycles the static interval bounds.
    """
    epochs = [
        {
            "mit_id": mit_id,
            "start": end_time - padded,
            "elapsed": elapsed,
            "padding": padded - elapsed,
            "end": end_time,
        }
        for mit_id, elapsed, padded, end_time in mitigations
    ]
    program = final_time - sum(e["padding"] for e in epochs)
    regions = []
    for outer in epochs:
        nested_padding = sum(
            inner["padding"]
            for inner in epochs
            if inner is not outer
            and inner["start"] >= outer["start"]
            and inner["end"] <= outer["start"] + outer["elapsed"]
        )
        regions.append((outer["mit_id"], outer["elapsed"] - nested_padding))
    return program, regions


def default_memory(program: ast.Command) -> Dict[str, object]:
    """A zero-filled memory covering every name the program mentions.

    Scalars start at 0; arrays get :data:`DEFAULT_ARRAY_LENGTH` zeroed
    elements (enough that constant indices in the corpus stay in bounds).
    """
    arrays = set()
    for cmd in program.walk():
        if isinstance(cmd, ast.ArrayAssign):
            arrays.add(cmd.array)
        for expr in ast.step_exprs(cmd):
            for node in expr.walk():
                if isinstance(node, ast.ArrayRead):
                    arrays.add(node.array)
    names = ast.program_variables(program)
    memory: Dict[str, object] = {}
    for name in names:
        memory[name] = (
            [0] * DEFAULT_ARRAY_LENGTH if name in arrays else 0
        )
    return memory


DEFAULT_ARRAY_LENGTH = 64


def replay_program(
    source: str,
    path: str = "<string>",
    hardware: str = "null",
    params: Optional[MachineParams] = None,
    memory: Optional[Dict[str, object]] = None,
    max_steps: int = 200_000,
) -> SoundnessCheck:
    """Run one program concretely and compare observed cycles to the
    static intervals (the soundness cross-check).

    Files that cannot be parsed, labeled, or executed (the corpus contains
    deliberately broken fixtures) come back as ``status="skipped"`` with
    the reason; everything else is ``"checked"`` with one observation per
    mitigate epoch plus the whole-program total, unpadded and padded.
    """
    from .. import api
    from ..lang.lexer import LexError
    from ..lang.parser import ParseError
    from ..semantics.core import EvaluationError
    from ..semantics.full import SemanticsError
    from ..telemetry.profiling import Profiler
    from ..typesystem.errors import TypingError
    from .engine import DirectiveError, resolve_config

    def skip(reason: str) -> SoundnessCheck:
        return SoundnessCheck(
            path=path, hardware=hardware, status="skipped", reason=reason
        )

    try:
        gamma = resolve_config(source).gamma
    except DirectiveError as err:
        return skip(f"bad directive: {err}")

    try:
        compiled = api.compile_program(source, gamma=gamma, check=False)
    except (LexError, ParseError, TypingError) as err:
        return skip(f"does not compile: {err}")

    report = compute_cost(compiled.program, hardware, params)
    recorder = RegionRecorder()
    profiler = Profiler()
    try:
        result = compiled.run(
            memory if memory is not None else default_memory(
                compiled.program
            ),
            hardware=hardware,
            params=params,
            recorder=TeeRecorder(recorder, profiler),
        )
    except (EvaluationError, SemanticsError, TimeoutError, KeyError) as err:
        return skip(f"does not run: {err}")

    program_observed, regions = unpadded_regions(
        recorder.mitigations, result.final_time()
    )
    # The profiler partitions the clock: hardware + sleep + padding equals
    # the final time, so the unpadded total must also equal the profiled
    # non-padding cycles.  Cross-check the two observations agree.
    profiled = profiler.total_cycles() - profiler.cycles.get(
        "mitigation.padding", 0
    )
    observations = [
        RegionObservation("<program>", program_observed, report.program),
        # The padded end time is what the census (and `repro tune`'s
        # objective) bounds.
        RegionObservation("<padded>", result.final_time(), report.padded),
    ]
    if profiled != program_observed:
        observations.append(
            RegionObservation("<profiler-partition>", profiled,
                              Interval.exact(program_observed))
        )
    for mit_id, observed in regions:
        site = report.mitigates.get(mit_id)
        if site is None:
            observations.append(
                RegionObservation(mit_id, observed, Interval(1, 0))
            )
        else:
            observations.append(
                RegionObservation(mit_id, observed, site.interval)
            )
    return SoundnessCheck(
        path=path, hardware=hardware, status="checked",
        observations=observations,
    )


def check_corpus(
    paths,
    hardware_names=None,
    params: Optional[MachineParams] = None,
) -> List[SoundnessCheck]:
    """Replay every program on every model; returns one check per pair."""
    from ..hardware.registry import REGISTRY

    if hardware_names is None:
        hardware_names = REGISTRY.names()
    checks = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        for name in hardware_names:
            checks.append(
                replay_program(
                    source, path=str(path), hardware=name, params=params
                )
            )
    return checks
