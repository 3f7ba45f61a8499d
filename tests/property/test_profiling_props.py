"""Profiler attribution invariants on random mitigate-heavy programs.

The profiler (``repro.telemetry.profiling``) is a *second*, independent
observer of the same execution the span recorder watches, so their
accounts of where simulated time went must reconcile exactly:

* every simulated cycle the interpreter spends is attributed to exactly
  one subsystem -- hardware access, explicit sleep, or mitigation
  padding -- so the profiler's total equals the final global clock;
* the span recorder's run spans cover the same interval, so the summed
  run-span durations equal the profiler total too;
* ``interpreter.dispatch`` carries wall time but zero cycles (dispatch
  is bookkeeping; simulated time only advances through charged steps);
* profiling off is ``recorder=None``: results are bit-identical to a
  profiled run, and a profiler attached to an earlier run on the same
  environment and mitigation state is detached, never written again.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.lang import DEFAULT_LATTICE
from repro.hardware import PartitionedHardware, tiny_machine
from repro.semantics.full import execute
from repro.semantics.mitigation import MitigationState
from repro.telemetry import Profiler, SpanRecorder, TeeRecorder
from repro.telemetry.spans import CATEGORY_RUN
from repro.testing import GeneratorConfig, ProgramGenerator, standard_gamma
from repro.typesystem import TypingError, infer_labels, typecheck

LAT = DEFAULT_LATTICE

MITIGATE_HEAVY = GeneratorConfig(
    max_depth=3,
    max_block_length=3,
    weights={
        "assign": 0.30,
        "skip": 0.05,
        "sleep": 0.15,
        "if": 0.15,
        "while": 0.10,
        "mitigate": 0.25,
    },
)

CYCLE_SUBSYSTEMS = (
    "hardware.", "interpreter.sleep", "mitigation.padding",
)


def _generated(lattice, seed):
    gamma = standard_gamma(lattice)
    gen = ProgramGenerator(gamma, random.Random(seed), MITIGATE_HEAVY)
    program = gen.program()
    infer_labels(program, gamma)
    try:
        info = typecheck(program, gamma)
    except TypingError:
        return None
    return program, gamma, info, gen


def _run(program, info, memory, recorder=None, environment=None,
         mitigation=None):
    return execute(
        program,
        memory,
        environment or PartitionedHardware(LAT, tiny_machine()),
        mitigation=mitigation or MitigationState(),
        mitigate_pc=info.mitigate_pc,
        recorder=recorder,
    )


@given(st.integers(min_value=0, max_value=50_000))
@settings(max_examples=30, deadline=None)
def test_profiler_cycles_reconcile_with_spans(seed):
    generated = _generated(LAT, seed)
    if generated is None:
        return
    program, gamma, info, gen = generated
    profiler = Profiler()
    recorder = SpanRecorder()
    result = _run(program, info, gen.memory(),
                  recorder=TeeRecorder(profiler, recorder))

    # Attribution is a partition of simulated time: the subsystem totals
    # sum to the final clock, with no double counting and no gaps.
    assert profiler.total_cycles() == result.time, (
        profiler.cycles, result.time,
    )

    # ...and the span recorder, watching the same run through the other
    # telemetry seam, saw the same interval.
    run_spans = [s for s in recorder.spans if s.category == CATEGORY_RUN]
    assert sum(s.duration for s in run_spans) == profiler.total_cycles()

    # Only charged steps, sleeps, and padding may carry cycles.
    for name, cycles in profiler.cycles.items():
        assert cycles >= 0
        if cycles:
            assert name.startswith(CYCLE_SUBSYSTEMS), (name, cycles)

    # Dispatch is pure bookkeeping: wall time, never simulated cycles.
    assert profiler.cycles.get("interpreter.dispatch", 0) == 0


@given(st.integers(min_value=0, max_value=50_000))
@settings(max_examples=15, deadline=None)
def test_profiling_off_is_transparent(seed):
    generated = _generated(LAT, seed)
    if generated is None:
        return
    program, gamma, info, gen = generated
    base = gen.memory()

    plain = _run(program, info, base.copy())
    environment = PartitionedHardware(LAT, tiny_machine())
    state = MitigationState()
    profiler = Profiler()
    profiled = _run(program, info, base.copy(), recorder=profiler,
                    environment=environment, mitigation=state)
    assert plain.time == profiled.time
    assert plain.steps == profiled.steps

    # Profiling off on the profiled run's environment and state behaves
    # exactly like a never-observed copy of both, and the detached
    # profiler is never written to.
    written = (dict(profiler.cycles), dict(profiler.wall_ns))
    twin = _run(program, info, base.copy(), environment=environment.clone(),
                mitigation=state.copy())
    off = _run(program, info, base.copy(), environment=environment,
               mitigation=state)
    assert off.time == twin.time and off.steps == twin.steps
    assert (profiler.cycles, profiler.wall_ns) == written
