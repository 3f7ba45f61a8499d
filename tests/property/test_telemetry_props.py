"""Telemetry invariants on random mitigate-heavy programs.

The recorder layer is passive, so everything it reports must be *derivable*
from the semantics it watched.  Hypothesis hunts for a generated program
that breaks one of the accounting identities:

* ``Miss[l]`` only ever steps upward (S-UPDATE never decrements), so every
  recorded ``miss_trace`` series is monotone non-decreasing;
* padding is never negative (a mitigate block is padded *to* its
  prediction, never shortened);
* the final clock splits exactly into machine cycles + sleep cycles +
  padding cycles -- nothing else may advance time;
* the dynamic Theorem 2 accounting (distinct relevant deadline sequences
  over low-equivalent memories) stays within the static bound.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.lang import DEFAULT_LATTICE
from repro.hardware import PartitionedHardware, tiny_machine
from repro.semantics.full import execute
from repro.semantics.mitigation import MitigationState
from repro.telemetry import DynamicLeakageMeter, RecordingTraceRecorder
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


@given(st.integers(min_value=0, max_value=50_000))
@settings(max_examples=30, deadline=None)
def test_telemetry_accounting_invariants(seed):
    generated = _generated(LAT, seed)
    if generated is None:
        return
    program, gamma, info, gen = generated
    recorder = RecordingTraceRecorder()
    result = execute(
        program,
        gen.memory(),
        PartitionedHardware(LAT, tiny_machine()),
        mitigation=MitigationState(),
        mitigate_pc=info.mitigate_pc,
        recorder=recorder,
    )
    reg = recorder.registry

    # Miss[l] transitions (S-UPDATE) only ever count upward.
    for name, series in reg.series.items():
        if name.startswith("miss_trace."):
            assert all(a <= b for a, b in zip(series, series[1:])), (
                name, series,
            )

    # Padding stretches a block to its prediction; it can never be negative.
    assert reg.padding_cycles() >= 0
    for padding in reg.histograms.get("hist.mitigation.padding", {}):
        assert padding >= 0

    # The clock advances only through charged steps, sleeps, and padding.
    split = (reg.machine_cycles() + reg.counter("cycles.sleep")
             + reg.padding_cycles())
    assert split == result.time, (
        f"clock split {split} != final time {result.time}"
    )
    assert reg.final_cycles() == result.time
    assert reg.counter("mitigation.completions") == len(result.mitigations)


@given(st.integers(min_value=0, max_value=50_000))
@settings(max_examples=25, deadline=None)
def test_dynamic_leakage_within_static_bound(seed):
    generated = _generated(LAT, seed)
    if generated is None:
        return
    program, gamma, info, gen = generated
    base = gen.memory()
    variants = [base]
    for k in range(8):
        variant = base.copy()
        for name in gamma:
            if not gamma[name].flows_to(LAT["L"]):
                variant.write(name, (k * 5 + len(name)) % 7)
        variants.append(variant)

    # One long-lived meter across all runs, fed each execute()'s result
    # (Lemma 1 makes the relevant mitigations' *identities* agree across
    # the low-equivalent variants, so only durations can differ).
    meter = DynamicLeakageMeter(LAT)
    for variant in variants:
        meter.observe(execute(
            program,
            variant.copy(),
            PartitionedHardware(LAT, tiny_machine()),
            mitigation=MitigationState(),
            mitigate_pc=info.mitigate_pc,
        ))
    assert meter.runs == len(variants)
    assert len(meter.id_vectors) == 1
    assert meter.observed_variations >= 1
    meter.assert_within_bound()
