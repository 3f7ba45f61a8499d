"""Hypothesis properties of the mitigation runtime and leakage measures."""

import math
import random

from hypothesis import assume, given, settings, strategies as st

from repro import api
from repro.lang import DEFAULT_LATTICE
from repro.lattice import chain
from repro.machine import Memory
from repro.machine.layout import Layout
from repro.hardware import NullHardware, PartitionedHardware, tiny_machine
from repro.quantitative import (
    check_low_determinism,
    leakage_bound,
    measure_leakage,
    min_entropy_leakage,
    secret_variants,
    shannon_leakage,
    timing_variations,
    verify_theorem2,
)
from repro.semantics import DoublingScheme, MitigationState, PolynomialScheme
from repro.semantics import full
from repro.semantics.events import observable_events, observation_key
from repro.testing import GeneratorConfig, ProgramGenerator, standard_gamma
from repro.typesystem import TypingError, infer_labels, typecheck

LAT = DEFAULT_LATTICE
L, H = LAT["L"], LAT["H"]


# --- mitigation state properties -------------------------------------------

estimates = st.integers(min_value=0, max_value=1 << 16)
elapsed_times = st.integers(min_value=0, max_value=1 << 20)
schemes = st.sampled_from(
    [DoublingScheme(), PolynomialScheme(1), PolynomialScheme(3)]
)


@given(schemes, estimates, elapsed_times)
@settings(deadline=None)
def test_settle_exceeds_elapsed(scheme, estimate, elapsed):
    state = MitigationState(scheme=scheme)
    total = state.settle(estimate, H, elapsed)
    assert total > elapsed  # the padded duration strictly covers the body


@given(schemes, estimates, st.lists(elapsed_times, min_size=1, max_size=8))
@settings(deadline=None)
def test_miss_counter_monotone(scheme, estimate, sequence):
    state = MitigationState(scheme=scheme)
    last = 0
    for elapsed in sequence:
        state.settle(estimate, H, elapsed)
        assert state.misses(H) >= last
        last = state.misses(H)


@given(estimates, elapsed_times)
@settings(deadline=None)
def test_doubling_duration_is_estimate_times_power_of_two(estimate, elapsed):
    state = MitigationState()
    total = state.settle(estimate, H, elapsed)
    base = max(estimate, 1)
    assert total % base == 0
    ratio = total // base
    assert ratio & (ratio - 1) == 0  # power of two


@given(schemes, estimates, elapsed_times)
@settings(deadline=None)
def test_settle_idempotent_for_smaller_bodies(scheme, estimate, elapsed):
    state = MitigationState(scheme=scheme)
    first = state.settle(estimate, H, elapsed)
    # Any later body that fits under the prediction keeps it unchanged.
    again = state.settle(estimate, H, max(first - 1, 0))
    assert again == first


@given(elapsed_times)
@settings(deadline=None)
def test_doubling_misses_logarithmic(elapsed):
    state = MitigationState()
    state.settle(1, H, elapsed)
    assert state.misses(H) <= math.log2(elapsed + 1) + 1


# --- leakage measurement properties ------------------------------------------

secret_counts = st.integers(min_value=1, max_value=24)


def _measure(src, n, check=True):
    cp = api.compile_program(src, gamma={"h": "H", "l": "L"}, check=check)
    base = Memory({"h": 0, "l": 0})
    variants = secret_variants(base, ({"h": v} for v in range(n)))
    return measure_leakage(
        cp.program, cp.gamma, LAT, [H], L, base, NullHardware(LAT),
        variants, mitigate_pc=cp.typing.mitigate_pc,
    )


@given(secret_counts)
@settings(max_examples=20, deadline=None)
def test_leakage_bounded_by_log_secret_count(n):
    result = _measure("sleep(h); l := 1", n, check=False)
    assert result.bits <= math.log2(n) + 1e-9


@given(secret_counts)
@settings(max_examples=20, deadline=None)
def test_entropy_measures_bounded_by_count_measure(n):
    result = _measure("mitigate(2, H) { sleep(h) }; l := 1", n)
    assert shannon_leakage(result.observations) <= result.bits + 1e-9
    assert min_entropy_leakage(result.observations) <= result.bits + 1e-9


@given(st.integers(min_value=2, max_value=24))
@settings(max_examples=15, deadline=None)
def test_more_variants_never_decrease_leakage(n):
    small = _measure("mitigate(2, H) { sleep(h) }; l := 1", n)
    large = _measure("mitigate(2, H) { sleep(h) }; l := 1", n + 8)
    assert large.distinguishable >= small.distinguishable


@given(st.integers(min_value=2, max_value=20))
@settings(max_examples=15, deadline=None)
def test_theorem2_pointwise_on_random_sizes(n):
    cp = api.compile_program("mitigate(2, H) { sleep(h) }; l := 1",
                             gamma={"h": "H", "l": "L"})
    base = Memory({"h": 0, "l": 0})
    variants = secret_variants(base, ({"h": v} for v in range(n)))
    q = measure_leakage(
        cp.program, cp.gamma, LAT, [H], L, base, NullHardware(LAT),
        variants, mitigate_pc=cp.typing.mitigate_pc,
    )
    v = timing_variations(
        cp.program, LAT, [H], L, base, NullHardware(LAT), variants,
        mitigate_pc=cp.typing.mitigate_pc,
    )
    assert q.bits <= v.observed_bits + 1e-9


@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=2, max_value=1 << 20))
@settings(deadline=None)
def test_bound_monotone(k, t):
    b1 = leakage_bound(LAT, [H], L, t, k)
    b2 = leakage_bound(LAT, [H], L, t * 2, k)
    b3 = leakage_bound(LAT, [H], L, t, k + 1)
    assert b1 <= b2 and b1 <= b3


# --- one sweep equals one execute per variant ---------------------------------

MITIGATED = GeneratorConfig(
    max_depth=3,
    max_block_length=3,
    weights={"assign": 0.30, "skip": 0.05, "sleep": 0.15, "if": 0.15,
             "while": 0.10, "mitigate": 0.25},
)


def _reference(program, gamma, lattice, levels, adversary, base,
               environments, variants, mitigate_pc):
    """Definitions 1 and 2 and Lemma 1 as they were measured before the
    sweep: one ``semantics.full.execute`` per (variant, environment) pair,
    each projection written out inline."""
    upward = lattice.upward_closure(
        lattice.exclude_observable(levels, adversary))
    layout = Layout.build(program, base)
    observations, variations, id_vectors, low_ids = {}, set(), set(), []
    for index, memory in enumerate(variants):
        for position, environment in enumerate(environments):
            result = full.execute(
                program, memory.copy(), environment.clone(), layout=layout,
                mitigation=MitigationState(), mitigate_pc=mitigate_pc)
            key = observation_key(
                observable_events(result.events, gamma, adversary))
            observations.setdefault(key, []).append(index)
            low = [r for r in result.mitigations
                   if r.pc_label is None or r.pc_label not in upward]
            relevant = [r for r in low if r.level in upward]
            variations.add(tuple(r.duration for r in relevant))
            id_vectors.add(tuple(r.mit_id for r in relevant))
            if position == 0:
                low_ids.append(tuple(r.mit_id for r in low))
    violations = [
        "Lemma1: low-context mitigate vector differs across variants: "
        f"{low_ids[0]} vs {ids}"
        for ids in low_ids[1:] if ids != low_ids[0]
    ]
    return observations, variations, id_vectors, violations


@given(st.integers(min_value=0, max_value=50_000),
       st.sampled_from(["two", "chain"]),
       st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                max_size=6),
       st.booleans())
@settings(max_examples=30, deadline=None)
def test_sweep_measures_equal_one_execute_per_variant(seed, lattice_name,
                                                      secrets, typed):
    lattice = LAT if lattice_name == "two" else chain(("L", "M", "H"))
    gamma = standard_gamma(lattice)
    generator = ProgramGenerator(gamma, random.Random(seed), MITIGATED)
    program = generator.program()
    infer_labels(program, gamma)
    # Without its pc labels every mitigate record counts as low context,
    # so Lemma 1 can fail.
    mitigate_pc = {}
    if typed:
        try:
            mitigate_pc = typecheck(program, gamma).mitigate_pc
        except TypingError:
            pass
    levels, adversary = [lattice.top], lattice.bottom
    base = generator.memory()
    variants = []
    for secret in secrets:
        variant = base.copy()
        for offset, name in enumerate(sorted(gamma)):
            if gamma[name] == lattice.top:
                variant.write(name, (secret + offset) % 8)
        variants.append(variant)
    cold = PartitionedHardware(lattice, tiny_machine())
    # The second environment variant starts with the caches the baseline
    # run left behind.
    warm = full.execute(program, base.copy(), cold.clone(),
                        mitigate_pc=mitigate_pc).environment
    environments = [cold, warm]

    observations, variations, id_vectors, violations = _reference(
        program, gamma, lattice, levels, adversary, base, environments,
        variants, mitigate_pc)
    q = measure_leakage(program, gamma, lattice, levels, adversary, base,
                        cold, variants, environments, mitigate_pc)
    assert q.observations == observations
    assert q.runs == len(variants) * len(environments)
    assert q.distinguishable == len(observations)
    v = timing_variations(program, lattice, levels, adversary, base, cold,
                          variants, environments, mitigate_pc)
    assert (v.variations, v.id_vectors) == (variations, id_vectors)
    assert v.runs == q.runs
    assert check_low_determinism(program, lattice, levels, adversary, base,
                                 cold, variants, mitigate_pc) == violations


def test_theorem2_compiles_once_and_runs_each_variant_once(monkeypatch):
    cp = api.compile_program("mitigate(4, H) { sleep(h) }; l := 1",
                             gamma={"h": "H", "l": "L"})
    base = Memory({"h": 0, "l": 0})
    variants = secret_variants(base, ({"h": v} for v in range(8)))
    compiled, ran = [], []
    post_init, run = full.Interpreter.__post_init__, full.Interpreter.run

    def counted_post_init(self):
        compiled.append(self)
        post_init(self)

    def counted_run(self):
        ran.append(self.memory.read("h"))
        return run(self)

    monkeypatch.setattr(full.Interpreter, "__post_init__", counted_post_init)
    monkeypatch.setattr(full.Interpreter, "run", counted_run)
    result = verify_theorem2(
        cp.program, cp.gamma, LAT, [H], L, base, NullHardware(LAT),
        variants, mitigate_pc=cp.typing.mitigate_pc,
    )
    assert len(compiled) == 1
    assert ran == list(range(8))
    assert result.leakage.runs == result.variations.runs == 8
    assert result.holds
