"""Soundness of the static cycle-cost analyzer on random programs.

The property mirrors the corpus cross-check in ``tests/test_cost.py``
but over *generated* straight-line and bounded-loop programs: for every
hardware model in the registry, the profiler-observed unpadded cycles of
a concrete run must fall inside the static ``[lo, hi]`` interval that
:func:`repro.analysis.cost.compute_cost` derived without running
anything.  All variables are labeled H so no program is rejected by the
type system -- the generator's job is to stress the interpreter's
arithmetic and control flow, not information-flow typing.

A second property wraps such programs, with nested budget-1 mitigates
among their statements, in ``mitigate(1, H)``: on every expected-secure
model the census's padded interval must contain each run's end time.
"""

from hypothesis import given, settings, strategies as st

from repro import api
from repro.analysis.cost import default_memory, replay_program
from repro.analysis.quantify import quantify
from repro.hardware.registry import REGISTRY
from repro.semantics.mitigation import MitigationState, make_scheme

NAMES = ("h", "x", "y")

GAMMA = "// gamma: " + ", ".join(f"{n}=H" for n in NAMES + ("i",)) + "\n"

_atoms = st.integers(min_value=0, max_value=15).map(str) | st.sampled_from(
    NAMES
)

_exprs = st.recursive(
    _atoms,
    lambda inner: st.tuples(
        inner, st.sampled_from(["+", "-", "*", "&", "|", "^"]), inner
    ).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    max_leaves=5,
)

_assign = st.tuples(st.sampled_from(NAMES), _exprs).map(
    lambda t: f"{t[0]} := {t[1]}"
)

_sleep = st.integers(min_value=0, max_value=8).map(lambda n: f"sleep({n})")


def _branch(stmts):
    return st.tuples(_exprs, stmts, stmts).map(
        lambda t: f"if {t[0]} > 0 then {{ {t[1]} }} else {{ {t[2]} }}"
    )


def _bounded_loop(stmts):
    # The counter `i` is written only here, so constant propagation sees
    # the bound and the analyzer unrolls instead of widening.
    return st.tuples(st.integers(min_value=1, max_value=3), stmts).map(
        lambda t: (
            f"i := {t[0]};\n"
            f"while i > 0 do {{ {t[1]};\ni := i - 1 }}"
        )
    )


_stmts = st.recursive(
    _assign | _sleep,
    lambda inner: st.lists(inner, min_size=1, max_size=3)
    .map(lambda body: ";\n".join(body))
    .flatmap(lambda seq: st.just(seq) | _branch(st.just(seq))
             | _bounded_loop(st.just(seq))),
    max_leaves=4,
)

_programs = st.lists(_stmts, min_size=1, max_size=4).map(
    lambda body: GAMMA + ";\n".join(body) + "\n"
)


@settings(max_examples=25)
@given(source=_programs)
def test_observed_cycles_within_static_interval(source):
    for hardware in REGISTRY.names():
        check = replay_program(source, hardware=hardware)
        assert check.status == "checked", (hardware, check.reason, source)
        assert not check.violations, (hardware, check.violations, source)
        assert any(o.region == "<program>" for o in check.observations)


# -- padded soundness through budget-1 mitigates ------------------------------

SECRETS = (0, 1, 2, 3, 5, 9)


def _mitigate(stmts):
    return st.tuples(st.sampled_from([1, 2, 16]), stmts).map(
        lambda t: f"mitigate({t[0]}, H) {{ {t[1]} }}"
    )


_mitigated_stmts = st.recursive(
    _assign | _sleep,
    lambda inner: st.lists(inner, min_size=1, max_size=3)
    .map(lambda body: ";\n".join(body))
    .flatmap(lambda seq: st.just(seq) | _branch(st.just(seq))
             | _bounded_loop(st.just(seq)) | _mitigate(st.just(seq))),
    max_leaves=5,
)

_mitigated_programs = st.lists(_mitigated_stmts, min_size=1,
                               max_size=3).map(
    lambda body: "mitigate(1, H) {\n" + ";\n".join(body) + "\n}\n"
)


@settings(max_examples=8, deadline=None)
@given(source=_mitigated_programs)
def test_padded_interval_covers_mitigated_runs(source):
    # The census's padded interval bounds the end time of every run, also
    # when budget-1 sites fan the deadlines out and nest: each run starts
    # from a fresh Miss array under the census's own scheme.
    compiled = api.compile_program(
        source, gamma={name: "H" for name in NAMES + ("i",)}
    )
    for spec in REGISTRY.specs(secure=True):
        for scheme in ("doubling", "polynomial"):
            padded = quantify(compiled.program, compiled.gamma,
                              hardware=spec.name, scheme=scheme).padded
            for secret in SECRETS:
                memory = default_memory(compiled.program)
                memory["h"] = secret
                result = compiled.run(
                    memory, hardware=spec.name,
                    mitigation=MitigationState(make_scheme(scheme)),
                )
                assert padded.contains(result.final_time()), (
                    spec.name, scheme, secret, padded, source)
