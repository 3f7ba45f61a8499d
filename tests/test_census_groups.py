"""One census walk per cost table, checked against one walk per model.

``quantify_all`` walks each group of models whose contracts charge a
program the same (:func:`~repro.analysis.quantify.census_groups`, keyed
by :meth:`~repro.hardware.costmodel.CostContract.census_key`) once, and
gives every other model of the group a copy of the report.  The
contracts build their step intervals once, up front.  Here, on every
case of the census golden (each compiling corpus program under both
schemes, and its budget-1 probe rewrite):

* the grouped census equals a plain ``quantify`` per model;
* changing one model's report changes no other model's;
* every contract's ``step_cost`` equals the per-step formula of the
  concrete model over a grid of steps, labels and abstract states.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.analysis.quantify import (
    census_groups, quantify, quantify_all, step_facts,
)
from repro.hardware import BranchPredictorParams
from repro.hardware.costmodel import (
    ZERO, CostContract, Interval, contract_for,
)
from repro.hardware.interface import StepKind
from repro.hardware.null import DEFAULT_COSTS
from repro.hardware.params import paper_machine
from repro.hardware.registry import REGISTRY
from repro.lang import ast
from repro.lang.parser import parse
from repro.lattice import two_point

from tests.test_cost_golden import (
    BUDGET1, BUDGET1_CASES, CENSUS_CASES, _compile, _fresh_ids,
)

MODELS = REGISTRY.names()


def _census_input(case: str):
    """The program, Gamma and scheme of one census golden case (program
    ``None`` when the file does not compile)."""
    scheme, path = case.removeprefix(BUDGET1).split("/", 1)
    with _fresh_ids():
        result = _compile(path)
    if result.program is not None and case.startswith(BUDGET1):
        for site in ast.mitigates(result.program):
            site.budget = ast.IntLit(1)
    return result.program, result.gamma, scheme


@pytest.mark.parametrize("case", CENSUS_CASES + BUDGET1_CASES)
def test_grouped_census_equals_one_walk_per_model(case):
    program, gamma, scheme = _census_input(case)
    if program is None:
        return  # the syntax fixture: nothing to walk
    grouped = quantify_all(program, gamma, scheme=scheme)
    assert list(grouped) == list(MODELS)
    for model in MODELS:
        alone = quantify(program, gamma, hardware=model, scheme=scheme)
        assert grouped[model].as_dict() == alone.as_dict(), model
        assert grouped[model] == alone, model


@pytest.mark.parametrize("path", [
    "examples/mitigate_demo.tl", "examples/lint/multi_bug.tl",
])
def test_reports_of_one_walk_share_no_records(path):
    program, gamma, scheme = _census_input(f"doubling/{path}")
    groups = census_groups(program, MODELS)
    assert any(len(members) > 1 for members in groups)
    reports = quantify_all(program, gamma, scheme=scheme)
    report = reports["standard"]
    assert report.sites and report.forks and report.notes
    for model in MODELS:
        before = {name: other.as_dict() for name, other in reports.items()
                  if name != model}
        changed = reports[model]
        for site in changed.sites.values():
            site.deadline_classes += 1
            site.body = Interval(0, None)
        for fork in changed.forks:
            fork.bits += 1.0
        for note in changed.notes:
            note.message += " (changed)"
        changed.sites.clear()
        changed.forks.clear()
        changed.notes.clear()
        after = {name: other.as_dict() for name, other in reports.items()
                 if name != model}
        assert after == before, model
        reports = quantify_all(program, gamma, scheme=scheme)


def test_models_sharing_a_cost_table_share_a_walk():
    program, _, _ = _census_input("doubling/examples/mitigate_demo.tl")
    names = [[name for name, _ in members]
             for members in census_groups(program, MODELS)]
    # Every command has lr = lw and the demo branches, on a machine with
    # no branch predictor: the bypass path and the predictor penalty
    # never apply, so the cache models charge alike; speculative's
    # flush penalty on a branch and frequency's clock set them apart.
    assert names == [["null"], ["standard", "nofill", "partitioned",
                                "leakytlb"],
                     ["bus"], ["writeback"], ["speculative"], ["frequency"]]
    # An alias is grouped under the name it was asked by.
    aliased = census_groups(program, ["standard", "nopar"])
    assert [[name for name, _ in members] for members in aliased] == [
        ["standard", "nopar"]]


def test_a_stateful_contract_needs_its_own_key():
    with pytest.raises(TypeError, match="initial_state"):
        class Counting(CostContract):
            def initial_state(self):
                return 0
    for model in ("bus", "writeback"):
        contract = contract_for(model)
        assert contract.census_key([]) == (type(contract), contract.params)


def test_step_facts_are_the_steps_charged():
    program = parse("x := y + a[i]; sleep(3); mitigate(h, H) { skip }")
    assert [None if facts is None else facts[:4]
            for facts in map(step_facts, program.walk())] == [
        None,  # a sequence charges no step
        (StepKind.ASSIGN, 3, 1, False),
        None,
        None,  # sleep never touches the hardware
        (StepKind.MITIGATE, 1, 0, False),
        (StepKind.SKIP, 0, 0, False),
    ]


# ---------------------------------------------------------------------------
# The per-step formulas, as the concrete models charge a step
# ---------------------------------------------------------------------------


def _fetch_and_data(p):
    fetch = Interval(p.l1_inst.latency,
                     p.inst_tlb.miss_penalty + p.l1_inst.latency
                     + p.l2_inst.latency + p.memory_latency)
    data = Interval(p.l1_data.latency,
                    p.data_tlb.miss_penalty + p.l1_data.latency
                    + p.l2_data.latency + p.memory_latency)
    return fetch, data


def _shared(p, kind, reads, writes, is_branch, lr, lw):
    """One hierarchy: every access may hit or miss."""
    fetch, data = _fetch_and_data(p)
    cost = Interval.exact(p.execute_cost) + fetch
    if is_branch:
        cost = cost + (ZERO if p.branch is None
                       else Interval(0, p.branch.penalty))
    return cost + data.scaled(reads + writes)


def _partitioned(p, kind, reads, writes, is_branch, lr, lw):
    """The cached path, or the exact bypass path when ``lr != lw``."""
    fetch, data = _fetch_and_data(p)
    bypass = p.execute_cost + fetch.hi + data.hi * (reads + writes)
    if is_branch and p.branch is not None:
        bypass += p.branch.penalty
    bypass = Interval.exact(bypass)
    cached = _shared(p, kind, reads, writes, is_branch, lr, lw)
    if lr is None or lw is None:
        return bypass.join(cached)
    return bypass if lr != lw else cached


def _reference(model, p, kind, reads, writes, is_branch, lr, lw, state):
    """``(interval, next state)`` of one step on ``model``."""
    step = (p, kind, reads, writes, is_branch, lr, lw)
    if model == "null":
        return Interval.exact(DEFAULT_COSTS[kind] + reads + writes), state
    if model in ("standard", "nofill"):
        return _shared(*step), state
    cost = _partitioned(*step)
    if model == "bus":
        q_lo, q_hi = state
        traffic = 1 + reads + writes

        def advance(q):
            return min(4096, max(0, q - 1) + traffic)
        return (Interval(2 * q_lo, 2 * q_hi) + cost,
                (advance(q_lo), advance(q_hi)))
    if model == "writeback":
        w_lo, w_hi = state
        return cost, (w_lo + writes, None if w_hi is None else w_hi + writes)
    if model == "speculative" and is_branch:
        return cost + Interval(0, 12), state
    if model == "frequency":
        return cost.stretched(2), state
    return cost, state


_LATTICE = two_point()
_LOW, _HIGH = _LATTICE.bottom, _LATTICE.top
#: Read/write label pairs: equal, unequal, and unknown on either side.
LABELS = [(_LOW, _LOW), (_HIGH, _HIGH), (_LOW, _HIGH), (_HIGH, _LOW),
          (None, _LOW), (_HIGH, None), (None, None)]
STATES = {"bus": [(0, 0), (3, 7), (4096, 4096)],
          "writeback": [(0, 0), (2, 9), (5, None)]}
MACHINES = {
    "paper": paper_machine(),
    "predictor": dataclasses.replace(paper_machine(),
                                     branch=BranchPredictorParams()),
}
KINDS = (StepKind.SKIP, StepKind.ASSIGN, StepKind.BRANCH,
         StepKind.MITIGATE)


@pytest.mark.parametrize("machine", list(MACHINES))
@pytest.mark.parametrize("model", MODELS)
def test_step_cost_equals_the_per_step_formula(model, machine):
    params = MACHINES[machine]
    contract = contract_for(model, params)
    for kind, reads, writes, is_branch, (lr, lw) in itertools.product(
            KINDS, range(4), range(2), (False, True), LABELS):
        for state in STATES.get(model, [()]):
            got = contract.step_cost(kind, reads, writes, is_branch,
                                     lr, lw, state)
            want = _reference(model, params, kind, reads, writes,
                              is_branch, lr, lw, state)
            assert got == want, (kind, reads, writes, is_branch, lr, lw,
                                 state)
