"""A census memo that outlives one walk, checked against one walk each.

Walks of one program share a :class:`~repro.analysis.quantify.WalkMemo`
for as long as its caller keeps it: ``quantify_all`` for one call, the
``repro tune`` search for one placement skeleton, whose literal budgets
it rewrites in place between walks.  A memoized body walk records its
table effects and applies them wherever it is reused.  Here:

* on every budget-1 case of the census golden (both schemes), one
  :class:`~repro.analysis.quantify.Census` censuses the program at
  budgets 1, then as written, then 1 again, and each census equals a
  one-walk census field for field; cost walks sharing one memo equal
  ``compute_cost``'s tables;
* on the tune examples, every candidate ``synthesize`` scores has the
  reports of a one-walk ``quantify_all`` of its skeleton at its budgets.
"""

from __future__ import annotations

from importlib import import_module
from unittest import mock

import pytest

from repro.analysis.audit import DEFAULT_HORIZON
from repro.analysis.cost import compute_cost
from repro.analysis.quantify import (
    Census, CensusWalker, WalkMemo, quantify_all,
)
from repro.hardware.registry import REGISTRY
from repro.lang import ast
from repro.semantics.mitigation import DoublingScheme

from tests.test_census_groups import _census_input
from tests.test_cost_golden import BUDGET1, BUDGET1_CASES, ROOT

MODELS = REGISTRY.names()
#: The module (the package exports its ``synthesize`` function).
synthesis = import_module("repro.analysis.synthesize")


def _fields(report):
    """Every field of a census, its sites, forks and notes in order."""
    return (report, list(report.sites.items()), report.forks, report.notes,
            report.as_dict())


def _set_budgets(program, budgets):
    for site, budget in zip(ast.mitigates(program), budgets):
        site.budget = ast.IntLit(budget)


@pytest.mark.parametrize("case", BUDGET1_CASES)
def test_a_skeleton_memo_changes_no_census(case):
    # The as-written program: the case names its budget-1 rewrite.
    program, gamma, scheme = _census_input(case.removeprefix(BUDGET1))
    written = [site.budget.value for site in ast.mitigates(program)]
    ones = [1] * len(written)
    census = Census(program, gamma)
    cost_memo = WalkMemo()
    for budgets in (ones, written, ones):
        _set_budgets(program, budgets)
        alone = quantify_all(program, gamma, scheme=scheme)
        shared = census.reports(scheme)
        assert list(shared) == list(alone) == list(MODELS)
        for model in MODELS:
            assert _fields(shared[model]) == _fields(alone[model]), (
                budgets, model)
        for (_, contract), *_ in census.groups:
            walker = CensusWalker(contract, DoublingScheme(),
                                  DEFAULT_HORIZON, memo=cost_memo)
            (final,) = walker.walk(program)
            tables = walker.tables
            cost = compute_cost(program, contract=contract)
            assert (final.unpadded, final.span) == (cost.program,
                                                    cost.padded)
            assert list(tables.per_command.items()) == list(
                cost.per_command.items())
            assert list(tables.branches.items()) == list(
                cost.branches.items())
            assert list(tables.loops.items()) == list(cost.loops.items())
            assert tables.widenings == cost.notes
            assert [(mit_id, site.unpadded)
                    for mit_id, site in walker.sites.items()] == [
                (mit_id, site.interval)
                for mit_id, site in cost.mitigates.items()]


@pytest.mark.parametrize("path", sorted(
    str(path.relative_to(ROOT)) for path in ROOT.glob("examples/tune/*.tl")))
def test_every_candidate_equals_a_one_walk_census(path):
    program, gamma, _ = _census_input(f"doubling/{path}")
    scored = []
    evaluate = synthesis._evaluate

    def checked(census, placement, scheme, budgets, bits_budget):
        candidate = evaluate(census, placement, scheme, budgets,
                             bits_budget)
        # The skeleton still carries this candidate's budgets.
        alone = quantify_all(census.program, gamma, scheme=scheme)
        for model in MODELS:
            assert _fields(candidate.reports[model]) == _fields(
                alone[model]), (placement, scheme, budgets, model)
        scored.append(candidate)
        return candidate

    with mock.patch.object(synthesis, "_evaluate", checked):
        result = synthesis.synthesize(program, gamma, 0.0)
    assert len(scored) == result.explored
    assert {candidate.placement for candidate in scored} == {
        "as-written", "auto", "whole-program"}
