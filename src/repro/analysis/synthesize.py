"""Mitigation-policy synthesis: the cheapest policy under a bits budget.

Given a program, a channel-capacity budget ``B`` (bits), and a set of
hardware models, this module searches mitigate **placement** x prediction
**scheme** x per-site **budgets** for the policy minimizing a static
padded-cost objective (worst-case padded cycles, from the quantitative
census in :mod:`repro.analysis.quantify`) subject to::

    capacity(model) <= B   for every requested model

following the shortest-path synthesis framing of Tizpaz-Niari et al.
(arXiv:1906.08957).  The search is a small branch-and-bound:

* three placement skeletons -- the program **as written**, the minimal
  **auto** placement (:func:`repro.typesystem.suggest.auto_mitigate`
  re-run over the mitigate-stripped program), and a **whole-program**
  wrap at lattice top;
* per-site budget options derived from the site's body interval across
  the requested models (tight constant deadline ``hi + 1``, its
  power-of-two quantization, the written budget; a quantum ladder for
  unbounded bodies);
* candidates are ordered cheapest-first and pruned against the incumbent
  objective and a per-combo capacity estimate before the full per-model
  census confirms them.

The winner is emitted as a rewritten TL program plus a recommended
service :class:`~repro.service.workload.WorkloadSpec` fragment
(quantized release policy, scheme, quantum) per tenant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..hardware.costmodel import Interval
from ..lang import ast
from ..lang.parser import parse
from ..lang.pretty import pretty
from ..lattice import Label
from ..semantics.mitigation import make_scheme
from ..typesystem.environment import SecurityEnvironment
from ..typesystem.errors import TypingError
from ..typesystem.inference import infer_labels
from ..typesystem.suggest import UnmitigatableError, auto_mitigate
from .audit import DEFAULT_HORIZON
from .quantify import Census, QuantifyReport, deadline_span

#: Placement skeleton names, in deterministic search order.
PLACEMENTS = ("as-written", "auto", "whole-program")

#: Budget-option cap for unbounded bodies (quantum ladder rungs).
_LADDER_RUNGS = 6

#: Hard cap on budget combos per (placement, scheme) pair.
_MAX_COMBOS = 512


# ---------------------------------------------------------------------------
# Result model
# ---------------------------------------------------------------------------


@dataclass
class Candidate:
    """One evaluated policy."""

    placement: str
    scheme: str
    budgets: Tuple[int, ...]
    source: str
    #: model -> capacity bits (saturated models report inf).
    capacity: Dict[str, float] = field(default_factory=dict)
    #: Worst-case padded cycles across models (None = unbounded).
    objective: Optional[int] = None
    feasible: bool = False
    #: Recommended service quantum (power of two covering the worst
    #: deadline; the gateway's quantized release policy aligns to it).
    quantum: int = 1
    reports: Dict[str, QuantifyReport] = field(default_factory=dict)

    @property
    def objective_key(self) -> Tuple:
        """Deterministic ordering: bounded objectives first, then
        placement/scheme/budget order."""
        return (
            self.objective is None,
            self.objective if self.objective is not None else 0,
            PLACEMENTS.index(self.placement),
            self.scheme,
            self.budgets,
        )

    def worst_capacity(self) -> Tuple[str, float]:
        model = max(self.capacity, key=lambda m: self.capacity[m])
        return model, self.capacity[model]

    def as_dict(self) -> dict:
        model, bits = (
            self.worst_capacity() if self.capacity else ("-", 0.0)
        )
        return {
            "placement": self.placement,
            "scheme": self.scheme,
            "budgets": list(self.budgets),
            "quantum": self.quantum,
            "objective": self.objective,
            "feasible": self.feasible,
            "capacity_bits": {
                name: (None if math.isinf(v) else round(v, 4))
                for name, v in sorted(self.capacity.items())
            },
            "worst_model": model,
            "worst_capacity_bits": (
                None if math.isinf(bits) else round(bits, 4)
            ),
            "program": self.source,
        }


@dataclass
class TuneResult:
    """The whole synthesis outcome (the ``repro.tune/1`` payload)."""

    bits_budget: float
    models: Tuple[str, ...]
    horizon: int
    baseline: Candidate
    best: Optional[Candidate]
    explored: int
    pruned: int
    skipped_placements: Dict[str, str] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.best is not None and self.best.feasible

    @property
    def improved(self) -> bool:
        """Does the winner strictly beat the baseline objective?"""
        if self.best is None or self.best.objective is None:
            return False
        if self.baseline.objective is None:
            return True
        return self.best.objective < self.baseline.objective

    def spec_fragment(
        self, tenants: Sequence[str] = ()
    ) -> dict:
        """A WorkloadSpec fragment carrying the recommended policy."""
        winner = self.best if self.best is not None else self.baseline
        fragment = {
            "policy": "quantized",
            "quantum": winner.quantum,
            "scheme": winner.scheme,
            "penalty": "local",
        }
        if tenants:
            fragment["tenants"] = [
                {
                    "name": name,
                    "config": {
                        "mitigate_budgets": list(winner.budgets),
                    },
                }
                for name in tenants
            ]
        return fragment

    def as_dict(self) -> dict:
        return {
            "schema": "repro.tune/1",
            "bits_budget": self.bits_budget,
            "models": list(self.models),
            "horizon": self.horizon,
            "feasible": self.feasible,
            "improved": self.improved,
            "baseline": self.baseline.as_dict(),
            "best": None if self.best is None else self.best.as_dict(),
            "spec": self.spec_fragment(),
            "search": {
                "explored": self.explored,
                "pruned": self.pruned,
                "skipped_placements": dict(
                    sorted(self.skipped_placements.items())
                ),
            },
        }


# ---------------------------------------------------------------------------
# Skeleton construction
# ---------------------------------------------------------------------------


def _clone(program: ast.Command,
           gamma: SecurityEnvironment) -> ast.Command:
    """A structural copy with fresh node ids and re-inferred labels, at
    the spans of the commands it copies (pretty-printing and parsing keep
    the labeled commands one-to-one, in preorder), so an error found on
    the copy cites the user's line."""
    clone = parse(pretty(program), gamma.lattice)
    copies = [cmd for cmd in clone.walk() if cmd.labeled()]
    originals = [cmd for cmd in program.walk() if cmd.labeled()]
    assert len(copies) == len(originals)
    for copy, original in zip(copies, originals):
        copy.span = original.span
    try:
        infer_labels(clone, gamma)
    except TypingError:
        pass  # tolerate ill-typed inputs; contracts fall back to joins
    return clone


def strip_mitigates(cmd: ast.Command) -> ast.Command:
    """The program with every mitigate replaced by its body (in place on
    the given tree; clone first if the original matters)."""
    if isinstance(cmd, ast.Seq):
        return ast.seq(
            strip_mitigates(cmd.first), strip_mitigates(cmd.second)
        )
    if isinstance(cmd, ast.Mitigate):
        return strip_mitigates(cmd.body)
    if isinstance(cmd, ast.If):
        cmd.then_branch = strip_mitigates(cmd.then_branch)
        cmd.else_branch = strip_mitigates(cmd.else_branch)
        return cmd
    if isinstance(cmd, ast.While):
        cmd.body = strip_mitigates(cmd.body)
        return cmd
    return cmd


def _skeleton(
    placement: str,
    program: ast.Command,
    gamma: SecurityEnvironment,
) -> ast.Command:
    """Build one placement skeleton (every mitigate budget reset to 1)."""
    if placement == "as-written":
        skeleton = _clone(program, gamma)
    elif placement == "auto":
        stripped = strip_mitigates(_clone(program, gamma))
        rewritten, _ = auto_mitigate(stripped, gamma, budget=1)
        skeleton = _clone(rewritten, gamma)
    elif placement == "whole-program":
        stripped = strip_mitigates(_clone(program, gamma))
        top = gamma.lattice.top
        bottom = gamma.lattice.bottom
        wrapped = ast.Mitigate(
            budget=ast.IntLit(1), level=top, body=stripped,
            read_label=bottom, write_label=bottom,
        )
        skeleton = _clone(wrapped, gamma)
    else:
        raise ValueError(f"unknown placement {placement!r}")
    for site in ast.mitigates(skeleton):
        site.budget = ast.IntLit(1)
    return skeleton


def _apply_budgets(skeleton: ast.Command,
                   budgets: Sequence[int]) -> None:
    for site, budget in zip(ast.mitigates(skeleton), budgets):
        site.budget = ast.IntLit(int(budget))


def _pow2ceil(value: int) -> int:
    value = max(int(value), 1)
    return 1 << (value - 1).bit_length()


def _budget_options(
    body: Interval,
    written: Optional[int],
    horizon: int,
) -> Tuple[int, ...]:
    """Candidate initial budgets for one site, cheapest-deadline first."""
    options: List[int] = []

    def add(value: Optional[int]) -> None:
        if value is None:
            return
        value = max(int(value), 1)
        if value not in options:
            options.append(value)

    if body.hi is not None:
        # Tight constant deadline: body always lands below the first
        # prediction, so the padded duration is exactly hi + 1 and the
        # deadline sequence degenerates to one class.
        add(body.hi + 1)
        add(_pow2ceil(body.hi + 1))
    else:
        # Unbounded body: a ladder of power-of-two quanta between the
        # body's floor and the horizon trades padding for classes.
        top = _pow2ceil(max(horizon, 2))
        rung = top
        floor = max(body.lo, 1)
        for _ in range(_LADDER_RUNGS):
            add(rung)
            if rung <= floor:
                break
            rung = max(rung // 8, 1)
    add(written)
    return tuple(options)


def _combos(per_site: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """The cartesian product of per-site options, capped and ordered."""
    combos: List[Tuple[int, ...]] = [()]
    for options in per_site:
        combos = [
            combo + (option,)
            for combo in combos
            for option in options
        ]
        if len(combos) > _MAX_COMBOS:
            combos = combos[:_MAX_COMBOS]
    return combos


# ---------------------------------------------------------------------------
# The search
# ---------------------------------------------------------------------------


def _evaluate(
    census: Census,
    placement: str,
    scheme: str,
    budgets: Tuple[int, ...],
    bits_budget: float,
) -> Candidate:
    # Score on the skeleton in place: a candidate keeps its budgets and
    # its source text, never the tree the next candidate rewrites.  The
    # budgets are literals, so the skeleton's census memo still holds.
    skeleton = census.program
    _apply_budgets(skeleton, budgets)
    reports = census.reports(scheme)
    capacity: Dict[str, float] = {}
    objective: Optional[int] = 0
    worst_deadline = 1
    for model, report in reports.items():
        capacity[model] = (
            math.inf if report.saturated else report.capacity_bits
        )
        if report.padded.hi is None:
            objective = None
        elif objective is not None:
            objective = max(objective, report.padded.hi)
        for site in report.sites.values():
            if site.padded_hi is not None:
                worst_deadline = max(worst_deadline, site.padded_hi)
    feasible = all(
        not report.exceeds(bits_budget) for report in reports.values()
    )
    return Candidate(
        placement=placement,
        scheme=scheme,
        budgets=budgets,
        source=pretty(skeleton),
        capacity=capacity,
        objective=objective,
        feasible=feasible,
        quantum=_pow2ceil(worst_deadline),
        reports=reports,
    )


def _estimate(
    skeleton_reports: Dict[str, QuantifyReport],
    scheme: str,
    budgets: Dict[str, int],
    horizon: int,
) -> Tuple[float, int]:
    """Cheap per-combo (capacity_estimate, objective_lower_bound) from the
    budget-1 skeleton census, without re-walking the program.
    ``budgets`` maps each site's ``mit_id`` to its budget."""
    predictor = make_scheme(scheme)
    worst_bits = 0.0
    objective_lb = 0
    for model, report in skeleton_reports.items():
        # Capacity the budgets cannot touch: whatever the probe census
        # shows beyond its own deadline quantization (unmitigated forks,
        # widened sleeps).  Saturated probes are not trusted -- a larger
        # budget may be exactly what de-saturates them.
        residual = 0.0 if report.saturated else max(
            report.capacity_bits - report.deadline_fork_bits, 0.0
        )
        bits = residual
        model_lb = 0
        for site in report.sites.values():
            budget = budgets[site.mit_id]
            m_lo, m_hi = deadline_span(
                predictor, budget, 0, site.body, horizon
            )
            if site.deadline_classes > 1 or site.body.hi is None:
                bits += math.log2(m_hi - m_lo + 1)
            # Any path through the site pads to at least its first
            # deadline, so the padded worst case is at least this much.
            model_lb = max(
                model_lb, predictor.predict(budget, m_lo)
            )
        worst_bits = max(worst_bits, bits)
        objective_lb = max(objective_lb, model_lb)
    return worst_bits, objective_lb


def synthesize(
    program: ast.Command,
    gamma: SecurityEnvironment,
    bits_budget: float,
    models: Optional[Sequence[str]] = None,
    schemes: Sequence[str] = ("doubling", "polynomial"),
    placements: Sequence[str] = PLACEMENTS,
    observer: Optional[Label] = None,
    horizon: int = DEFAULT_HORIZON,
) -> TuneResult:
    """Branch-and-bound over placement x scheme x per-site budgets.

    Returns the baseline evaluation (the program as written, budgets as
    written) and the cheapest feasible candidate, if any.
    """
    if models is None:
        from ..hardware.registry import REGISTRY

        models = list(REGISTRY.names())
    models = tuple(models)

    def census_of(placement: str) -> Census:
        return Census(_skeleton(placement, program, gamma), gamma, models,
                      observer, horizon)

    # Baseline: the program exactly as written, scored on the as-written
    # skeleton at the written budgets (so it shares that skeleton's
    # census memo).
    written_budgets = tuple(
        max(b, 1) if (b := _const_budget(site)) is not None else 1
        for site in ast.mitigates(program)
    )
    as_written = census_of("as-written")
    baseline = _evaluate(as_written, "as-written", "doubling",
                         written_budgets, bits_budget)

    explored = 1
    pruned = 0
    skipped: Dict[str, str] = {}
    incumbent: Optional[Candidate] = (
        baseline if baseline.feasible else None
    )

    for placement in placements:
        if placement == "as-written":
            census = as_written
        else:
            try:
                census = census_of(placement)
            except (UnmitigatableError, TypingError) as err:
                skipped[placement] = str(err)
                continue
        sites = ast.mitigates(census.program)
        if placement != "as-written" and not sites:
            # Nothing to place: identical to the stripped program; only
            # worth evaluating once, under one scheme.
            scheme_list: Sequence[str] = schemes[:1]
        else:
            scheme_list = schemes
        for scheme in scheme_list:
            # Census the budget-1 skeleton once per model: per-site body
            # intervals for budget options + the pruning estimates.
            probe = _evaluate(census, placement, scheme,
                              tuple(1 for _ in sites), bits_budget)
            explored += 1
            if incumbent is None or (
                    probe.feasible
                    and probe.objective_key < incumbent.objective_key):
                incumbent = probe if probe.feasible else incumbent
            # Options per site, in preorder like the budgets, found by
            # mit_id in the census (whose sites are in walk order).
            per_site = []
            for index, site in enumerate(sites):
                written = (written_budgets[index]
                           if placement == "as-written" else None)
                bodies = [report.sites[site.mit_id].body
                          for report in probe.reports.values()
                          if site.mit_id in report.sites]
                if not bodies:
                    # Unreached: nothing to size, so its budget is moot.
                    per_site.append((written or 1,))
                    continue
                per_site.append(_budget_options(
                    functools.reduce(Interval.join, bodies), written,
                    horizon,
                ))
            ids = [site.mit_id for site in sites]
            for combo in _combos(per_site):
                if combo == probe.budgets:
                    continue  # the probe already covered it
                bits_est, objective_lb = _estimate(
                    probe.reports, scheme, dict(zip(ids, combo)), horizon
                )
                if bits_est > bits_budget + 1e-9 and (
                        incumbent is not None):
                    pruned += 1
                    continue
                if (incumbent is not None
                        and incumbent.objective is not None
                        and objective_lb >= incumbent.objective
                        and incumbent.feasible):
                    pruned += 1
                    continue
                candidate = _evaluate(census, placement, scheme, combo,
                                      bits_budget)
                explored += 1
                if candidate.feasible and (
                        incumbent is None
                        or candidate.objective_key
                        < incumbent.objective_key):
                    incumbent = candidate

    return TuneResult(
        bits_budget=bits_budget,
        models=models,
        horizon=horizon,
        baseline=baseline,
        best=incumbent,
        explored=explored,
        pruned=pruned,
        skipped_placements=skipped,
    )


def _const_budget(site: ast.Mitigate) -> Optional[int]:
    from .dataflow import eval_const

    return eval_const(site.budget, {})
