"""Static Theorem 2 leakage audit, per mitigate site.

Theorem 2 bounds the leakage to an adversary at ``lA`` by::

    |L^_{lA}| * log2(K + 1) * (1 + log2 T)

where ``L^_{lA}`` is the upward closure of the mitigation levels not
observable at ``lA`` and ``K`` counts relevant mitigate executions.  The
dynamic side is measured by :mod:`repro.telemetry.leakage`; this module
computes the *static* side from the typing derivation alone: which mitigate
sites are relevant (low context, level above the adversary), what each
contributes to the closure term, and the resulting bound for a given time
horizon ``T``.  A site's marginal contribution is the bound delta from
removing it -- the audit makes visible which ``mitigate`` commands are
buying the program its leakage budget and which are inflating it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from ..hardware.costmodel import Interval
from ..lang import ast
from ..lattice import Label, Lattice
from ..quantitative.bounds import leakage_bound, relevant_level_count
from ..typesystem.typing import TypingInfo

#: Default time horizon for the bound's ``(1 + log2 T)`` term: 2^20 cycles.
DEFAULT_HORIZON = 1 << 20


@dataclass(frozen=True)
class MitigateSite:
    """One mitigate command's entry in the audit."""

    mit_id: str
    span: ast.Span
    node_id: int
    pc: Label
    level: Label
    relevant: bool
    reason: str
    contribution_bits: float
    #: False when constant-pruned control flow proves the site never runs.
    reachable: bool = True
    #: Static unpadded cycle bounds for the site's body (the `null`
    #: contract's exact facts), when the cost analysis saw the site run.
    static_cost: Optional[Interval] = None


@dataclass(frozen=True)
class LeakageAudit:
    """The whole static Theorem 2 account."""

    adversary: Label
    horizon: int
    sites: Tuple[MitigateSite, ...]
    closure_size: int
    relevant_count: int
    bound_bits: float
    #: What a purely syntactic count (every mitigate in the text, reachable
    #: or not) would have reported.  Equal to the headline numbers when the
    #: dataflow layer pruned nothing.
    syntactic_closure_size: int = 0
    syntactic_relevant_count: int = 0
    syntactic_bound_bits: float = 0.0

    @property
    def pruned_count(self) -> int:
        """How many syntactically-relevant sites dataflow pruning dropped."""
        return self.syntactic_relevant_count - self.relevant_count

    def as_dict(self) -> dict:
        return {
            "adversary": self.adversary.name,
            "horizon": self.horizon,
            "closure_size": self.closure_size,
            "relevant_count": self.relevant_count,
            "bound_bits": self.bound_bits,
            "syntactic": {
                "closure_size": self.syntactic_closure_size,
                "relevant_count": self.syntactic_relevant_count,
                "bound_bits": self.syntactic_bound_bits,
                "pruned_count": self.pruned_count,
            },
            "sites": [
                {
                    "mit_id": site.mit_id,
                    "line": site.span.line,
                    "column": site.span.column,
                    "pc": site.pc.name,
                    "level": site.level.name,
                    "relevant": site.relevant,
                    "reachable": site.reachable,
                    "reason": site.reason,
                    "contribution_bits": site.contribution_bits,
                    "static_cost": (
                        None if site.static_cost is None
                        else [site.static_cost.lo, site.static_cost.hi]
                    ),
                }
                for site in self.sites
            ],
        }


def _bound_for(lattice: Lattice, levels: List[Label], adversary: Label,
               horizon: int) -> float:
    """The Sec. 7 bound with ``K = |levels|`` (0 bits for no levels)."""
    return leakage_bound(
        lattice, levels, adversary, horizon, relevant_mitigations=len(levels)
    )


def audit_leakage(
    program: ast.Command,
    lattice: Lattice,
    typing: TypingInfo,
    adversary: Optional[Label] = None,
    horizon: int = DEFAULT_HORIZON,
    reachable: Optional[FrozenSet[int]] = None,
    cost: Optional[object] = None,
) -> LeakageAudit:
    """Account every mitigate site against the Theorem 2 bound.

    A site is *relevant* when its static context is observable to the
    adversary (``pc(M) <= lA`` -- the adversary sees that the command runs)
    and its level is not (``lev(M) !<= lA`` -- its padded duration can vary
    with confidential data).  ``typing`` may come from the error-recovering
    collector, so the audit also works on ill-typed programs.

    ``reachable`` (from :func:`repro.analysis.cfg.reachable_commands`,
    typically constant-pruned) tightens the count: a mitigate the control
    flow provably never reaches cannot execute, so it joins neither the
    ``K`` count nor the ``L^`` closure.  The headline ``bound_bits`` is the
    reachable bound; the syntactic numbers a text-only audit would have
    reported are kept alongside so the delta is visible.

    ``cost`` (a :class:`repro.analysis.cost.CostReport`) adds a static
    unpadded-cycle column per site, so the audit shows both what each
    mitigate *leaks* (bits) and what it must *cover* (cycles).
    """
    adversary = adversary if adversary is not None else lattice.bottom
    relevant_levels: List[Label] = []
    syntactic_levels: List[Label] = []
    raw: List[Tuple[ast.Mitigate, Label, bool, str, bool]] = []
    for cmd in ast.mitigates(program):
        is_reachable = reachable is None or cmd.node_id in reachable
        pc = typing.mitigate_pc.get(cmd.mit_id)
        if pc is None:
            raw.append((cmd, lattice.bottom, False, "not typed",
                        is_reachable))
            continue
        if not pc.flows_to(adversary):
            raw.append((cmd, pc, False,
                        f"high context: pc {pc} is invisible at "
                        f"{adversary}", is_reachable))
            continue
        if cmd.level.flows_to(adversary):
            raw.append((cmd, pc, False,
                        f"level {cmd.level} is already observable at "
                        f"{adversary}", is_reachable))
            continue
        syntactic_levels.append(cmd.level)
        if not is_reachable:
            raw.append((cmd, pc, False,
                        "unreachable: constant-pruned control flow never "
                        "gets here", is_reachable))
            continue
        raw.append((cmd, pc, True, "", is_reachable))
        relevant_levels.append(cmd.level)

    total = _bound_for(lattice, relevant_levels, adversary, horizon)
    syntactic_total = _bound_for(
        lattice, syntactic_levels, adversary, horizon
    )
    sites: List[MitigateSite] = []
    index = 0
    cost_sites = getattr(cost, "mitigates", {}) if cost is not None else {}
    for cmd, pc, relevant, reason, is_reachable in raw:
        contribution = 0.0
        if relevant:
            without = (
                relevant_levels[:index] + relevant_levels[index + 1:]
            )
            contribution = total - _bound_for(
                lattice, without, adversary, horizon
            )
            index += 1
        cost_site = cost_sites.get(cmd.mit_id)
        sites.append(MitigateSite(
            mit_id=cmd.mit_id,
            span=cmd.span,
            node_id=cmd.node_id,
            pc=pc,
            level=cmd.level,
            relevant=relevant,
            reason=reason,
            contribution_bits=contribution,
            reachable=is_reachable,
            static_cost=None if cost_site is None else cost_site.interval,
        ))
    return LeakageAudit(
        adversary=adversary,
        horizon=horizon,
        sites=tuple(sites),
        closure_size=relevant_level_count(lattice, relevant_levels, adversary),
        relevant_count=len(relevant_levels),
        bound_bits=total,
        syntactic_closure_size=relevant_level_count(
            lattice, syntactic_levels, adversary),
        syntactic_relevant_count=len(syntactic_levels),
        syntactic_bound_bits=syntactic_total,
    )
