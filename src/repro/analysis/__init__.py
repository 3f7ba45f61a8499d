"""Static analysis over the security-typed language.

The type system (Fig. 4) stops at the first violation; this package turns
it into a multi-pass *lint engine* that reports every finding in one run:

* :mod:`.diagnostics` -- the :class:`Diagnostic` model: stable ``TL0xx``
  rule codes, severities, source spans, optional fix-its, flow paths;
* :mod:`.rules` -- the rule registry (catalog in ``docs/ANALYSIS.md``);
* :mod:`.collector` -- an error-recovery driver around
  :class:`repro.typesystem.typing.TypeChecker` that records each failed
  side condition and continues with the rule's natural recovery label;
* :mod:`.cfg` -- the control-flow graph builder (basic blocks with spans,
  branch/loop/mitigate edges, constant-pruned reachability);
* :mod:`.dataflow` -- a generic forward worklist solver with reaching
  definitions and constant propagation;
* :mod:`.flows` -- the timing-dependence graph (which sources influence
  each command's start time, mirroring T-ASGN/T-IF/T-WHILE) and the
  source->sink path explanations behind ``repro lint --explain``;
* :mod:`.lints` -- timing-channel lints beyond the type system
  (secret-dependent sleeps, degenerate or redundant mitigations, and the
  dataflow-backed TL017-TL020);
* :mod:`.cost` -- the static cycle-cost analyzer: interval bounds
  ``[lo, hi]`` per command/region/mitigate under per-hardware cost
  contracts, the TL021-TL025 inputs, and the profiler soundness
  cross-check behind ``repro cost``;
* :mod:`.audit` -- the static Theorem 2 leakage audit per mitigate site,
  with reachability-tightened vs. syntactic bounds;
* :mod:`.quantify` -- the quantitative leakage solver: a path-sensitive
  census of timing-equivalence classes per hardware model (channel
  capacity in bits, the TL026-TL028 inputs);
* :mod:`.synthesize` -- mitigation-placement synthesis
  (``repro tune``): branch-and-bound over placement x scheme x budgets
  under a bits budget;
* :mod:`.render` -- the ``lint``/``cost``/``tune`` JSON documents, their
  text (with carets) rendered from them, and SARIF 2.1.0 (codeFlows,
  relatedLocations, partialFingerprints);
* :mod:`.engine` -- the driver tying it together (``repro lint``).
"""

from .audit import LeakageAudit, MitigateSite, audit_leakage
from .cost import CostReport, check_corpus, compute_cost, replay_program
from .cfg import CFG, build_cfg, cfg_to_dot, reachable_commands
from .collector import CollectingTypeChecker, collect_typing_diagnostics
from .dataflow import (
    ConstantPropagation,
    ReachingDefinitions,
    Solution,
    solve,
)
from .diagnostics import Diagnostic, FlowStep, Severity
from .engine import LintOptions, LintResult, analyze_program, analyze_source
from .flows import (
    FlowExplainer,
    TimingDependenceGraph,
    build_tdg,
    tdg_to_dot,
)
from .quantify import (
    QuantifyReport,
    SiteQuant,
    TimingClass,
    quantify,
    quantify_all,
)
from .render import render_json, render_lint, render_sarif
from .rules import RULES, Rule
from .synthesize import Candidate, TuneResult, synthesize

__all__ = [
    "CFG",
    "Candidate",
    "CostReport",
    "CollectingTypeChecker",
    "ConstantPropagation",
    "Diagnostic",
    "FlowExplainer",
    "FlowStep",
    "LeakageAudit",
    "LintOptions",
    "LintResult",
    "MitigateSite",
    "QuantifyReport",
    "RULES",
    "ReachingDefinitions",
    "Rule",
    "Severity",
    "SiteQuant",
    "Solution",
    "TimingClass",
    "TimingDependenceGraph",
    "TuneResult",
    "analyze_program",
    "analyze_source",
    "audit_leakage",
    "build_cfg",
    "build_tdg",
    "cfg_to_dot",
    "check_corpus",
    "collect_typing_diagnostics",
    "compute_cost",
    "quantify",
    "quantify_all",
    "reachable_commands",
    "render_json",
    "render_lint",
    "render_sarif",
    "replay_program",
    "solve",
    "synthesize",
    "tdg_to_dot",
]
