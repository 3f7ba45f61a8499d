"""Definition 2 and Theorem 2's dynamic side: the leakage meter.

The static side of Theorem 2 lives in :mod:`repro.quantitative.bounds`:
after elapsed time ``T`` with ``K`` relevant mitigate executions, at most
``|L^| * log2(K+1) * (1 + log2 T)`` bits can leak, because the observable
duration vectors of the relevant mitigations can take at most that many
distinct values (log-scale).  The :class:`DynamicLeakageMeter` is the
*measured* side and the repo's one Definition 2 implementation: fed one
finished :class:`~repro.semantics.full.ExecutionResult` at a time
(:meth:`DynamicLeakageMeter.observe`), it keeps the distinct duration and
id vectors of each run's relevant mitigations.  ``log2`` of the number of
distinct duration vectors is Definition 2's ``log|V|``, which can never
exceed the static bound; the meter makes the inequality executable
(:meth:`DynamicLeakageMeter.holds`) and raises
:class:`LeakageBoundViolation` on demand when it fails
(:meth:`DynamicLeakageMeter.assert_within_bound`).

Relevance follows Definition 2 exactly, through
:func:`repro.semantics.events.project_mitigations`: a completed mitigation
matters when its static ``pc`` label lies *outside* the upward closure
``L^`` of the varied levels (low context; no label counts as low) while
its mitigation level lies *inside* (high level).

For the default fast-doubling scheme the meter additionally checks the
per-command corollary: one mitigate command with initial estimate ``n``
can exhibit at most ``1 + floor(log2(T / max(n,1)))`` distinct padded
durations within elapsed time ``T``
(:func:`repro.quantitative.bounds.doubling_duration_count`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..lattice import Label, Lattice
from ..semantics.events import (
    mitigation_ids,
    mitigation_times,
    project_mitigations,
)

#: Numeric slack for comparing measured bits against closed-form bounds.
EPSILON = 1e-9


class LeakageBoundViolation(AssertionError):
    """Observed timing variation exceeded the static Theorem 2 bound."""


class DynamicLeakageMeter:
    """Definition 2's timing variations, fed one finished run at a time,
    checked against Theorem 2.

    Parameters
    ----------
    lattice:
        The program's security lattice.
    levels:
        The varied level set ``L`` (the levels whose data the adversary is
        trying to learn); defaults to every non-bottom level.
    adversary:
        The observer's level ``lA``; defaults to the lattice bottom.
    """

    def __init__(
        self,
        lattice: Lattice,
        levels: Optional[Iterable[Label]] = None,
        adversary: Optional[Label] = None,
    ):
        self.lattice = lattice
        self.levels: Tuple[Label, ...] = tuple(
            levels
            if levels is not None
            else (l for l in lattice.levels() if l != lattice.bottom)
        )
        self.adversary = adversary if adversary is not None else lattice.bottom
        self.upward = lattice.upward_closure(
            lattice.exclude_observable(self.levels, self.adversary)
        )
        #: ``V``: the distinct duration vectors of the relevant mitigations.
        self.variations: Set[Tuple[int, ...]] = set()
        #: The distinct id vectors of the relevant mitigations (one, for a
        #: well-typed program: Lemma 1).
        self.id_vectors: Set[Tuple[str, ...]] = set()
        #: Per-mitigate-command distinct padded durations (relevant only).
        self._per_command: Dict[str, Set[int]] = {}
        #: Smallest initial estimate seen per command (doubling corollary).
        self._estimates: Dict[str, int] = {}
        self.max_final_time = 0
        self.max_relevant_per_run = 0
        self.runs = 0

    def observe(self, result) -> None:
        """Fold one finished run (an ``ExecutionResult``) into the
        account: its relevant mitigations' duration and id vectors, its
        final clock and the per-command durations and estimates."""
        relevant = project_mitigations(
            result.mitigations, pc_not_in=self.upward, level_in=self.upward
        )
        self.variations.add(mitigation_times(relevant))
        self.id_vectors.add(mitigation_ids(relevant))
        self.runs += 1
        self.max_final_time = max(self.max_final_time, result.time)
        self.max_relevant_per_run = max(self.max_relevant_per_run,
                                        len(relevant))
        for record in relevant:
            mit_id = record.mit_id
            self._per_command.setdefault(mit_id, set()).add(record.duration)
            prior = self._estimates.get(mit_id)
            if prior is None or record.estimate < prior:
                self._estimates[mit_id] = record.estimate

    # -- accounting ------------------------------------------------------------

    @property
    def observed_variations(self) -> int:
        """``|V|``: the distinct relevant duration vectors observed so far
        (measured from below)."""
        return len(self.variations)

    @property
    def observed_bits(self) -> float:
        """``log2 |V|`` -- Theorem 2's leakage bound on the runs seen."""
        count = self.observed_variations
        return math.log2(count) if count else 0.0

    def static_bound_bits(self) -> float:
        """The Sec. 7 closed-form bound for what has been observed:
        ``|L^| * log2(K+1) * (1 + log2 T)`` with ``T`` the largest final
        clock and ``K`` the largest relevant-mitigation count per run."""
        from ..quantitative.bounds import leakage_bound

        return leakage_bound(
            self.lattice,
            self.levels,
            self.adversary,
            elapsed=self.max_final_time,
            relevant_mitigations=self.max_relevant_per_run,
        )

    def holds(self) -> bool:
        """Does the dynamic count respect the static bound?"""
        return self.observed_bits <= self.static_bound_bits() + EPSILON

    def doubling_violations(self) -> List[str]:
        """Per-command corollary check (fast-doubling scheme only): each
        command's distinct padded durations within ``T`` must number at most
        ``doubling_duration_count(estimate, T)``.  Returns violations."""
        from ..quantitative.bounds import doubling_duration_count

        out = []
        for mit_id, durations in self._per_command.items():
            allowed = doubling_duration_count(
                self._estimates[mit_id], self.max_final_time
            )
            if len(durations) > allowed:
                out.append(
                    f"{mit_id}: {len(durations)} distinct padded durations "
                    f"> doubling bound {allowed} "
                    f"(estimate {self._estimates[mit_id]}, "
                    f"T {self.max_final_time})"
                )
        return out

    def assert_within_bound(self, check_doubling: bool = False) -> None:
        """Raise :class:`LeakageBoundViolation` when the observed variation
        count exceeds the static bound (or, with ``check_doubling``, when a
        command beats the per-command doubling corollary)."""
        if not self.holds():
            raise LeakageBoundViolation(
                f"observed {self.observed_variations} deadline sequences "
                f"({self.observed_bits:.3f} bits) exceed the static bound "
                f"{self.static_bound_bits():.3f} bits"
            )
        if check_doubling:
            violations = self.doubling_violations()
            if violations:
                raise LeakageBoundViolation("; ".join(violations))

    # -- export ----------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """The ``leakage`` section of the telemetry JSON document."""
        return {
            "adversary": self.adversary.name,
            "varied_levels": [l.name for l in self.levels],
            "upward_closure": sorted(l.name for l in self.upward),
            "runs": self.runs,
            "relevant_mitigations_per_run": self.max_relevant_per_run,
            "observed_variations": self.observed_variations,
            "observed_bits": self.observed_bits,
            "static_bound_bits": self.static_bound_bits(),
            "within_bound": self.holds(),
            "per_command_distinct_durations": {
                mit_id: len(durations)
                for mit_id, durations in sorted(self._per_command.items())
            },
        }
