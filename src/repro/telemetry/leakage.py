"""Dynamic leakage accounting: Theorem 2 checked against live runs.

The static side of Theorem 2 lives in :mod:`repro.quantitative.bounds`:
after elapsed time ``T`` with ``K`` relevant mitigate executions, at most
``|L^| * log2(K+1) * (1 + log2 T)`` bits can leak, because the observable
duration vectors of the relevant mitigations can take at most that many
distinct values (log-scale).  The :class:`DynamicLeakageMeter` measures the
*dynamic* side: it watches every completed ``mitigate`` during execution,
keeps the deadline (padded-duration) sequence of each run's relevant
mitigations, and counts how many *distinct* sequences have actually been
observed.  ``log2`` of that count can never exceed the static bound; the
meter makes the inequality executable (:meth:`DynamicLeakageMeter.holds`)
and raises :class:`LeakageBoundViolation` on demand when it fails
(:meth:`DynamicLeakageMeter.assert_within_bound`).

Relevance follows Definition 2 exactly (the projection
:func:`repro.quantitative.variations.fold_variations` makes with
:func:`repro.semantics.events.project_mitigations`): a completed
mitigation matters when its static ``pc`` label lies *outside* the upward
closure ``L^`` of the varied levels (low context) while its mitigation
level lies *inside* (high level).

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

#: Numeric slack for comparing measured bits against closed-form bounds.
EPSILON = 1e-9


class LeakageBoundViolation(AssertionError):
    """Observed timing variation exceeded the static Theorem 2 bound."""


class DynamicLeakageMeter:
    """Counts observed mitigation-deadline sequences against Theorem 2.

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
        #: Distinct relevant deadline sequences observed across runs.
        self.sequences: Set[Tuple[int, ...]] = set()
        #: Deadline sequence of the run in progress.
        self._current: List[int] = []
        #: Per-mitigate-command distinct padded durations (relevant only).
        self._per_command: Dict[str, Set[int]] = {}
        #: Smallest initial estimate seen per command (doubling corollary).
        self._estimates: Dict[str, int] = {}
        self.max_final_time = 0
        self.max_relevant_per_run = 0
        self.runs = 0

    # -- feeding (called by the recorder) -------------------------------------

    def observe(
        self,
        mit_id: str,
        level: Label,
        estimate: int,
        duration: int,
        pc_label: Optional[Label],
    ) -> None:
        """One completed mitigation; ``duration`` is the padded total."""
        in_low_context = pc_label is None or pc_label not in self.upward
        if not (in_low_context and level in self.upward):
            return
        self._current.append(duration)
        self._per_command.setdefault(mit_id, set()).add(duration)
        prior = self._estimates.get(mit_id)
        if prior is None or estimate < prior:
            self._estimates[mit_id] = estimate

    def end_run(self, final_time: int) -> None:
        """Close the current run's sequence (hooked to ``on_finish``)."""
        self.sequences.add(tuple(self._current))
        self.max_relevant_per_run = max(
            self.max_relevant_per_run, len(self._current)
        )
        self._current = []
        self.max_final_time = max(self.max_final_time, final_time)
        self.runs += 1

    # -- accounting ------------------------------------------------------------

    @property
    def observed_variations(self) -> int:
        """Distinct relevant deadline sequences observed so far (``|V|``
        measured from below)."""
        return len(self.sequences)

    @property
    def observed_bits(self) -> float:
        """``log2`` of the observed variation count."""
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
