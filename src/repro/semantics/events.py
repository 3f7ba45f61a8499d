"""Observable events and mitigate-vector traces (Sec. 6.1, 6.3).

The paper's adversary at level ``lA`` observes memory locations at or below
``lA`` *and the times at which they change* (the coresident-adversary threat
model of Sec. 3.4).  Executions therefore produce a sequence of *assignment
events* ``(x, v, t)``; the ``lA``-observation of a run is the subsequence of
events on variables the adversary can read.

Executions also produce a *mitigate vector* ``(M, t)``: one record per
completed ``mitigate`` command, ordered by completion time (Sec. 6.3), with
the command's static program-counter label ``pc(M)`` and mitigation level
``lev(M)`` attached so the Definition 2 projections can be computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional, Tuple

from ..lattice import Label


@dataclass(frozen=True)
class Event:
    """An observable assignment event ``(x, v, t)``.

    ``index`` is None for scalar assignments; for array stores the event
    carries the written element's index (the adversary sees the memory word
    change).  ``time`` is the global clock when the update lands.
    """

    name: str
    value: int
    time: int
    index: Optional[int] = None

    def location(self) -> str:
        """``x`` for scalars, ``a[i]`` for array stores."""
        return self.name if self.index is None else f"{self.name}[{self.index}]"

    def __str__(self) -> str:
        return f"({self.location()}, {self.value}, {self.time})"


@dataclass(frozen=True)
class MitigationRecord:
    """One completed ``mitigate`` command ``(M_eta, t)``.

    ``duration`` is the full padded execution time of the mitigated block
    (the ``t`` component of the paper's vectors); ``end_time`` orders the
    vector by completion, as Sec. 6.3 prescribes.  ``pc_label`` is the static
    program-counter label at the command (``pc(M_eta)``), supplied by the
    type checker; ``level`` is the mitigation level (``lev(M_eta)``) and
    ``estimate`` the evaluated initial estimate ``n`` the fast-doubling
    corollary bounds the command's distinct durations by.
    """

    mit_id: str
    level: Label
    start_time: int
    end_time: int
    pc_label: Optional[Label] = None
    estimate: int = 0

    @property
    def duration(self) -> int:
        """The padded execution time of the mitigated block."""
        return self.end_time - self.start_time


def observable_events(
    events: Tuple[Event, ...],
    gamma: Mapping[str, Label],
    adversary: Label,
) -> Tuple[Event, ...]:
    """The ``lA``-observation: events on locations at or below ``adversary``."""
    out = []
    for event in events:
        label = gamma.get(event.name)
        if label is None:
            raise KeyError(f"no security label for {event.name!r}")
        if label.flows_to(adversary):
            out.append(event)
    return tuple(out)


def observation_key(events: Tuple[Event, ...]) -> Tuple:
    """A hashable fingerprint of an observation, for distinguishability
    counting in Definition 1."""
    return tuple((e.name, e.index, e.value, e.time) for e in events)


def project_mitigations(
    records: Tuple[MitigationRecord, ...],
    pc_in: Optional[FrozenSet[Label]] = None,
    pc_not_in: Optional[FrozenSet[Label]] = None,
    level_in: Optional[FrozenSet[Label]] = None,
) -> Tuple[MitigationRecord, ...]:
    """The paper's mitigate-vector projections ``(M, t)|_phi``.

    Definition 2 keeps records whose pc label is *outside* ``L^`` (the
    command occurs in a low context) while the mitigation level is *inside*
    ``L^``; Lemma 1 filters on the pc label only.  Passing the corresponding
    keyword arguments composes the needed predicates.
    """
    out = []
    for record in records:
        if pc_in is not None and record.pc_label not in pc_in:
            continue
        if pc_not_in is not None and record.pc_label in pc_not_in:
            continue
        if level_in is not None and record.level not in level_in:
            continue
        out.append(record)
    return tuple(out)


def mitigation_ids(records: Tuple[MitigationRecord, ...]) -> Tuple[str, ...]:
    """The ``M`` component of a vector (ids in completion order)."""
    return tuple(r.mit_id for r in records)


def mitigation_times(records: Tuple[MitigationRecord, ...]) -> Tuple[int, ...]:
    """The ``t`` component of a vector (durations in completion order)."""
    return tuple(r.duration for r in records)
