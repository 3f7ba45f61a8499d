"""Finite security lattices.

The paper associates every piece of information -- program variables, parts
of the machine environment, and the timing of events -- with a *security
label* drawn from a lattice of confidentiality levels (Sec. 2.2).  Labels
``l1`` and ``l2`` are ordered ``l1 <= l2`` when ``l2`` describes a
confidentiality requirement at least as strong as ``l1``; information may
flow from ``l1`` to ``l2`` exactly when ``l1 <= l2``.

This module implements arbitrary *finite* lattices.  A lattice is described
by its carrier set and a covering ("flows directly to") relation; the partial
order is the reflexive-transitive closure.  Joins and meets are computed once
at construction time and validated, so an ill-formed poset (one that is not a
lattice) is rejected eagerly.

The quantitative definitions of Sec. 6 need two derived operators, both
provided here:

* ``exclude_observable(levels, adversary)`` -- the set ``L_{lA}`` of levels in
  ``L`` *not* observable to the adversary (``l !<= lA``).
* ``upward_closure(levels)`` -- ``L^`` in the paper: every level at least as
  restrictive as some member of ``L``.
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Dict, FrozenSet, Iterable, Iterator, Tuple


class LatticeError(ValueError):
    """Raised when a label set and order do not form a lattice."""


class Label:
    """A security level: an element of a specific :class:`Lattice`.

    Labels are interned per lattice, so equality and hashing are identity
    and run in C (labels key the hardware models' per-level tables, looked
    up on every access).  Rich comparisons implement the information-flow
    order (``a <= b`` means "information at ``a`` may flow to ``b``").
    """

    __slots__ = ("name", "lattice", "_index")

    def __init__(self, name: str, lattice: "Lattice", index: int):
        self.name = name
        self.lattice = lattice
        self._index = index

    def flows_to(self, other: "Label") -> bool:
        """True when information at this level may flow to ``other``."""
        return self.lattice.leq(self, other)

    def join(self, other: "Label") -> "Label":
        """Least upper bound of the two labels."""
        return self.lattice.join(self, other)

    def meet(self, other: "Label") -> "Label":
        """Greatest lower bound of the two labels."""
        return self.lattice.meet(self, other)

    # Rich comparisons mirror the lattice order.  Note this is a *partial*
    # order: ``not (a <= b)`` does not imply ``b <= a``.
    def __le__(self, other: "Label") -> bool:
        return self.lattice.leq(self, other)

    def __lt__(self, other: "Label") -> bool:
        return self is not other and self.lattice.leq(self, other)

    def __ge__(self, other: "Label") -> bool:
        return self.lattice.leq(other, self)

    def __gt__(self, other: "Label") -> bool:
        return self is not other and self.lattice.leq(other, self)

    def __or__(self, other: "Label") -> "Label":
        return self.join(other)

    def __and__(self, other: "Label") -> "Label":
        return self.meet(other)

    def __repr__(self) -> str:
        return f"Label({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Lattice:
    """A finite security lattice.

    Parameters
    ----------
    elements:
        Names of the levels.
    covers:
        Pairs ``(lo, hi)`` meaning information flows directly from ``lo`` to
        ``hi``.  The full order is the reflexive-transitive closure of these
        edges.

    Raises
    ------
    LatticeError
        If the order has a cycle, or some pair of elements lacks a unique
        least upper bound or greatest lower bound.
    """

    def __init__(self, elements: Iterable[str], covers: Iterable[Tuple[str, str]]):
        names = list(dict.fromkeys(elements))
        if not names:
            raise LatticeError("a lattice needs at least one element")
        self._labels: Dict[str, Label] = {
            name: Label(name, self, i) for i, name in enumerate(names)
        }
        n = len(names)
        index = {name: i for i, name in enumerate(names)}
        # Reachability closure over the cover edges gives the partial order.
        leq = [[False] * n for _ in range(n)]
        for i in range(n):
            leq[i][i] = True
        for lo, hi in covers:
            if lo not in index or hi not in index:
                unknown = lo if lo not in index else hi
                raise LatticeError(f"cover edge mentions unknown element {unknown!r}")
            leq[index[lo]][index[hi]] = True
        # Floyd-Warshall style transitive closure.
        for k in range(n):
            row_k = leq[k]
            for i in range(n):
                if leq[i][k]:
                    row_i = leq[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    raise LatticeError(
                        f"order contains a cycle through {names[i]!r} and {names[j]!r}"
                    )
        self._names = names
        self._leq = leq
        self._join_table = self._build_bound_table(upper=True)
        self._meet_table = self._build_bound_table(upper=False)
        self._bottom = self._find_extremum(least=True)
        self._top = self._find_extremum(least=False)

    def _build_bound_table(self, upper: bool):
        n = len(self._names)
        leq = self._leq
        table = [[-1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if upper:
                    candidates = [
                        k for k in range(n) if leq[i][k] and leq[j][k]
                    ]
                    best = [
                        k
                        for k in candidates
                        if all(leq[k][c] for c in candidates)
                    ]
                else:
                    candidates = [
                        k for k in range(n) if leq[k][i] and leq[k][j]
                    ]
                    best = [
                        k
                        for k in candidates
                        if all(leq[c][k] for c in candidates)
                    ]
                if len(best) != 1:
                    kind = "join" if upper else "meet"
                    raise LatticeError(
                        f"elements {self._names[i]!r} and {self._names[j]!r} "
                        f"have no unique {kind}; this poset is not a lattice"
                    )
                table[i][j] = table[j][i] = best[0]
        return table

    def _find_extremum(self, least: bool) -> Label:
        n = len(self._names)
        for i in range(n):
            if all(
                (self._leq[i][j] if least else self._leq[j][i]) for j in range(n)
            ):
                return self._labels[self._names[i]]
        raise LatticeError("lattice has no bottom/top element")  # pragma: no cover

    # -- basic access ------------------------------------------------------

    def __getitem__(self, name: str) -> Label:
        try:
            return self._labels[name]
        except KeyError:
            raise KeyError(
                f"no level named {name!r}; levels are {self._names}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._labels

    def __iter__(self) -> Iterator[Label]:
        return iter(self._labels.values())

    def __len__(self) -> int:
        return len(self._names)

    @property
    def bottom(self) -> Label:
        """The least restrictive level (public), written ⊥ in the paper."""
        return self._bottom

    @property
    def top(self) -> Label:
        """The most restrictive level, written ⊤ in the paper."""
        return self._top

    def levels(self) -> Tuple[Label, ...]:
        """All levels, in declaration order."""
        return tuple(self._labels.values())

    # -- order and bounds ---------------------------------------------------

    def leq(self, a: Label, b: Label) -> bool:
        """The information-flow order: may ``a`` flow to ``b``?"""
        self._check(a)
        self._check(b)
        return self._leq[a._index][b._index]

    def join(self, a: Label, *rest: Label) -> Label:
        """Least upper bound of one or more labels."""
        self._check(a)
        result = a
        for b in rest:
            self._check(b)
            result = self._labels[
                self._names[self._join_table[result._index][b._index]]
            ]
        return result

    def meet(self, a: Label, *rest: Label) -> Label:
        """Greatest lower bound of one or more labels."""
        self._check(a)
        result = a
        for b in rest:
            self._check(b)
            result = self._labels[
                self._names[self._meet_table[result._index][b._index]]
            ]
        return result

    def join_all(self, labels: Iterable[Label]) -> Label:
        """Join of an iterable of labels; bottom for the empty iterable."""
        result = self._bottom
        for lab in labels:
            result = self.join(result, lab)
        return result

    def meet_all(self, labels: Iterable[Label]) -> Label:
        """Meet of an iterable of labels; top for the empty iterable."""
        result = self._top
        for lab in labels:
            result = self.meet(result, lab)
        return result

    def _check(self, label: Label) -> None:
        if label.lattice is not self:
            raise LatticeError(
                f"label {label.name!r} belongs to a different lattice"
            )

    # -- derived operators for the quantitative definitions (Sec. 6) --------

    def observable_by(self, adversary: Label) -> FrozenSet[Label]:
        """Levels an adversary at ``adversary`` observes directly: all l <= lA."""
        return frozenset(l for l in self if self.leq(l, adversary))

    def exclude_observable(
        self, levels: Iterable[Label], adversary: Label
    ) -> FrozenSet[Label]:
        """``L_{lA}``: the members of ``levels`` not observable by ``adversary``.

        Sec. 6.2: because an adversary at ``lA`` already sees every level
        below ``lA``, those levels carry no *new* information and are
        excluded before leakage is measured.
        """
        return frozenset(l for l in levels if not self.leq(l, adversary))

    def upward_closure(self, levels: Iterable[Label]) -> FrozenSet[Label]:
        """``L^``: every level above (at least as restrictive as) some l in L."""
        base = list(levels)
        return frozenset(
            l for l in self if any(self.leq(b, l) for b in base)
        )

    def downward_closure(self, levels: Iterable[Label]) -> FrozenSet[Label]:
        """Dual of :meth:`upward_closure`; useful for adversary views."""
        base = list(levels)
        return frozenset(
            l for l in self if any(self.leq(l, b) for b in base)
        )

    # -- structure ----------------------------------------------------------

    def product(self, other: "Lattice", sep: str = "*") -> "Lattice":
        """The product lattice; elements are named ``a{sep}b``."""
        elements = [
            f"{a.name}{sep}{b.name}"
            for a, b in _cartesian(self.levels(), other.levels())
        ]
        covers = []
        for a1, b1 in _cartesian(self.levels(), other.levels()):
            for a2, b2 in _cartesian(self.levels(), other.levels()):
                if (a1, b1) == (a2, b2):
                    continue
                if self.leq(a1, a2) and other.leq(b1, b2):
                    covers.append(
                        (f"{a1.name}{sep}{b1.name}", f"{a2.name}{sep}{b2.name}")
                    )
        return Lattice(elements, covers)

    def is_chain(self) -> bool:
        """True when the order is total."""
        labels = self.levels()
        return all(
            self.leq(a, b) or self.leq(b, a)
            for a in labels
            for b in labels
        )

    def __repr__(self) -> str:
        return f"Lattice({self._names})"
