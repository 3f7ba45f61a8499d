"""Standard security lattices used throughout the paper and the tests.

* :func:`two_point` -- the classic ``L <= H`` lattice of Sec. 2.2.
* :func:`chain` -- a total order ``L0 <= L1 <= ... <= L{n-1}``; the paper's
  three-level examples (Sec. 3.6, Sec. 6) use ``chain(("L", "M", "H"))``.
* :func:`diamond` -- the smallest lattice with incomparable levels, used to
  exercise genuinely multilevel behaviour.
* :func:`powerset` -- the lattice of subsets of a set of principals, ordered
  by inclusion; the standard "decentralized" multilevel example.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence, Tuple

from .core import Lattice, LatticeError


def two_point() -> Lattice:
    """The two-point lattice ``L <= H`` (public below secret)."""
    return Lattice(("L", "H"), (("L", "H"),))


def chain(names: Sequence[str] = ("L", "M", "H")) -> Lattice:
    """A totally ordered lattice with the given level names, low to high
    (non-empty and distinct: a repeat would close a cycle or merge two)."""
    if not names:
        raise LatticeError("a chain needs at least one level")
    if not all(names) or len(set(names)) < len(names):
        raise LatticeError("level names must be non-empty and distinct, "
                           f"got {','.join(names)!r}")
    covers = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return Lattice(names, covers)


def diamond(
    low: str = "L", left: str = "M1", right: str = "M2", high: str = "H"
) -> Lattice:
    """The four-point diamond: ``low`` below two incomparable middles below ``high``."""
    return Lattice(
        (low, left, right, high),
        ((low, left), (low, right), (left, high), (right, high)),
    )


def powerset(principals: Sequence[str]) -> Lattice:
    """The powerset lattice over ``principals``, ordered by subset inclusion.

    The empty set (named ``{}``) is public; the full set is top.  Element
    names look like ``{a,b}`` with principals sorted alphabetically.
    """
    principals = sorted(set(principals))

    def name(subset: Tuple[str, ...]) -> str:
        return "{" + ",".join(subset) + "}"

    subsets = [
        tuple(sorted(c))
        for r in range(len(principals) + 1)
        for c in combinations(principals, r)
    ]
    covers = []
    for a in subsets:
        for b in subsets:
            if a != b and set(a) <= set(b):
                covers.append((name(a), name(b)))
    return Lattice([name(s) for s in subsets], covers)
