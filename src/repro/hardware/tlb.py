"""A TLB simulator.

Structurally a TLB is a small set-associative cache over *page numbers*
rather than block addresses, so this reuses :class:`~repro.hardware.cache.Cache`
machinery with page-granular indexing.  A hit costs nothing extra (address
translation overlaps the pipeline); a miss adds the Table 1 penalty
(30 cycles -- a hardware page walk).
"""

from __future__ import annotations

from .cache import Cache


class Tlb(Cache):
    """A set-associative TLB with true-LRU replacement over page numbers.

    :meth:`lookup` tests whether a page mapping is resident (no state
    change); :meth:`touch` translates -- LRU-promote on hit,
    walk-and-install on miss -- and returns True on hit.
    """

    @staticmethod
    def _line_bytes(params) -> int:
        return params.page_bytes

    def __repr__(self) -> str:
        return f"Tlb({self.params.name!r}, {self.occupancy()} entries)"
