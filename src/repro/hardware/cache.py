"""A set-associative cache simulator with true-LRU replacement.

Following Sec. 4.1 of the paper, the model is the *coarse-grained*
abstraction: a cache line is a ``(tag, valid)`` pair -- data-block contents
are not modeled, because on real hardware they do not affect access time.
The paper argues this coarseness is exactly what lets confidential values sit
in a public cache partition without violating single-step noninterference
(Property 7): the environment never contains values, only address tags.

The simulator exposes a deliberately small surface:

* :meth:`Cache.lookup` -- timing-visible presence test, no state change;
* :meth:`Cache.touch` -- record a use (install on miss, LRU-promote on hit);
* :meth:`Cache.evict` -- remove a block (used by the partitioned design's
  single-copy consistency move);
* :meth:`Cache.state` -- a hashable snapshot for projected equivalence.

Keeping *lookup* separate from *touch* is what lets the secure designs serve
"silent hits" (reads that must not perturb replacement state, e.g. a
high-context hit in a low partition, Property 5).

A cache remembers the block of its last touch (``_mru``, forgotten by
:meth:`evict` and :meth:`flush`): it is resident and its set's MRU line,
so touching or looking it up again hits and changes nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from .params import CacheParams


class Cache:
    """One cache: ``sets`` sets of ``ways`` lines of ``block_bytes`` bytes.

    A set is allocated on its first :meth:`touch`; an untouched set holds
    nothing and snapshots as ``()``.  Geometry is power-of-two-validated
    by the params, so an address splits into set index and tag with one
    shift and one mask (for any integer, exactly ``//`` and ``%``).
    """

    def __init__(self, params: CacheParams):
        self.params = params
        self._ways = params.ways
        line_shift = self._line_bytes(params).bit_length() - 1
        self._line_shift = line_shift
        self._set_mask = params.sets - 1
        self._tag_shift = line_shift + params.sets.bit_length() - 1
        # Set index -> OrderedDict from tag to None; order encodes LRU
        # (least-recently-used first).
        self._sets: Dict[int, OrderedDict] = {}
        #: Block (``address >> _line_shift``) of the last touch, or None.
        self._mru: Optional[int] = None

    @staticmethod
    def _line_bytes(params) -> int:
        """Bytes one line (one tag) covers."""
        return params.block_bytes

    # -- operations -------------------------------------------------------------

    def lookup(self, address: int) -> bool:
        """Is the block containing ``address`` present?  No state change."""
        block = address >> self._line_shift
        if block == self._mru:
            return True
        lines = self._sets.get(block & self._set_mask)
        return lines is not None and address >> self._tag_shift in lines

    def touch(self, address: int) -> bool:
        """Use the block: LRU-promote on hit, install (evicting LRU) on miss.

        Returns True on hit.
        """
        block = address >> self._line_shift
        if block == self._mru:
            return True
        self._mru = block
        set_index = block & self._set_mask
        tag = address >> self._tag_shift
        lines = self._sets.get(set_index)
        if lines is None:
            self._sets[set_index] = OrderedDict.fromkeys((tag,))
            return False
        if tag in lines:
            lines.move_to_end(tag)
            return True
        if len(lines) >= self._ways:
            lines.popitem(last=False)
        lines[tag] = None
        return False

    def evict(self, address: int) -> bool:
        """Remove the block containing ``address`` if present."""
        self._mru = None
        lines = self._sets.get((address >> self._line_shift) & self._set_mask)
        tag = address >> self._tag_shift
        if lines is not None and tag in lines:
            del lines[tag]
            return True
        return False

    def flush(self) -> None:
        """Empty the cache."""
        self._sets.clear()
        self._mru = None

    def preload(self, addresses) -> None:
        """Touch a sequence of addresses (e.g. to warm the cache)."""
        for address in addresses:
            self.touch(address)

    # -- inspection ----------------------------------------------------------------

    def occupancy(self) -> int:
        """Number of valid lines."""
        return sum(len(lines) for lines in self._sets.values())

    def state(self) -> Tuple[Tuple[int, ...], ...]:
        """A hashable snapshot: per set, the resident tags in LRU order.

        This is the environment's contribution to projected equivalence:
        two caches are indistinguishable exactly when their snapshots match.
        LRU order is included because it determines future evictions and is
        therefore timing-relevant state.
        """
        sets = self._sets
        return tuple(
            tuple(sets[index]) if index in sets else ()
            for index in range(self.params.sets)
        )

    def clone(self) -> "Cache":
        """An independent deep copy (of the same class)."""
        twin = type(self)(self.params)
        twin._sets = {index: OrderedDict(lines)
                      for index, lines in self._sets.items()}
        twin._mru = self._mru
        return twin

    def __repr__(self) -> str:
        return (
            f"Cache({self.params.name!r}, {self.occupancy()}/"
            f"{self.params.sets * self.params.ways} lines)"
        )
