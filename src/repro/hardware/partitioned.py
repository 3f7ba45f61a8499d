"""Statically partitioned caches and TLBs (Sec. 4.3).

The paper's more efficient secure design gives every security level its own
static partition of each cache and TLB, and steers accesses by a *timing
label* that software provides (our implementation receives the read/write
labels directly; the paper encodes them in a new register).  For the
two-level lattice the behaviour is exactly the paper's:

* timing label H: both partitions are searched; on a miss, the line is
  installed in the H partition.  A hit in the L partition is served
  *silently* (no LRU promotion -- an H-labeled step may not modify L state,
  Property 5).
* timing label L: only the L partition is searched.  On an L miss the
  controller installs the line in the L partition; if the line already lived
  in the H partition it is *moved* (removed from H -- allowed, since
  ``L <= H``), and the hardware makes the move take exactly as long as a
  real miss, so timing reveals nothing about H state (Property 6).

The generalization to an arbitrary lattice, implemented here with timing
label ``l``:

* partitions at levels ``p <= l`` are searched (cheapest hit wins);
* a hit in partition ``p`` is LRU-promoted only when ``p = l`` (for
  ``p < l``, promotion would modify state below the write label);
* a miss installs into partition ``l`` and evicts the line from every
  partition strictly above ``l`` (single-copy consistency; eviction at
  ``q >= l`` is permitted by Property 5 because ``lw = l <= q``), always at
  full miss cost.

Single-copy consistency (a line never sits in partition ``l`` and in one
strictly below it at the same cache level) makes an access one touch: it
looks up the partitions strictly below and, when none hits, touches its
own once, which classifies the access and promotes or installs.  When the
own TLB's or L1's last-touched block is this one, it is the own MRU line,
so even the lookups are skipped: the touch would hit and change nothing.

Like commodity caches (Sec. 5.1), the design needs ``lr = lw`` to use the
cache: a read must be able to promote/install at its own level.  Steps
arriving with ``lr != lw`` are served *bypassed* -- constant full-miss cost,
no state change -- which is trivially secure.  The type system offers
``require_cache_labels`` to reject such programs instead (Sec. 8.1 treats
``lr = lw`` as an extra side condition).
"""

from __future__ import annotations

from typing import Dict, Hashable, NamedTuple, Tuple

from ..lattice import Label, Lattice
from ..machine.layout import AccessTrace
from .cache import Cache
from .hierarchy import DATA_KEYS, INST_KEYS, Hierarchy
from .interface import MachineEnvironment, StepKind
from .params import MachineParams, paper_machine
from .tlb import Tlb


class _Route(NamedTuple):
    """Where one timing label's accesses go on one side (data or
    instruction): per component, the own-level partition, the partitions
    strictly below the label (searched without update, in
    ``lattice.levels()`` order) and the partitions strictly above it
    (single-copy evictions), plus the side's telemetry burst keys.
    ``_access`` unpacks it by position."""

    tlb: Tlb
    tlbs_below: Tuple[Tlb, ...]
    tlbs_above: Tuple[Tlb, ...]
    l1: Cache
    l1s_below: Tuple[Cache, ...]
    l1s_above: Tuple[Cache, ...]
    l2: Cache
    l2s_below: Tuple[Cache, ...]
    l2s_above: Tuple[Cache, ...]
    keys: Tuple[Tuple[str, str], ...]


class PartitionedHardware(MachineEnvironment):
    """One cache/TLB partition per lattice level, with single-copy moves."""

    def __init__(self, lattice: Lattice, params: MachineParams = None):
        super().__init__(lattice)
        self.params = params if params is not None else paper_machine()
        self.partitions: Dict[Label, Hierarchy] = {
            level: Hierarchy(self.params) for level in lattice.levels()
        }
        self._build_routes()

    def _build_routes(self) -> None:
        """Precompute every label's routes, indexed ``[label][instruction]``
        (the lattice order is fixed, so no access recomputes it)."""
        levels = self.lattice.levels()

        def route(label: Label, parts, instruction: bool) -> _Route:
            tlb, l1, l2 = parts(self.partitions[label])
            below = [parts(self.partitions[p])
                     for p in levels if p != label and p.flows_to(label)]
            above = [parts(self.partitions[q])
                     for q in levels if q != label and label.flows_to(q)]
            return _Route(
                tlb, tuple(b[0] for b in below), tuple(a[0] for a in above),
                l1, tuple(b[1] for b in below), tuple(a[1] for a in above),
                l2, tuple(b[2] for b in below), tuple(a[2] for a in above),
                INST_KEYS if instruction else DATA_KEYS,
            )

        def data(h: Hierarchy):
            return h.data_tlb, h.l1_data, h.l2_data

        def inst(h: Hierarchy):
            return h.inst_tlb, h.l1_inst, h.l2_inst

        self._routes: Dict[Label, Tuple[_Route, _Route]] = {
            label: (route(label, data, False), route(label, inst, True))
            for label in levels
        }

    def hierarchies(self):
        return tuple(self.partitions.values())

    # -- the partitioned access algorithm ------------------------------------

    def _access(self, address: int, route: _Route) -> int:
        """One access along ``route`` (one label, one side): translation,
        then the L1/L2 search; returns its cost."""
        # One unpack: a named tuple's fields read slower by attribute.
        (tlb, tlbs_below, tlbs_above, l1, l1s_below, l1s_above,
         l2, l2s_below, l2s_above, keys) = route
        hw = self.hw
        if address >> tlb._line_shift == tlb._mru:
            hit = True
        else:
            for below in tlbs_below:
                if below.lookup(address):
                    hit = True
                    break
            else:
                hit = tlb.touch(address)
        if hw is not None:
            hw[keys[0][hit]] += 1
        cost = l1.params.latency
        if not hit:
            # A page walk, installed in the own TLB by the touch above.
            cost += tlb.params.miss_penalty
            for above in tlbs_above:
                above.evict(address)
        if address >> l1._line_shift == l1._mru:
            hit = True
        else:
            for below in l1s_below:
                if below.lookup(address):
                    hit = True
                    break
            else:
                hit = l1.touch(address)
        if hw is not None:
            hw[keys[1][hit]] += 1
        if hit:
            return cost

        # L1 miss: the touch above installed the line in the own L1, so
        # evict it from the L1s above, then search L2 the same way.
        for above in l1s_above:
            above.evict(address)
        cost += l2.params.latency
        for below in l2s_below:
            if below.lookup(address):
                hit = True
                break
        else:
            hit = l2.touch(address)
        if hw is not None:
            hw[keys[2][hit]] += 1
        if hit:
            return cost

        # Full miss: the controller either fetches from memory or moves the
        # line from a strictly-higher partition; both take the full miss
        # latency so that timing is independent of unsearched state.
        for above in l2s_above:
            above.evict(address)
        return cost + self.params.memory_latency

    # -- the contract interface ------------------------------------------------

    def step(
        self,
        kind: StepKind,
        trace: AccessTrace,
        read_label: Label,
        write_label: Label,
    ) -> int:
        instruction, reads, writes, taken = trace
        cost = self.params.execute_cost
        if read_label is not write_label:
            # The cache can only be used when lr = lw (Sec. 5.1); other
            # steps bypass it entirely at worst-case cost.
            reference = self.partitions[self.lattice.bottom]
            cost += reference.inst_miss_cost()
            cost += reference.data_miss_cost() * (len(reads) + len(writes))
            hw = self.hw
            if hw is not None:
                hw["bypass.steps"] += 1
                hw["bypass.accesses"] += 1 + len(reads) + len(writes)
            if taken is not None and self.params.branch is not None:
                cost += self.params.branch.penalty  # flat worst case
            return cost
        data, inst = self._routes[read_label]
        access = self._access
        cost += access(instruction, inst)
        if taken is not None:
            # Each level owns a private predictor: reads and training stay
            # at exactly the step's own level.
            cost += self.partitions[read_label].branch_cost(instruction,
                                                            taken)
        for address in reads:
            cost += access(address, data)
        for address in writes:
            cost += access(address, data)
        return cost

    def project(self, level: Label) -> Hashable:
        return self.partitions[level].state()

    def clone(self) -> "PartitionedHardware":
        twin = type(self)(self.lattice, self.params)
        twin.partitions = {
            level: hierarchy.clone()
            for level, hierarchy in self.partitions.items()
        }
        twin._build_routes()
        return twin
