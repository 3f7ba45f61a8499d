"""Static cost contracts: interval cycle bounds per evaluation step.

Every registered hardware model (:mod:`repro.hardware.registry`) charges
one :meth:`~repro.hardware.interface.MachineEnvironment.step` per labeled
command.  This module derives, for each model, a *static cost contract*: a
closed-form interval ``[lo, hi]`` bounding what that step can cost, as a
function of the step's kind, its access counts, and its read/write labels
-- everything the abstract cost interpreter (:mod:`repro.analysis.cost`)
knows without running the program.

The contracts mirror the concrete ``step()`` implementations exactly:

``null``
    ``DEFAULT_COSTS[kind] + reads + writes`` -- a point interval.
``standard`` / ``nofill``
    execute cost, plus an instruction fetch in
    ``[L1I hit, ITLB miss + L1I + L2I + memory]``, plus each data access in
    ``[L1D hit, DTLB miss + L1D + L2D + memory]``.
``partitioned`` / ``leakytlb``
    same envelope when ``lr = lw``; the bypass path (``lr != lw``) is a
    *point* interval (``execute + inst_miss + data_miss * accesses``),
    the envelope's upper end.
``bus``
    adds an exact stall of ``2 * queue`` per step; the contract threads a
    queue-occupancy interval through the abstract state.
``writeback``
    per-step costs as partitioned; dirty-line drains are charged as a
    *region overhead* bounded by ``40 * (cumulative writes so far)``.
``speculative``
    adds ``[0, FLUSH_PENALTY]`` to every branch step.
``frequency``
    every step may run throttled: ``[lo, 2 * hi]``.

A contract builds its intervals from the params once, when constructed,
so a step costs one add-and-scale.  What the census walk reads of a
contract is summed up by :meth:`CostContract.census_key`: contracts with
equal keys walk a program identically, so
:func:`repro.analysis.quantify.quantify_all` walks them once.

Soundness -- every concretely observed step cost lies inside its static
interval -- is validated by the profiler-replay harness in
:mod:`repro.analysis.cost` and its Hypothesis property test.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple, Optional, Tuple

from ..lattice import Label
from .interface import StepKind
from .null import DEFAULT_COSTS
from .params import CacheParams, MachineParams, paper_machine
from .registry import REGISTRY


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


class Interval(NamedTuple):
    """A closed cycle-count interval ``[lo, hi]``; ``hi=None`` means ⊤
    (no finite upper bound, e.g. a widened loop or an unknown sleep).

    Immutable; ``+`` is interval addition, not tuple concatenation."""

    lo: int
    hi: Optional[int]

    @classmethod
    def exact(cls, value: int) -> "Interval":
        return cls(value, value)

    @classmethod
    def top(cls, lo: int = 0) -> "Interval":
        return cls(lo, None)

    @property
    def bounded(self) -> bool:
        return self.hi is not None

    @property
    def is_exact(self) -> bool:
        return self.hi == self.lo

    @property
    def empty(self) -> bool:
        """True for the degenerate ``lo > hi`` interval (no cycle count
        satisfies it; used as an impossible-region sentinel)."""
        return self.hi is not None and self.hi < self.lo

    def __add__(self, other: "Interval") -> "Interval":
        lo, hi = self
        other_lo, other_hi = other
        return Interval(
            lo + other_lo,
            None if hi is None or other_hi is None else hi + other_hi,
        )

    def join(self, other: "Interval") -> "Interval":
        """The smallest interval containing both (lattice join)."""
        lo, hi = self
        other_lo, other_hi = other
        return Interval(
            min(lo, other_lo),
            None if hi is None or other_hi is None else max(hi, other_hi),
        )

    def scaled(self, factor: int) -> "Interval":
        return Interval(
            self.lo * factor, None if self.hi is None else self.hi * factor
        )

    def stretched(self, factor: int) -> "Interval":
        """Keep ``lo``, multiply ``hi`` (e.g. a throttled-clock bound)."""
        return Interval(
            self.lo, None if self.hi is None else self.hi * factor
        )

    def contains(self, value: int) -> bool:
        return self.lo <= value and (self.hi is None or value <= self.hi)

    def disjoint_from(self, other: "Interval") -> bool:
        """No cycle count lies in both intervals."""
        below = self.hi is not None and self.hi < other.lo
        above = other.hi is not None and other.hi < self.lo
        return below or above

    def distinguishable(self, other: "Interval",
                        resolution: int = 1) -> bool:
        """Can a timing observer with ``resolution``-cycle granularity tell
        a duration from this interval apart from one in ``other``?

        True when the intervals are disjoint and separated by at least
        ``resolution`` cycles.  Symmetric by construction; an empty
        interval is never distinguishable from anything (there is no
        duration to observe).
        """
        if self.empty or other.empty:
            return False
        return self.gap(other) >= max(resolution, 1)

    def gap(self, other: "Interval") -> int:
        """Minimum cycle distance between the two intervals (0 if they
        overlap)."""
        if self.hi is not None and self.hi < other.lo:
            return other.lo - self.hi
        if other.hi is not None and other.hi < self.lo:
            return self.lo - other.hi
        return 0

    def __str__(self) -> str:
        if self.hi is None:
            return f"[{self.lo}, ⊤]"
        return f"[{self.lo}, {self.hi}]"


ZERO = Interval(0, 0)


# ---------------------------------------------------------------------------
# Cache geometry (for the TL025 set-straddle check)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheGeometry:
    """The L1-data geometry a static analysis needs: which addresses share
    a cache set."""

    sets: int
    block_bytes: int

    @classmethod
    def of(cls, cache: CacheParams) -> "CacheGeometry":
        return cls(sets=cache.sets, block_bytes=cache.block_bytes)

    def set_index(self, address: int) -> int:
        return (address // self.block_bytes) % self.sets


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------


#: The :class:`CostContract` methods besides :meth:`~CostContract.
#: step_cost` through which a census walk reads a contract.
_WALK_HOOKS = ("initial_state", "join_state", "widen_state",
               "region_overhead", "distinguishable")


class CostContract:
    """Static per-step cost bounds for one hardware model.

    Contracts are pure: the mutable part of a model (bus queue, dirty
    lines) is threaded through an explicit immutable abstract state so the
    cost interpreter can join it at control-flow merges and widen it at
    unbounded loops.
    """

    #: Canonical registry name of the model this contract abstracts.
    name: str = ""

    #: Clock granularity an observer of this model resolves, in cycles.
    #: Two region durations closer than this are treated as one
    #: observation by the quantitative-leakage analysis.
    RESOLUTION = 1

    def __init__(self, params: Optional[MachineParams] = None):
        self.params = params if params is not None else paper_machine()

    def distinguishable(self, a: Interval, b: Interval) -> bool:
        """Can this model's timing observer separate a duration drawn from
        ``a`` from one drawn from ``b``?  The quantitative-leakage engine
        (:mod:`repro.analysis.quantify`) forks a timing-equivalence class
        exactly when this holds."""
        return a.distinguishable(b, self.RESOLUTION)

    # -- abstract machine state (default: none) -----------------------------

    def initial_state(self) -> Hashable:
        return ()

    def join_state(self, a: Hashable, b: Hashable) -> Hashable:
        return a if a == b else self.widen_state(a)

    def widen_state(self, state: Hashable) -> Hashable:
        return state

    # -- per-step and per-region bounds --------------------------------------

    def step_cost(
        self,
        kind: StepKind,
        reads: int,
        writes: int,
        is_branch: bool,
        read_label: Optional[Label],
        write_label: Optional[Label],
        state: Hashable,
    ) -> Tuple[Interval, Hashable]:
        raise NotImplementedError

    def region_overhead(self, exit_state: Hashable) -> Interval:
        """Extra cycles a whole region may accumulate beyond the sum of its
        per-step intervals (e.g. write-back drains)."""
        return ZERO

    def geometry(self) -> Optional[CacheGeometry]:
        """The L1-data geometry, or ``None`` for cache-less models."""
        return CacheGeometry.of(self.params.l1_data)

    # -- what the census walk reads -------------------------------------------

    def census_key(self, steps: Iterable[tuple]) -> Hashable:
        """Everything the census walk of one program reads of this
        contract: two contracts with equal keys walk it identically.

        ``steps`` are the program's distinct charged steps in preorder,
        each the ``(kind, reads, writes, is_branch, read_label,
        write_label)`` arguments of :meth:`step_cost`.  With no abstract
        state, a walk reads only the clock resolution and each step's
        interval, so those are the key.  A contract class that overrides a
        state hook (or :meth:`distinguishable`) must define its own key;
        defining one without is a ``TypeError``.
        """
        return (self.RESOLUTION,) + tuple(
            self.step_cost(*step, ())[0] for step in steps
        )

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.census_key is not CostContract.census_key:
            return
        for hook in _WALK_HOOKS:
            if getattr(cls, hook) is not getattr(CostContract, hook):
                raise TypeError(f"{cls.__name__} overrides {hook}; it must "
                                "define its own census_key")


class NullCostContract(CostContract):
    """`null`: fixed per-kind costs -- every interval is a point."""

    name = "null"

    def step_cost(self, kind, reads, writes, is_branch,
                  read_label, write_label, state):
        cost = DEFAULT_COSTS[kind] + reads + writes
        return Interval.exact(cost), state

    def geometry(self) -> Optional[CacheGeometry]:
        return None  # no environment state at all


class SharedHierarchyCostContract(CostContract):
    """`standard`/`nofill`: one hierarchy, every access may hit or miss.

    The envelope is fixed by the params, so it is built once: a step is
    ``[lo, hi]`` for the execute cost plus an instruction fetch (plus a
    possible misprediction on a branch), plus ``reads + writes`` data
    accesses of ``[L1D hit, DTLB miss + L1D + L2D + memory]`` each."""

    name = "standard"

    def __init__(self, params: Optional[MachineParams] = None):
        super().__init__(params)
        p = self.params
        fetch_lo = p.execute_cost + p.l1_inst.latency
        fetch_hi = (p.execute_cost + p.inst_tlb.miss_penalty
                    + p.l1_inst.latency + p.l2_inst.latency
                    + p.memory_latency)
        penalty = 0 if p.branch is None else p.branch.penalty
        #: ``(lo, hi)`` of a step with no data access, by ``is_branch``.
        self._fetch = ((fetch_lo, fetch_hi),
                       (fetch_lo, fetch_hi + penalty))
        self._data_lo = p.l1_data.latency
        self._data_hi = (p.data_tlb.miss_penalty + p.l1_data.latency
                         + p.l2_data.latency + p.memory_latency)

    def step_cost(self, kind, reads, writes, is_branch,
                  read_label, write_label, state):
        lo, hi = self._fetch[is_branch]
        accesses = reads + writes
        return Interval(lo + self._data_lo * accesses,
                        hi + self._data_hi * accesses), state


class PartitionedCostContract(SharedHierarchyCostContract):
    """`partitioned`/`leakytlb`: the cached path shares the standard
    envelope; the bypass path (``lr != lw``) is exact.

    A bypassed step misses everywhere, so it costs exactly the envelope's
    upper end; the join of the two paths (labels unknown) is therefore the
    envelope itself."""

    name = "partitioned"

    def step_cost(self, kind, reads, writes, is_branch,
                  read_label, write_label, state):
        cached, state = super().step_cost(
            kind, reads, writes, is_branch, read_label, write_label, state
        )
        if (read_label is not None and write_label is not None
                and read_label != write_label):
            return Interval.exact(cached.hi), state
        return cached, state


class BusCostContract(PartitionedCostContract):
    """`bus`: plus an exact ``2 * queue`` stall; the abstract state is the
    queue-occupancy interval ``(q_lo, q_hi)``."""

    name = "bus"
    STALL_CYCLES = 2
    DRAIN_PER_STEP = 1
    QUEUE_CAP = 4096

    def initial_state(self):
        return (0, 0)

    def census_key(self, steps):
        return (type(self), self.params)

    def join_state(self, a, b):
        return (min(a[0], b[0]), max(a[1], b[1]))

    def widen_state(self, state):
        return (0, self.QUEUE_CAP)

    def step_cost(self, kind, reads, writes, is_branch,
                  read_label, write_label, state):
        q_lo, q_hi = state
        stall = Interval(q_lo * self.STALL_CYCLES, q_hi * self.STALL_CYCLES)
        base, _ = super().step_cost(
            kind, reads, writes, is_branch, read_label, write_label, ()
        )
        traffic = 1 + reads + writes
        advance = lambda q: min(  # noqa: E731
            self.QUEUE_CAP, max(0, q - self.DRAIN_PER_STEP) + traffic
        )
        return stall + base, (advance(q_lo), advance(q_hi))


class WriteBackCostContract(PartitionedCostContract):
    """`writeback`: per-step costs as partitioned; drains are charged per
    *region*, bounded by the cumulative write count at region exit (every
    drained line was dirtied by some earlier write).  The abstract state is
    the cumulative-writes interval ``(w_lo, w_hi)``."""

    name = "writeback"
    WRITEBACK_PENALTY = 40

    def initial_state(self):
        return (0, 0)

    def census_key(self, steps):
        return (type(self), self.params)

    def join_state(self, a, b):
        hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
        return (min(a[0], b[0]), hi)

    def widen_state(self, state):
        return (state[0], None)

    def step_cost(self, kind, reads, writes, is_branch,
                  read_label, write_label, state):
        cost, _ = super().step_cost(
            kind, reads, writes, is_branch, read_label, write_label, ()
        )
        w_lo, w_hi = state
        return cost, (w_lo + writes,
                      None if w_hi is None else w_hi + writes)

    def region_overhead(self, exit_state) -> Interval:
        w_hi = exit_state[1]
        if w_hi is None:
            return Interval.top()
        return Interval(0, w_hi * self.WRITEBACK_PENALTY)


class SpeculativeCostContract(PartitionedCostContract):
    """`speculative`: every branch step may mispredict and flush."""

    name = "speculative"
    FLUSH_PENALTY = 12

    def step_cost(self, kind, reads, writes, is_branch,
                  read_label, write_label, state):
        cost, state = super().step_cost(
            kind, reads, writes, is_branch, read_label, write_label, state
        )
        if is_branch:
            cost = cost + Interval(0, self.FLUSH_PENALTY)
        return cost, state


class FrequencyCostContract(PartitionedCostContract):
    """`frequency`: any step may land in a throttled thermal window."""

    name = "frequency"
    SLOWDOWN = 2
    #: A throttled clock jitters every duration by up to SLOWDOWN;
    #: the observer cannot resolve gaps below that factor.
    RESOLUTION = SLOWDOWN

    def step_cost(self, kind, reads, writes, is_branch,
                  read_label, write_label, state):
        cost, state = super().step_cost(
            kind, reads, writes, is_branch, read_label, write_label, state
        )
        return cost.stretched(self.SLOWDOWN), state


#: Canonical registry name -> contract class.  `leakytlb` shares the
#: partitioned contract (it only re-routes TLB *state*, not cost bounds);
#: `nofill` shares the standard envelope (no-fill misses still pay full
#: memory latency).
_CONTRACTS = {
    "null": NullCostContract,
    "standard": SharedHierarchyCostContract,
    "nofill": SharedHierarchyCostContract,
    "partitioned": PartitionedCostContract,
    "leakytlb": PartitionedCostContract,
    "bus": BusCostContract,
    "writeback": WriteBackCostContract,
    "speculative": SpeculativeCostContract,
    "frequency": FrequencyCostContract,
}


@functools.lru_cache(maxsize=64)
def contract_for(
    hardware: str, params: Optional[MachineParams] = None
) -> CostContract:
    """The static cost contract for a registered model (aliases accepted).

    A contract is never changed once built, so callers share one per
    ``(hardware, params)``: a census builds its models' contracts for
    every program it walks."""
    spec = REGISTRY.get(hardware)  # raises HardwareRegistryError if unknown
    contract_cls = _CONTRACTS[spec.name]
    contract = contract_cls(params)
    contract.name = spec.name
    return contract
