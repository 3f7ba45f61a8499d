"""Hypothesis checks of the hardware models' fast paths.

``Cache``/``Tlb`` allocate a set on first use, split addresses with
shift/mask and remember the block of their last touch; here they are
driven by random operation sequences (a third of them on the previous
touch's address) next to an eager reference kept in this file (a list of
``OrderedDict`` sets, ``//`` and ``%`` arithmetic), comparing every hit
result and snapshot.

``PartitionedHardware`` precomputes, per timing label, which partitions
an access searches and which it evicts from; here those routes are
compared with the lattice computation they replace, on a chain and on a
diamond, including after ``clone()``.

Every access touches each level it updates once (``touch`` returns the
hit bit), and skips the own TLB's and L1's remembered block; here
``Hierarchy``, ``PartitionedHardware`` and ``LeakyTlbHardware`` are run
next to the lookup-then-touch algorithm they replace, and
``WriteBackHardware`` next to the drain that scans every dirty block,
all kept in this file on caches that remember nothing, on random
mixed-label traces.  And ``reset()`` must return every registry model to
its constructed state.

``StepReplay`` replays a reset model's steps from a trie; here it runs
random requests (repeated and diverging prefixes, counts attached or not,
requests cut short, a tiny node cap) next to the plain model reset before
each request, comparing every cost, every step's counts in order, and the
state after each request.
"""

from collections import OrderedDict, defaultdict
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import (
    REGISTRY, BranchPredictorParams, Cache, Hierarchy, LeakyTlbHardware,
    NoFillHardware, PartitionedHardware, StandardHardware, Tlb,
    WriteBackHardware, paper_machine, tiny_machine,
)
from repro.hardware.hierarchy import INST_KEYS
from repro.hardware.interface import StepKind
from repro.hardware import replay
from repro.hardware.registry import LATTICE_POINTS
from repro.hardware.replay import StepReplay
from repro.lattice import Lattice, chain, diamond, two_point
from repro.machine.layout import CODE_BASE, DATA_BASE, AccessTrace


class Reference:
    """Eager set-associative LRU store: the behaviour the fast path must
    keep."""

    def __init__(self, sets, ways, line_bytes):
        self.sets, self.ways, self.line = sets, ways, line_bytes
        self.lines = [OrderedDict() for _ in range(sets)]

    def _locate(self, address):
        block = address // self.line
        return self.lines[block % self.sets], block // self.sets

    def lookup(self, address):
        lines, tag = self._locate(address)
        return tag in lines

    def touch(self, address):
        lines, tag = self._locate(address)
        if tag in lines:
            lines.move_to_end(tag)
            return True
        if len(lines) >= self.ways:
            lines.popitem(last=False)
        lines[tag] = None
        return False

    def evict(self, address):
        lines, tag = self._locate(address)
        if tag in lines:
            del lines[tag]
            return True
        return False

    def flush(self):
        for lines in self.lines:
            lines.clear()

    def clone(self):
        twin = Reference(self.sets, self.ways, self.line)
        twin.lines = [OrderedDict(lines) for lines in self.lines]
        return twin

    def state(self):
        return tuple(tuple(lines) for lines in self.lines)


def _components():
    """Every cache and TLB geometry of the paper and tiny machines."""
    out = []
    for machine in (paper_machine(), tiny_machine()):
        for params in (machine.l1_data, machine.l2_data, machine.l1_inst,
                       machine.l2_inst):
            out.append((Cache, params, params.block_bytes))
        for params in (machine.data_tlb, machine.inst_tlb):
            out.append((Tlb, params, params.page_bytes))
    return out


COMPONENTS = _components()
OPS = ("touch", "touch", "lookup", "evict", "flush", "clone")


@st.composite
def scenarios(draw):
    cls, params, line = draw(st.sampled_from(COMPONENTS))
    # Addresses that collide in a few sets (so ways fill and evict) mixed
    # with arbitrary ones across the data and code regions.
    span = params.sets * line
    colliding = st.builds(
        lambda base, k, off: base + k * span + off,
        st.sampled_from([0, DATA_BASE, CODE_BASE]),
        st.integers(0, params.ways + 2),
        st.integers(0, 3 * line),
    )
    anywhere = st.integers(0, DATA_BASE + (1 << 16))
    # None: the address of the previous touch again, so the remembered
    # last-touched block is hit, looked up and evicted, and touched again
    # after an evict, a flush or a clone.
    address = st.one_of(colliding, anywhere, st.none())
    ops = draw(st.lists(st.tuples(st.sampled_from(OPS), address),
                        min_size=1, max_size=80))
    return cls, params, line, ops


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_lazy_sets_match_the_eager_reference(scenario):
    cls, params, line, ops = scenario
    subject = cls(params)
    reference = Reference(params.sets, params.ways, line)
    retired = []
    last_touched = 0
    for op, address in ops:
        if address is None:
            address = last_touched
        if op == "touch":
            last_touched = address
        if op == "clone":
            # Continue on the clones; the originals must stay frozen.
            retired.append((subject, reference.state()))
            subject, reference = subject.clone(), reference.clone()
        elif op == "flush":
            subject.flush()
            reference.flush()
        else:
            assert getattr(subject, op)(address) == \
                getattr(reference, op)(address), (op, address)
        assert subject.state() == reference.state()
        if subject._mru is not None:
            # The remembered block is resident and its set's MRU line.
            lines, tag = reference._locate(subject._mru * line)
            assert list(lines)[-1:] == [tag], op
    assert subject.occupancy() == sum(len(s) for s in reference.lines)
    for original, frozen in retired:
        assert original.state() == frozen


LATTICES = [chain(("L", "M", "H")), diamond()]

#: Per side, (route fields, hierarchy component) for each component.
SIDES = {
    False: ((("tlb", "tlbs_below", "tlbs_above"), "data_tlb"),
            (("l1", "l1s_below", "l1s_above"), "l1_data"),
            (("l2", "l2s_below", "l2s_above"), "l2_data")),
    True: ((("tlb", "tlbs_below", "tlbs_above"), "inst_tlb"),
           (("l1", "l1s_below", "l1s_above"), "l1_inst"),
           (("l2", "l2s_below", "l2s_above"), "l2_inst")),
}


def _same(got, expected):
    return len(got) == len(expected) and all(
        a is b for a, b in zip(got, expected))


def _check_routes(env):
    """Every precomputed route is the per-access lattice walk it
    replaces, over this environment's own components (in order)."""
    levels = env.lattice.levels()
    for label in levels:
        below = [p for p in levels if p != label and p.flows_to(label)]
        above = [q for q in levels if q != label and label.flows_to(q)]
        for instruction, components in SIDES.items():
            route = env._routes[label][instruction]
            for (own, searched, evicted), name in components:
                def of(ls):
                    return [getattr(env.partitions[p], name) for p in ls]
                assert getattr(route, own) is of([label])[0]
                assert _same(getattr(route, searched), of(below))
                assert _same(getattr(route, evicted), of(above))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(LATTICES),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                       st.integers(0, 64), st.booleans()),
             min_size=1, max_size=40),
    st.integers(0, 40),
)
def test_partitioned_routes_match_the_lattice(lattice, steps, cut):
    levels = lattice.levels()
    env = PartitionedHardware(lattice, tiny_machine())
    replay = PartitionedHardware(lattice, tiny_machine())
    _check_routes(env)
    for n, (lr, lw, slot, write) in enumerate(steps):
        if n == cut:
            env = env.clone()
            _check_routes(env)
        read_label = levels[lr % len(levels)]
        write_label = levels[lw % len(levels)]
        address = DATA_BASE + 4 * slot
        trace = AccessTrace(CODE_BASE + 8 * (slot % 8),
                            reads=() if write else (address,),
                            writes=(address,) if write else ())
        assert env.step(StepKind.ASSIGN, trace, read_label, write_label) \
            == replay.step(StepKind.ASSIGN, trace, read_label, write_label)
        assert env.full_state() == replay.full_state()


# -- one touch per access, against lookup-then-touch ---------------------


class MemoFree:
    """The ``lookup``/``touch`` of a cache that remembers no last-touched
    block: every call searches its set."""

    def lookup(self, address):
        lines = self._sets.get((address >> self._line_shift) & self._set_mask)
        return lines is not None and address >> self._tag_shift in lines

    def touch(self, address):
        set_index = (address >> self._line_shift) & self._set_mask
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


class MemoFreeCache(MemoFree, Cache):
    pass


class MemoFreeTlb(MemoFree, Tlb):
    pass


#: The caches and TLBs of a hierarchy.
HIERARCHY_PARTS = ("l1_data", "l2_data", "l1_inst", "l2_inst", "data_tlb",
                   "inst_tlb")


def _memo_free(build):
    """``build`` with every cache and TLB of the environments it makes
    swapped for an empty memo-free one (they are fresh, so nothing is
    lost), and its routes rebuilt over them."""
    def memo_free(lattice, params):
        env = build(lattice, params)
        for hierarchy in env.hierarchies():
            for name in HIERARCHY_PARTS:
                part = getattr(hierarchy, name)
                plain = MemoFreeTlb if isinstance(part, Tlb) else MemoFreeCache
                setattr(hierarchy, name, plain(part.params))
        if isinstance(env, LeakyTlbHardware):
            env.shared_dtlb = MemoFreeTlb(env.shared_dtlb.params)
            env.shared_itlb = MemoFreeTlb(env.shared_itlb.params)
        if isinstance(env, PartitionedHardware):
            env._build_routes()
        return env
    return memo_free


class LookupThenTouchHierarchy(Hierarchy):
    """The hierarchy access that looks each level up, then touches it."""

    def _access(self, tlb, l1, l2, address, fill, keys):
        hw = self.hw
        cost = 0
        tlb_hit = tlb.lookup(address)
        if hw is not None:
            hw[keys[0][tlb_hit]] += 1
        if tlb_hit:
            if fill:
                tlb.touch(address)
        else:
            cost += tlb.params.miss_penalty
            if fill:
                tlb.touch(address)
        cost += l1.params.latency
        l1_hit = l1.lookup(address)
        if hw is not None:
            hw[keys[1][l1_hit]] += 1
        if l1_hit:
            if fill:
                l1.touch(address)
            return cost
        cost += l2.params.latency
        l2_hit = l2.lookup(address)
        if hw is not None:
            hw[keys[2][l2_hit]] += 1
        if l2_hit:
            if fill:
                l2.touch(address)
                l1.touch(address)
            return cost
        cost += self.params.memory_latency
        if fill:
            l2.touch(address)
            l1.touch(address)
        return cost


class LookupThenTouchCaches:
    """The partitioned access as a TLB stage plus an L1/L2 stage; the
    cache stage searches every partition at or below the label, in
    ``lattice.levels()`` order, then touches the own one; the searched
    partitions come from the lattice, not the routes."""

    def _build_routes(self):
        super()._build_routes()
        levels = self.lattice.levels()
        self.searched = {}
        for label in levels:
            parts = [self.partitions[p] for p in levels
                     if p.flows_to(label)]
            data, inst = self._routes[label]
            self.searched[id(data)] = tuple(
                tuple(getattr(h, name) for h in parts)
                for name in ("data_tlb", "l1_data", "l2_data"))
            self.searched[id(inst)] = tuple(
                tuple(getattr(h, name) for h in parts)
                for name in ("inst_tlb", "l1_inst", "l2_inst"))

    def _access(self, address, route):
        return (self._tlb_stage(address, route)
                + self._cache_stage(address, route))

    def _cache_stage(self, address, route):
        hw = self.hw
        _, l1s, l2s = self.searched[id(route)]
        own_l1 = route.l1
        cost = own_l1.params.latency
        hit = None
        for l1 in l1s:
            if l1.lookup(address):
                hit = l1
                break
        if hw is not None:
            hw[route.keys[1][hit is not None]] += 1
        if hit is not None:
            if hit is own_l1:
                own_l1.touch(address)
            return cost
        own_l2 = route.l2
        cost += own_l2.params.latency
        for l2 in l2s:
            if l2.lookup(address):
                hit = l2
                break
        if hw is not None:
            hw[route.keys[2][hit is not None]] += 1
        if hit is not None:
            if hit is own_l2:
                own_l2.touch(address)
            own_l1.touch(address)
            for l1 in route.l1s_above:
                l1.evict(address)
            return cost
        own_l2.touch(address)
        own_l1.touch(address)
        for l1 in route.l1s_above:
            l1.evict(address)
        for l2 in route.l2s_above:
            l2.evict(address)
        return cost + self.params.memory_latency


class LookupThenTouchPartitioned(LookupThenTouchCaches, PartitionedHardware):
    def _tlb_stage(self, address, route):
        tlbs, _, _ = self.searched[id(route)]
        own = route.tlb
        hit = None
        for tlb in tlbs:
            if tlb.lookup(address):
                hit = tlb
                break
        if self.hw is not None:
            self.hw[route.keys[0][hit is not None]] += 1
        if hit is None:
            own.touch(address)
            for tlb in route.tlbs_above:
                tlb.evict(address)
            return own.params.miss_penalty
        if hit is own:
            own.touch(address)
        return 0


class LookupThenTouchLeakyTlb(LookupThenTouchCaches, LeakyTlbHardware):
    """Translation through the side's shared TLB, whatever the route."""

    def _tlb_stage(self, address, route):
        instruction = route.keys is INST_KEYS
        tlb = self.shared_itlb if instruction else self.shared_dtlb
        hit = tlb.lookup(address)
        if self.hw is not None:
            self.hw[route.keys[0][hit]] += 1
        tlb.touch(address)
        return 0 if hit else tlb.params.miss_penalty


class ScanEveryDirtyBlock(LookupThenTouchPartitioned, WriteBackHardware):
    """The write-back step that scans every dirty block of every level at
    or above the label, with a method call per address and per block."""

    def _block(self, address):
        return address // self.params.l1_data.block_bytes

    def _set_of_block(self, block):
        return block % self.params.l1_data.sets

    def step(self, kind, trace, read_label, write_label):
        cost = PartitionedHardware.step(self, kind, trace, read_label,
                                        write_label)
        if read_label != write_label:
            return cost
        label = read_label
        touched_sets = {
            self._set_of_block(self._block(a))
            for a in (*trace.reads, *trace.writes)
        }
        touched_blocks = {
            self._block(a) for a in (*trace.reads, *trace.writes)
        }
        drained = 0
        if touched_sets:
            for q in self.lattice.levels():
                if not label.flows_to(q):
                    continue
                dirty = self._dirty[q]
                conflicts = [
                    block for block in dirty
                    if self._set_of_block(block) in touched_sets
                    and block not in touched_blocks
                ]
                for block in conflicts:
                    dirty.discard(block)
                drained += len(conflicts)
        for address in trace.writes:
            self._dirty[label].add(self._block(address))
        return cost + drained * self.WRITEBACK_PENALTY


#: The tiny machine with a 4-entry predictor, so every component of a
#: hierarchy collides, evicts and trains.
SMALL = replace(tiny_machine(), branch=BranchPredictorParams(entries=4))

#: Mixed-label traces run on these; the last declares its top first, so
#: ``levels()`` order is not the flow order.
TRACE_LATTICES = [two_point(), chain(("L", "M", "H")), diamond(),
                  Lattice(("H", "L"), (("L", "H"),))]


def _with_hierarchy(cls):
    def build(lattice, params):
        env = cls(lattice, params)
        env.hierarchy = LookupThenTouchHierarchy(params)
        return env
    return build


#: (name, subject factory, reference factory): every reference looks up,
#: then touches, on memo-free caches and TLBs.
DIFFERENTIAL = [
    ("standard", StandardHardware,
     _memo_free(_with_hierarchy(StandardHardware))),
    ("nofill", NoFillHardware, _memo_free(_with_hierarchy(NoFillHardware))),
    ("partitioned", PartitionedHardware,
     _memo_free(LookupThenTouchPartitioned)),
    ("leakytlb", LeakyTlbHardware, _memo_free(LookupThenTouchLeakyTlb)),
    ("writeback", WriteBackHardware, _memo_free(ScanEveryDirtyBlock)),
]

#: One step: (read label, write label, instruction slot, reads, writes,
#: branch outcome); labels index the lattice's levels modulo its size.
step = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 15),
    st.lists(st.integers(0, 95), max_size=2),
    st.lists(st.integers(0, 95), max_size=1),
    st.sampled_from([None, True, False]),
)
steps = st.lists(step, min_size=1, max_size=40)


def _step(env, lattice, step):
    lr, lw, slot, reads, writes, taken = step
    levels = lattice.levels()
    trace = AccessTrace(
        CODE_BASE + 8 * slot,
        reads=tuple(DATA_BASE + 4 * r for r in reads),
        writes=tuple(DATA_BASE + 4 * w for w in writes),
        taken=taken,
    )
    kind = StepKind.ASSIGN if taken is None else StepKind.BRANCH
    return env.step(kind, trace, levels[lr % len(levels)],
                    levels[lw % len(levels)])


def _run_together(envs, lattice, trace):
    """Step every environment through ``trace``; after each step they
    must agree on the cost, the burst and the full state."""
    for step in trace:
        costs = [_step(env, lattice, step) for env in envs]
        bursts = [dict(env.hw) for env in envs]
        states = [env.full_state() for env in envs]
        for env in envs:
            env.hw.clear()
        assert costs.count(costs[0]) == len(costs), (step, costs)
        assert bursts.count(bursts[0]) == len(bursts), (step, bursts)
        assert states.count(states[0]) == len(states), step


@pytest.mark.parametrize(
    "lattice", TRACE_LATTICES,
    ids=lambda lattice: "".join(map(str, lattice.levels())))
@pytest.mark.parametrize("model", DIFFERENTIAL, ids=lambda model: model[0])
@settings(max_examples=25, deadline=None)
@given(trace=steps)
def test_one_touch_matches_lookup_then_touch(model, lattice, trace):
    _, subject, reference = model
    envs = [subject(lattice, SMALL), reference(lattice, SMALL)]
    for env in envs:
        env.attach_hw(defaultdict(int))
    _run_together(envs, lattice, trace)


# -- reset ---------------------------------------------------------------


@pytest.mark.parametrize("point", sorted(LATTICE_POINTS))
@pytest.mark.parametrize("name", REGISTRY.names())
@settings(max_examples=10, deadline=None)
@given(before=steps, after=steps)
def test_reset_returns_the_constructed_state(name, point, before, after):
    lattice = LATTICE_POINTS[point]()
    env = REGISTRY.make(name, lattice, SMALL)
    hw = defaultdict(int)
    env.attach_hw(hw)
    for step in before:
        _step(env, lattice, step)
    env.reset()
    fresh = REGISTRY.make(name, lattice, SMALL)
    assert env.hw is hw
    assert env.full_state() == fresh.full_state()
    twin = env.clone()
    hw.clear()
    for other in (fresh, twin):
        other.attach_hw(defaultdict(int))
    _run_together([env, fresh, twin], lattice, after)


# -- replay from a step trie -----------------------------------------------

#: A request: (base sequence, how much of it to keep, a diverging suffix,
#: the counts (none, a burst cleared per step, run totals), the step the
#: request stops before (``None``: it runs to the end), and the step
#: before which the state is compared mid-request).
requests = st.lists(
    st.tuples(
        st.integers(0, 2), st.integers(0, 12),
        st.lists(step, max_size=3),
        st.sampled_from([None, "burst", "totals"]),
        st.one_of(st.none(), st.integers(0, 14)),
        st.one_of(st.none(), st.integers(0, 14)),
    ),
    min_size=1, max_size=8,
)


def _same_state(memo, reference):
    assert memo.full_state() == reference.full_state()
    for level in memo.lattice.levels():
        assert memo.project(level) == reference.project(level)


@pytest.mark.parametrize("point", sorted(LATTICE_POINTS))
@pytest.mark.parametrize("name", REGISTRY.names())
@settings(max_examples=12, deadline=None)
@given(bases=st.lists(st.lists(step, min_size=1, max_size=12),
                      min_size=3, max_size=3),
       plan=requests, cap=st.sampled_from([1, 2, 5, replay.NODE_CAP]))
def test_replay_matches_a_model_reset_per_request(name, point, bases, plan,
                                                  cap):
    lattice = LATTICE_POINTS[point]()
    reference = REGISTRY.make(name, lattice, SMALL)
    memo = StepReplay(REGISTRY.make(name, lattice, SMALL))
    assert memo.describe() == type(reference).__name__
    with mock.patch.object(replay, "NODE_CAP", cap):
        for base, keep, suffix, counts, stop, peek in plan:
            request = bases[base][:keep] + suffix
            if stop is not None:
                request = request[:stop]
            memo.reset()
            reference.reset()
            hw = [None if counts is None else defaultdict(int)
                  for _ in range(2)]
            memo.attach_hw(hw[0])
            reference.attach_hw(hw[1])
            for index, one in enumerate(request):
                if index == peek:
                    _same_state(memo, reference)
                assert _step(memo, lattice, one) == \
                    _step(reference, lattice, one), (index, one)
                if counts is not None:
                    assert list(hw[0].items()) == list(hw[1].items())
                if counts == "burst":
                    for dict_ in hw:
                        dict_.clear()
            _same_state(memo, reference)
            assert memo.clone().full_state() == \
                reference.clone().full_state()
        assert len(memo._into) <= cap


def test_replay_steps_the_model_only_off_the_trie():
    lattice = two_point()
    model = REGISTRY.make("partitioned", lattice, SMALL)
    memo = StepReplay(model)
    first = [(0, 0, slot, [slot], [], None) for slot in range(6)]
    diverged = first[:4] + [(1, 1, 9, [], [9], None)]
    with mock.patch.object(type(model), "step", autospec=True,
                           side_effect=type(model).step) as live:
        for request, live_steps in ((first, 6), (first, 0),
                                    (diverged, 4 + 1), (diverged, 0)):
            live.reset_mock()
            memo.reset()
            for one in request:
                _step(memo, lattice, one)
            # A miss replays the path it diverged from, then steps live.
            assert live.call_count == live_steps, request
